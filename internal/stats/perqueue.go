package stats

// PerQueue reduces per-queue capture accounting (one steered/delivered/
// dropped triple per DMA queue, the shape of mon.QueueStats) into the
// figures multi-queue tables report: per-queue load shares, drop
// fractions, and the steering imbalance factor that tells a skewed RSS
// hash from a balanced one.
type PerQueue struct {
	steered   []uint64
	delivered []uint64
	dropped   []uint64
}

// NewPerQueue returns an empty reduction over n queues.
func NewPerQueue(n int) *PerQueue {
	return &PerQueue{
		steered:   make([]uint64, n),
		delivered: make([]uint64, n),
		dropped:   make([]uint64, n),
	}
}

// Set records queue i's counters.
func (p *PerQueue) Set(i int, steered, delivered, dropped uint64) {
	p.steered[i] = steered
	p.delivered[i] = delivered
	p.dropped[i] = dropped
}

// TotalSteered returns the packets steered across all queues.
func (p *PerQueue) TotalSteered() uint64 {
	var n uint64
	for _, v := range p.steered {
		n += v
	}
	return n
}

// TotalDelivered returns the packets delivered across all queues.
func (p *PerQueue) TotalDelivered() uint64 {
	var n uint64
	for _, v := range p.delivered {
		n += v
	}
	return n
}

// TotalDropped returns the packets dropped across all queues.
func (p *PerQueue) TotalDropped() uint64 {
	var n uint64
	for _, v := range p.dropped {
		n += v
	}
	return n
}

// Share returns queue i's fraction of all steered packets (0 when
// nothing was steered).
func (p *PerQueue) Share(i int) float64 {
	total := p.TotalSteered()
	if total == 0 {
		return 0
	}
	return float64(p.steered[i]) / float64(total)
}

// DropFraction returns queue i's drops as a fraction of what was
// steered to it.
func (p *PerQueue) DropFraction(i int) float64 {
	if p.steered[i] == 0 {
		return 0
	}
	return float64(p.dropped[i]) / float64(p.steered[i])
}

// Imbalance returns the hottest queue's steered count over the per-queue
// mean: 1.0 is a perfectly balanced spread, N means one queue took
// everything on an N-queue monitor. 0 when nothing was steered.
func (p *PerQueue) Imbalance() float64 {
	total := p.TotalSteered()
	if total == 0 || len(p.steered) == 0 {
		return 0
	}
	var max uint64
	for _, v := range p.steered {
		if v > max {
			max = v
		}
	}
	mean := float64(total) / float64(len(p.steered))
	return float64(max) / mean
}
