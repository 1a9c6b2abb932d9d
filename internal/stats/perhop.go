package stats

// PerHop aggregates one latency histogram per hop index, the reduction
// behind per-hop latency decomposition: a capture sink walks each
// record's hop trace, records the delta to the previous stamp under the
// hop's index, and the experiment reads one distribution per hop. Hop
// indices are dense and small (a chain of N devices uses 0..N-1), so the
// histograms live in a slice grown on first use.
type PerHop struct {
	hists []*Histogram
}

// NewPerHop returns an empty decomposition sized for n hops (further
// hops grow the set on demand).
func NewPerHop(n int) *PerHop {
	p := &PerHop{hists: make([]*Histogram, 0, n)}
	p.grow(n)
	return p
}

func (p *PerHop) grow(n int) {
	for len(p.hists) < n {
		p.hists = append(p.hists, NewHistogram())
	}
}

// Record adds one sample for hop index i (growing the set if needed).
func (p *PerHop) Record(i int, v int64) {
	p.grow(i + 1)
	p.hists[i].Record(v)
}

// Hist returns hop i's histogram, or nil when that hop was never
// recorded.
func (p *PerHop) Hist(i int) *Histogram {
	if i < 0 || i >= len(p.hists) {
		return nil
	}
	return p.hists[i]
}
