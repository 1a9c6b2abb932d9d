// Package hostnic models the conventional software capture stack OSNT
// exists to replace: a commodity NIC with interrupt coalescing feeding a
// kernel/userspace path that timestamps packets when the handler finally
// runs. The gap between that software timestamp and the true arrival —
// coalescing delay plus scheduling jitter, shared by every packet in a
// batch — is the "queueing noise" the paper's MAC-level timestamping
// eliminates (experiment E6).
package hostnic

import (
	"osnt/internal/sim"
	"osnt/internal/wire"
)

// Config parameterises the software stack model.
type Config struct {
	// CoalesceCount delivers an interrupt after this many frames
	// (default 32).
	CoalesceCount int
	// CoalesceTimeout delivers an interrupt this long after the first
	// frame of a batch (default 50 µs, a typical rx-usecs setting).
	CoalesceTimeout sim.Duration
	// Seed feeds the jitter stream.
	Seed uint64
	// Sink receives each packet with its software timestamp and the true
	// arrival instant.
	Sink func(data []byte, swTS, arrival sim.Time)
}

func (c *Config) fill() {
	if c.CoalesceCount == 0 {
		c.CoalesceCount = 32
	}
	if c.CoalesceTimeout == 0 {
		c.CoalesceTimeout = 50 * sim.Microsecond
	}
}

const (
	// irqOverhead is the fixed interrupt-to-handler delay.
	irqOverhead = 4 * sim.Microsecond
	// schedJitterMean is the mean of the exponential scheduling delay
	// before the userspace handler timestamps the batch.
	schedJitterMean = 15 * sim.Microsecond
)

// NIC is one software-timestamping capture interface. It implements
// wire.Endpoint so it can terminate a link exactly like an OSNT port.
type NIC struct {
	engine *sim.Engine
	cfg    Config
	rand   *sim.Rand

	batch     []pending
	timeoutEv sim.Event // the coalescing timer, armed by a batch's first frame
}

type pending struct {
	data    []byte
	arrival sim.Time
}

// New builds a NIC on the engine.
func New(e *sim.Engine, cfg Config) *NIC {
	cfg.fill()
	n := &NIC{engine: e, cfg: cfg, rand: sim.NewRand(cfg.Seed ^ 0x501c)}
	n.timeoutEv = sim.NewEvent(n.fire)
	return n
}

// Receive implements wire.Endpoint: every frame of the run joins the
// interrupt batch at its own arrival instant.
func (n *NIC) Receive(r wire.Run, start, at sim.Time) {
	for w := r.Walk(start, at); w.Next(); {
		data := make([]byte, len(w.Frame.Data))
		copy(data, w.Frame.Data)
		n.batch = append(n.batch, pending{data: data, arrival: w.LastBit})
		if len(n.batch) == 1 {
			n.engine.Arm(&n.timeoutEv, n.engine.Now().Add(n.cfg.CoalesceTimeout))
		}
		if len(n.batch) >= n.cfg.CoalesceCount {
			n.timeoutEv.Cancel()
			n.fire()
		}
	}
}

// fire raises the interrupt: after IRQ overhead plus scheduling jitter
// the handler runs and stamps every batched packet with the same
// software timestamp.
func (n *NIC) fire() {
	if len(n.batch) == 0 {
		return
	}
	batch := n.batch
	n.batch = nil
	delay := irqOverhead + sim.Duration(float64(schedJitterMean)*n.rand.ExpFloat64())
	n.engine.ScheduleAfter(delay, func() {
		ts := n.engine.Now()
		for _, p := range batch {
			if n.cfg.Sink != nil {
				n.cfg.Sink(p.data, ts, p.arrival)
			}
		}
	})
}
