// Package gen implements the OSNT traffic generation subsystem: PCAP
// replay with a tuneable per-packet inter-departure time, synthetic
// constant-rate/Poisson/bursty/IMIX workloads, finely controlled rates up
// to line rate per port, and per-packet transmit-timestamp embedding at a
// preconfigured packet offset (the mechanism the paper places "just
// before the transmit 10GbE MAC").
package gen

import (
	"bytes"
	"fmt"
	"math"

	"osnt/internal/netfpga"
	"osnt/internal/packet"
	"osnt/internal/pcap"
	"osnt/internal/sim"
	"osnt/internal/stats"
	"osnt/internal/timing"
	"osnt/internal/wire"
)

// Spacing produces successive inter-departure times. Implementations are
// the OSNT rate-control disciplines.
type Spacing interface {
	Next(r *sim.Rand) sim.Duration
}

// CBR emits packets with a constant inter-departure time.
type CBR struct{ Interval sim.Duration }

// Next implements Spacing.
func (c CBR) Next(*sim.Rand) sim.Duration { return c.Interval }

// CBRForLoad returns constant spacing that offers the given fraction of
// line rate for FCS-inclusive frames of size frameSize. load 1.0 is
// exactly line rate; load > 1.0 overruns it (the MAC will clip).
func CBRForLoad(frameSize int, rate wire.Rate, load float64) CBR {
	slot := wire.SerializationTime(frameSize, rate)
	if load <= 0 {
		panic("gen: non-positive load")
	}
	return CBR{Interval: sim.Duration(float64(slot) / load)}
}

// Poisson spaces packets with exponentially distributed gaps of the given
// mean, the classic open-loop arrival model.
type Poisson struct{ Mean sim.Duration }

// Next implements Spacing.
func (p Poisson) Next(r *sim.Rand) sim.Duration {
	return sim.Duration(float64(p.Mean) * r.ExpFloat64())
}

// Source produces the frames to transmit. Next returns nil when the
// stream is exhausted.
type Source interface {
	Next() *wire.Frame
}

// PooledSource is a Source that can write the next frame into a
// caller-provided (typically pool-recycled) frame instead of allocating a
// fresh one. NextInto reports false when the stream is exhausted, leaving
// f untouched. When a Generator has a frame Pool configured and its
// Source implements PooledSource, the per-packet emit path allocates
// nothing.
type PooledSource interface {
	Source
	NextInto(f *wire.Frame) bool
}

// SliceSource replays a fixed list of frames (optionally cyclically).
type SliceSource struct {
	Frames []*wire.Frame
	Loop   bool
	pos    int
}

// Next implements Source. Frames are cloned so in-flight mutation
// (timestamp embedding) cannot corrupt the template.
func (s *SliceSource) Next() *wire.Frame {
	t := s.advance()
	if t == nil {
		return nil
	}
	return t.Clone()
}

// NextInto implements PooledSource.
func (s *SliceSource) NextInto(f *wire.Frame) bool {
	t := s.advance()
	if t == nil {
		return false
	}
	f.CopyFrom(t)
	return true
}

func (s *SliceSource) advance() *wire.Frame {
	if s.pos >= len(s.Frames) {
		if !s.Loop || len(s.Frames) == 0 {
			return nil
		}
		s.pos = 0
	}
	t := s.Frames[s.pos]
	s.pos++
	return t
}

// UDPFlowSource synthesises UDP-in-IPv4 frames cycling across NumFlows
// distinct flows (varying source port), the generator workload used
// throughout the experiments.
type UDPFlowSource struct {
	Spec      packet.UDPSpec
	NumFlows  int
	FrameSize int // FCS-inclusive; 0 keeps Spec.FrameSize
	// Sizes, if non-nil, cycles frame sizes (e.g. IMIX) instead of
	// FrameSize.
	Sizes []int

	built []*wire.Frame
	pos   int
}

// Next implements Source.
func (u *UDPFlowSource) Next() *wire.Frame {
	return u.advance().Clone()
}

// NextInto implements PooledSource. The synthetic stream never ends, so
// it always reports true.
func (u *UDPFlowSource) NextInto(f *wire.Frame) bool {
	f.CopyFrom(u.advance())
	return true
}

func (u *UDPFlowSource) advance() *wire.Frame {
	if u.built == nil {
		n := u.NumFlows
		if n <= 0 {
			n = 1
		}
		sizes := u.Sizes
		if sizes == nil {
			fs := u.FrameSize
			if fs == 0 {
				fs = u.Spec.FrameSize
			}
			if fs == 0 {
				fs = 64
			}
			sizes = []int{fs}
		}
		// Build one template per (flow, size) pair.
		for i := 0; i < n; i++ {
			for _, sz := range sizes {
				spec := u.Spec
				spec.SrcPort = u.Spec.SrcPort + uint16(i)
				spec.FrameSize = sz
				u.built = append(u.built, wire.NewFrame(spec.Build()))
			}
		}
	}
	t := u.built[u.pos%len(u.built)]
	u.pos++
	return t
}

// PCAPSource replays the frames of a capture once, in order. It sets no
// timing: pair it with RecordedSpacing to keep the capture's gaps.
type PCAPSource struct {
	Records []pcap.Record
	pos     int
}

// Next implements Source.
func (p *PCAPSource) Next() *wire.Frame {
	if p.pos >= len(p.Records) {
		return nil
	}
	rec := p.Records[p.pos]
	p.pos++
	data := make([]byte, len(rec.Data))
	copy(data, rec.Data)
	f := &wire.Frame{Data: data, Size: rec.OrigLen + wire.FCSLen}
	if f.Size < len(data)+wire.FCSLen {
		f.Size = len(data) + wire.FCSLen
	}
	return f
}

// RecordedSpacing replays the inter-arrival gaps of a capture, scaled by
// Scale (0 or 1 = as recorded). This is "PCAP replay with a tuneable
// per-packet inter-departure time".
type RecordedSpacing struct {
	Records []pcap.Record
	Scale   float64
	pos     int
}

// Next implements Spacing.
func (r *RecordedSpacing) Next(*sim.Rand) sim.Duration {
	scale := r.Scale
	if scale == 0 {
		scale = 1
	}
	if len(r.Records) < 2 {
		return 0
	}
	i := r.pos
	r.pos++
	if i+1 >= len(r.Records) {
		i = len(r.Records) - 2
	}
	gap := r.Records[i+1].TS.Sub(r.Records[i].TS)
	if gap < 0 {
		gap = 0
	}
	return sim.Duration(float64(gap) * scale)
}

// TimestampLen is the size of the embedded transmit timestamp.
const TimestampLen = 8

// DefaultTimestampOffset places the timestamp at the start of a UDP
// payload (Ethernet 14 + IPv4 20 + UDP 8), OSNT's usual configuration.
const DefaultTimestampOffset = 42

// EmbedTimestamp writes ts into data at the given offset, big-endian
// 32.32 fixed point — the wire format the OSNT extraction logic expects.
func EmbedTimestamp(data []byte, offset int, ts timing.Timestamp) bool {
	if offset < 0 || offset+TimestampLen > len(data) {
		return false
	}
	v := uint64(ts)
	for i := 0; i < 8; i++ {
		data[offset+i] = byte(v >> (56 - 8*i))
	}
	return true
}

// ExtractTimestamp reads a timestamp embedded by EmbedTimestamp.
func ExtractTimestamp(data []byte, offset int) (timing.Timestamp, bool) {
	if offset < 0 || offset+TimestampLen > len(data) {
		return 0, false
	}
	var v uint64
	for i := 0; i < 8; i++ {
		v = v<<8 | uint64(data[offset+i])
	}
	return timing.Timestamp(v), true
}

// Config parameterises a Generator.
type Config struct {
	Source  Source
	Spacing Spacing
	// Count stops the generator after that many packets (0 = until the
	// source is exhausted or Stop is called).
	Count uint64
	// EmbedTimestamp enables per-packet TX timestamp embedding at
	// DefaultTimestampOffset.
	EmbedTimestamp bool
	// Seed feeds the spacing model's random stream.
	Seed uint64
	// Pool, when set, recycles per-packet frames: emit draws frames from
	// it instead of allocating, and downstream terminal endpoints release
	// them back. Works best with a Source implementing PooledSource
	// (plain Sources still allocate inside Next).
	Pool *wire.Pool

	// MaxTrain caps how many consecutive frames the generator coalesces
	// into one wire.Train (default/1 = the per-frame path). Frames join a
	// train only while they abut exactly on the wire — the next departure
	// instant equals the previous frame's serialization end — so anything
	// a train carries is bit-for-bit the traffic the per-frame path would
	// have produced, delivered in a fraction of the engine events.
	// Coalescing needs a Pool plus a PooledSource and an idle MAC at the
	// emit instant; otherwise emission falls back per frame.
	MaxTrain int
	// Until is the emission deadline in virtual time (0 = none): no frame
	// departs after it, and the generator finishes at the first emission
	// instant past it. Callers that bound a run with Engine.RunUntil(D) +
	// Stop must set Until to D when MaxTrain > 1 — train formation looks
	// ahead of the current instant, and the deadline is what keeps it
	// from emitting frames the per-frame path would never have reached.
	Until sim.Time
}

// Generator drives one card port. It owns the port's OnTransmit hook
// while running.
type Generator struct {
	port   *netfpga.Port
	cfg    Config
	rand   *sim.Rand
	pooled PooledSource // non-nil when Pool is set and Source supports it

	sent    stats.Counter
	dropped uint64
	running bool
	next    sim.Event
}

// New builds a generator for the port. The configuration must include a
// Source and a Spacing.
func New(port *netfpga.Port, cfg Config) (*Generator, error) {
	if cfg.Source == nil {
		return nil, fmt.Errorf("gen: no source configured")
	}
	if cfg.Spacing == nil {
		return nil, fmt.Errorf("gen: no spacing configured")
	}
	g := &Generator{port: port, cfg: cfg, rand: sim.NewRand(cfg.Seed ^ 0x05170)}
	g.next = sim.NewEvent(g.emit)
	if cfg.Pool != nil {
		if ps, ok := cfg.Source.(PooledSource); ok {
			g.pooled = ps
		}
	}
	return g, nil
}

// Start begins transmission at instant at (which must not be in the
// past).
func (g *Generator) Start(at sim.Time) {
	e := g.port.Card().Engine
	g.running = true
	if g.cfg.EmbedTimestamp {
		g.port.OnTransmit = func(f *wire.Frame, _ sim.Time, ts timing.Timestamp) {
			EmbedTimestamp(f.Data, DefaultTimestampOffset, ts)
		}
	}
	e.Arm(&g.next, at)
}

// Stop halts the generator after the current packet.
func (g *Generator) Stop() {
	g.running = false
	g.next.Cancel()
}

// emit pulls the next run from the source and hands it to the MAC, then
// re-arms itself at the departure instant of the first frame not in the
// run — the generator's steady state. A run starts as one frame and grows
// into a wire.Train only when coalescing is on (MaxTrain > 1 and a pooled
// source) and the MAC is idle: frames join while they depart back to back
// from the current instant, bounded by MaxTrain, the Until deadline and
// the Count budget. Source frames and spacing draws are consumed in one
// order (frame, then its gap) whatever the run's length, so a run is bit-
// and time-identical to what one emission per frame produces; only the
// event count differs.
//
//lint:hotpath
func (g *Generator) emit() {
	if !g.running {
		return
	}
	e := g.port.Card().Engine
	t := e.Now() // departure instant of the frame being pulled
	until := g.cfg.Until
	if until == 0 {
		until = sim.Time(math.MaxInt64)
	} else if t > until {
		g.finish()
		return
	}
	limit := 1
	var rate wire.Rate
	if g.cfg.MaxTrain > 1 && g.pooled != nil && g.port.TxIdle() {
		limit, rate = g.cfg.MaxTrain, g.port.Link().Rate
	}
	var (
		first   *wire.Frame
		tr      *wire.Train // holds the run once a second frame joins
		n, wb   int
		uniform = true // all frames byte-identical so far
	)
	for g.cfg.Count == 0 || g.sent.Packets+g.dropped+uint64(n) < g.cfg.Count {
		var f *wire.Frame
		if g.pooled != nil {
			f = g.cfg.Pool.Get(0)
			if !g.pooled.NextInto(f) {
				f.Release()
				break
			}
		} else if f = g.cfg.Source.Next(); f == nil {
			break
		}
		switch {
		case n == 0:
			first = f
		case tr == nil:
			tr = g.train(first, f)
		default:
			tr.Frames = append(tr.Frames, f)
		}
		if n > 0 {
			uniform = uniform && f.Size == first.Size && bytes.Equal(f.Data, first.Data)
		}
		n++
		wb += wire.WireBytes(f.Size)
		departs := t
		gap := g.cfg.Spacing.Next(g.rand)
		if gap < 0 {
			gap = 0
		}
		t = t.Add(gap)
		if n >= limit || t > until || t != departs.Add(wire.SerializationTime(f.Size, rate)) {
			break
		}
	}
	if n == 0 {
		// Count exhausted or source dry: the generator finishes here.
		g.finish()
		return
	}
	r := wire.One(first)
	if tr != nil {
		// Timestamp embedding mutates each frame at MAC latch time, so an
		// OnTransmit hook voids byte-uniformity even for a one-flow run.
		tr.Uniform = uniform && g.port.OnTransmit == nil
		r = tr.Run()
	}
	if g.port.Enqueue(r) {
		g.sent.Packets += uint64(n)
		g.sent.Bytes += uint64(wb)
	} else {
		g.dropped += uint64(n)
	}
	// t is the departure instant of the first frame NOT in this run: the
	// next emission, which finishes the generator if it lies past the
	// Until deadline. emit is the callback of g.next itself, which has
	// just fired: re-arming it reuses the one Event for the generator's
	// lifetime.
	e.Arm(&g.next, t)
}

// train starts a pooled train with the run's first two frames.
func (g *Generator) train(first, second *wire.Frame) *wire.Train {
	t := g.cfg.Pool.GetTrain()
	t.Frames = append(t.Frames, first, second)
	return t
}

func (g *Generator) finish() { g.running = false }

// Running reports whether the generator is still scheduled.
func (g *Generator) Running() bool { return g.running }

// Sent returns packets/wire-bytes accepted by the MAC queue.
func (g *Generator) Sent() stats.Counter { return g.sent }

// Dropped returns packets refused by a full TX queue (offered load beyond
// line rate).
func (g *Generator) Dropped() uint64 { return g.dropped }
