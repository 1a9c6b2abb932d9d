// Package wire defines the physical-layer vocabulary shared by every
// simulated device: Ethernet frames, the Run a wire carries in one
// delivery (a bare frame, or a Train of abutting frames), port endpoints,
// point-to-point links with serialization and propagation delay, and the
// Egress every port transmits through (the MAC in front of a link). Each
// layer has one path for both shapes of Run. The arithmetic here is what
// makes "full line-rate regardless of packet size" a checkable property
// rather than a claim: a 10GBASE-R MAC can emit one 64-byte frame every
// 67.2 ns and no simulated component is allowed to beat that.
package wire

import (
	"fmt"

	"osnt/internal/ring"
	"osnt/internal/sim"
)

// Ethernet framing constants. Frame data in this codebase excludes the
// 4-byte FCS; the conventional "frame size" used in benchmarks (64–1518 B)
// includes it, so WireLen adds FCS plus preamble, SFD and the minimum
// inter-frame gap.
const (
	PreambleSFD = 8  // preamble (7 B) + start frame delimiter (1 B)
	FCSLen      = 4  // frame check sequence
	IFG         = 12 // minimum inter-frame gap in byte times

	// PerFrameOverhead is the extra byte times consumed on the wire by
	// each frame beyond its FCS-inclusive size.
	PerFrameOverhead = PreambleSFD + IFG

	// MinFrame and MaxFrame bound the FCS-inclusive Ethernet frame size
	// (untagged).
	MinFrame = 64
	MaxFrame = 1518
)

// Rate is a link speed in bits per second.
type Rate int64

// Standard rates.
const (
	Rate10G  Rate = 10_000_000_000
	Rate40G  Rate = 40_000_000_000
	Rate100G Rate = 100_000_000_000
)

// ByteTime returns the time to serialise one byte at rate r.
func (r Rate) ByteTime() sim.Duration {
	return sim.Duration(8 * picosPerSecond / int64(r))
}

const picosPerSecond = 1_000_000_000_000

// String formats the rate in Gb/s or Mb/s.
func (r Rate) String() string {
	if r >= 1_000_000_000 {
		return fmt.Sprintf("%gGb/s", float64(r)/1e9)
	}
	return fmt.Sprintf("%gMb/s", float64(r)/1e6)
}

// FrameSize returns the FCS-inclusive size of a frame whose payload bytes
// (header through payload, no FCS) are data.
func FrameSize(data []byte) int { return len(data) + FCSLen }

// WireBytes returns the total byte times one frame of FCS-inclusive size
// occupies on the wire, including preamble/SFD and IFG.
func WireBytes(frameSize int) int { return frameSize + PerFrameOverhead }

// SerializationTime returns how long a frame of FCS-inclusive size
// frameSize occupies a link at rate r, including preamble and IFG. For
// 64-byte frames at 10 Gb/s this is exactly 67.2 ns, the 14.88 Mpps
// line-rate figure.
func SerializationTime(frameSize int, r Rate) sim.Duration {
	return sim.Duration(WireBytes(frameSize)) * r.ByteTime()
}

// MaxPPS returns the theoretical maximum packets per second at rate r for
// the given FCS-inclusive frame size.
func MaxPPS(frameSize int, r Rate) float64 {
	return float64(r) / (8 * float64(WireBytes(frameSize)))
}

// MaxHops bounds the per-frame hop trace. Deep enough for any chain the
// experiments measure (E13 tops out at four DUTs); traversals beyond it
// are silently untraced rather than allocating.
const MaxHops = 8

// Hop is one stamped traversal of a forwarding device: the device's hop
// ID and the instant the frame's last bit left its egress port.
type Hop struct {
	Node int
	At   sim.Time
}

// HopTrace is a fixed-capacity record of the forwarding devices a frame
// traversed, stamped by each device's egress path. It is the simulation's
// per-hop instrumentation (the analogue of hardware taps at every hop):
// monitors copy it into capture records so latency can be decomposed hop
// by hop instead of only end to end. Held by value inside Frame, so
// stamping and copying never allocate.
type HopTrace struct {
	stamps [MaxHops]Hop
	n      int
}

// Stamp appends one hop; beyond MaxHops it is dropped.
func (t *HopTrace) Stamp(node int, at sim.Time) {
	if t.n < MaxHops {
		t.stamps[t.n] = Hop{Node: node, At: at}
		t.n++
	}
}

// Len returns the number of recorded hops.
func (t *HopTrace) Len() int { return t.n }

// At returns hop i in traversal order.
func (t *HopTrace) At(i int) Hop { return t.stamps[i] }

// Reset clears the trace.
func (t *HopTrace) Reset() { t.n = 0 }

// Frame is one Ethernet frame in flight. Data excludes the FCS. The Size
// field is the FCS-inclusive frame size, which can exceed len(Data)+4 when
// a monitor has thinned (truncated) the captured bytes but must still
// account for the original wire occupancy.
type Frame struct {
	Data []byte
	Size int // FCS-inclusive original frame size
	// SrcPort is an opaque tag devices may use to remember ingress.
	SrcPort int
	// Trace accumulates per-hop egress timestamps as the frame crosses
	// forwarding devices (see HopTrace).
	Trace HopTrace

	// pool, when non-nil, is where Release returns this frame.
	pool *Pool
}

// NewFrame wraps data (header..payload, no FCS) as a full-length frame.
func NewFrame(data []byte) *Frame {
	return &Frame{Data: data, Size: FrameSize(data)}
}

// Clone returns a deep copy of the frame. Devices that queue frames and
// devices that modify them must not alias each other's buffers. The clone
// is unpooled regardless of the original's origin.
func (f *Frame) Clone() *Frame {
	d := make([]byte, len(f.Data))
	copy(d, f.Data)
	return &Frame{Data: d, Size: f.Size, SrcPort: f.SrcPort, Trace: f.Trace}
}

// CopyFrom overwrites f with t's bytes and metadata, reusing f's buffer
// when it is large enough — the pooled equivalent of t.Clone().
func (f *Frame) CopyFrom(t *Frame) {
	if cap(f.Data) < len(t.Data) {
		f.Data = make([]byte, len(t.Data))
	} else {
		f.Data = f.Data[:len(t.Data)]
	}
	copy(f.Data, t.Data)
	f.Size = t.Size
	f.SrcPort = t.SrcPort
	f.Trace = t.Trace
}

// Release returns a pooled frame to its pool. It is a no-op on unpooled
// frames (and on a second release), so terminal endpoints can call it
// unconditionally. The caller must not touch the frame afterwards.
func (f *Frame) Release() {
	if p := f.pool; p != nil {
		f.pool = nil
		p.put(f)
	}
}

// Endpoint is anything that can accept traffic from a link: a card's RX
// MAC, a switch port, a host NIC.
type Endpoint interface {
	// Receive delivers a run whose first frame's last bit arrived at
	// instant at. start is the instant that frame's first bit arrived,
	// which cut-through devices use to begin forwarding before at; later
	// frames of a train follow arithmetically (Run.Walk). The endpoint
	// owns the run from here. Receive must not arm an event for the
	// present instant with an explicit priority (sim.Event.SetPrio): a
	// zero-delay link runs its sender's transmit-done as soon as Receive
	// returns (Egress.send), and such an event would have fired first.
	// Every device's Receive-time transmit starts no earlier than now, so
	// its keyed delivery lands at least one serialisation later.
	Receive(r Run, start, at sim.Time)
}

// EndpointFunc adapts a per-frame function to the Endpoint interface: a
// run is walked and fn called once per frame with that frame's own
// arrival window.
type EndpointFunc func(f *Frame, start, at sim.Time)

// Receive implements Endpoint.
func (fn EndpointFunc) Receive(r Run, start, at sim.Time) {
	for w := r.Walk(start, at); w.Next(); {
		fn(w.Frame, w.FirstBit, w.LastBit)
	}
}

// Link is a unidirectional point-to-point fibre at a fixed rate with a
// propagation delay. It models the wire: Transmit serialises a run
// (busying the link) and schedules its delivery at the far end, and a run
// offered while the link is busy starts when it frees, so offered load
// beyond line rate is clipped to line rate. The sending MAC — its queue,
// its drop decision and the per-frame work at latch time — is Egress.
type Link struct {
	Engine *sim.Engine
	Rate   Rate
	Delay  sim.Duration // propagation delay
	Peer   Endpoint

	busyUntil sim.Time
	txBytes   uint64 // wire bytes including overhead

	// Loss attribution: a link with no peer is an unterminated fibre —
	// frames serialised into it vanish. That used to be silent; now it
	// is counted and (when a drop site is attached) attributed.
	drops  uint64
	ledger *DropLedger
	hop    int

	// exporter, when non-nil, marks a shard-boundary link: serialisation
	// happens here, delivery happens in another shard (see NewExportLink).
	exporter Exporter

	// deliverPrio is the link's delivery key: the same-instant priority
	// of its delivery event, and of the records an export link hands
	// over. It defaults to sim.PrioDefault (plain FIFO among same-instant
	// events); topo assigns every positive-delay link a unique structural
	// key (SetDeliveryKey), which makes simultaneous arrivals on different
	// cables at one device fire in cable order — a property of the
	// topology, not of arming history, and therefore identical at every
	// shard count.
	deliverPrio uint64

	// pending is the in-flight FIFO: runs serialised but not yet
	// delivered, in departure (= arrival) order. One reusable event —
	// armed at the head's arrival instant — drains it, so a burst of N
	// back-to-back runs occupies a single event-heap slot instead of N.
	// Export links deliver nowhere locally: their event is never built.
	pending   ring.FIFO[inflight]
	deliverEv sim.Event

	// done is the Egress whose transmit-done rides the next delivery:
	// set by Egress.send when that delivery and the transmit-done fall
	// at one instant and priority, run by deliver after the peer's
	// Receive.
	done *Egress
}

// inflight is one run in flight on the link, held by value in the
// pending FIFO. firstBit/lastBit are the first frame's arrival window;
// the rest of a train follows arithmetically.
type inflight struct {
	run               Run
	firstBit, lastBit sim.Time
}

// deliver is the single delivery-event callback: it hands the head run
// to the peer and re-arms for the next pending entry, if any. When an
// Egress left its transmit-done on the link (Egress.send), it runs once
// Receive returns, where its own event would have fired: the two were
// armed back to back for one instant and priority, and only an event
// that Receive arms for the present with an explicit priority could
// sort between them, which Endpoint rules out.
//
//lint:hotpath
func (l *Link) deliver() {
	d := l.pending.Pop()
	// Re-arm before the callback: if the peer transmits on this same link
	// re-entrantly the armed-iff-pending invariant must already hold.
	// Arrival times are non-decreasing along the FIFO, so the next head's
	// instant is never in the past beyond the clamp below.
	if l.pending.Len() > 0 {
		eventAt := l.pending.Peek().lastBit
		if now := l.Engine.Now(); eventAt < now {
			eventAt = now
		}
		l.Engine.Arm(&l.deliverEv, eventAt)
	}
	l.Peer.Receive(d.run, d.firstBit, d.lastBit)
	if e := l.done; e != nil {
		l.done = nil
		e.txDone()
	}
}

// NewLink builds a link on engine e at rate r with propagation delay d,
// delivering into peer.
func NewLink(e *sim.Engine, r Rate, d sim.Duration, peer Endpoint) *Link {
	l := &Link{Engine: e, Rate: r, Delay: d, Peer: peer, deliverPrio: sim.PrioDefault}
	l.deliverEv = sim.NewEvent(l.deliver)
	return l
}

// startAt returns the instant a run offered at earliest starts
// serialising: earliest, or the end of the transmission in progress if
// that is later.
func (l *Link) startAt(earliest sim.Time) sim.Time {
	if l.busyUntil > earliest {
		return l.busyUntil
	}
	return earliest
}

// Transmit serialises the run starting no earlier than earliest and
// returns the instant the last bit of its last frame leaves the sender.
// The frames go out back to back from the later of earliest and the end
// of the transmission in progress, exactly as one transmit per frame
// would, but the run occupies one in-flight entry and is delivered to
// the peer (if any) by one event at its first frame's last-bit arrival.
// earliest may lie in the past relative to the engine clock: an Egress
// uses that to model a cut-through device's serialisation that
// conceptually began while the frame was still arriving. The returned
// instant is exact, and the delivery event is clamped to the present so
// causality in the event queue is preserved.
//
//lint:hotpath
func (l *Link) Transmit(r Run, earliest sim.Time) sim.Time {
	start := l.startAt(earliest)
	n := r.Len()
	f0 := r.Frame(0)
	firstEnd := start.Add(SerializationTime(f0.Size, l.Rate))
	end := firstEnd
	l.txBytes += uint64(WireBytes(f0.Size))
	for i := 1; i < n; i++ {
		f := r.Frame(i)
		end = end.Add(SerializationTime(f.Size, l.Rate))
		l.txBytes += uint64(WireBytes(f.Size))
	}
	l.busyUntil = end
	if t := r.Train(); t != nil {
		t.Rate = l.Rate
	}
	if l.exporter != nil {
		// Boundary link: ownership of the run transfers with the call;
		// the destination shard replays it at the computed instants under
		// this link's delivery key, so it lands in exactly the heap
		// position a local delivery event would occupy.
		l.exporter.Export(r, start.Add(l.Delay), firstEnd.Add(l.Delay), l.deliverPrio)
		return end
	}
	if l.Peer == nil {
		// Unterminated link: the run occupies the wire but nobody
		// receives it. Account the loss and recycle the frames.
		l.drops += uint64(n)
		l.ledger.Report(l.hop, DropUnterminated, uint64(n))
		r.Release()
		return end
	}
	lastBit := firstEnd.Add(l.Delay)
	l.pending.Push(inflight{run: r, firstBit: start.Add(l.Delay), lastBit: lastBit})
	// Runs joining a burst ride the already-armed event; only the first
	// run of a burst arms it.
	if l.pending.Len() == 1 {
		if now := l.Engine.Now(); lastBit < now {
			lastBit = now
		}
		l.Engine.Arm(&l.deliverEv, lastBit)
	}
	return end
}

// SetDeliveryKey assigns the link's structural delivery key: the
// same-instant priority of its delivery event (sim.Event.SetPrio), or of
// the records an export link hands over. Topology builders assign a
// unique key per positive-delay link in build order, before any traffic,
// which totally orders simultaneous arrivals at a device by cable rather
// than by arming history. Links without a key keep sim.PrioDefault —
// plain FIFO.
func (l *Link) SetDeliveryKey(key uint64) {
	l.deliverPrio = key
	if l.exporter == nil {
		l.deliverEv.SetPrio(key)
	}
}

// SetDropSite attaches the scenario's loss-attribution ledger: drops on
// this link (unterminated-fibre frames) report as (hop, reason) into it.
func (l *Link) SetDropSite(ledger *DropLedger, hop int) {
	l.ledger, l.hop = ledger, hop
}

// Drops returns frames lost to an unterminated link (no peer).
func (l *Link) Drops() uint64 { return l.drops }

// Utilisation returns the fraction of the interval [0, t] the link spent
// serialising.
func (l *Link) Utilisation(t sim.Time) float64 {
	if t <= 0 {
		return 0
	}
	used := sim.Duration(l.txBytes) * l.Rate.ByteTime()
	return float64(used) / float64(t.Sub(0))
}
