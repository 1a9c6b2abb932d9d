// Package wire defines the physical-layer vocabulary shared by every
// simulated device: Ethernet frames, port endpoints, point-to-point links
// with serialization and propagation delay, and the Egress every port
// transmits through (the MAC in front of a link). The arithmetic here is
// what makes "full line-rate regardless of packet size" a checkable
// property rather than a claim: a 10GBASE-R MAC can emit one 64-byte frame
// every 67.2 ns and no simulated component is allowed to beat that.
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
	Rate1G   Rate = 1_000_000_000
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

// Endpoint is anything that can accept a frame from a link: a card's RX
// MAC, a switch port, a host NIC.
type Endpoint interface {
	// Receive delivers a frame whose last bit arrived at instant at.
	// start is the instant the first bit arrived, which cut-through
	// devices use to begin forwarding before at.
	Receive(f *Frame, start, at sim.Time)
}

// EndpointFunc adapts a function to the Endpoint interface.
type EndpointFunc func(f *Frame, start, at sim.Time)

// Receive implements Endpoint.
func (fn EndpointFunc) Receive(f *Frame, start, at sim.Time) { fn(f, start, at) }

// Link is a unidirectional point-to-point fibre at a fixed rate with a
// propagation delay. It models the wire: Transmit serialises a frame
// (busying the link) and schedules delivery at the far end, and a frame
// offered while the link is busy starts when it frees, so offered load
// beyond line rate is clipped to line rate. The sending MAC — its queue,
// its drop decision and the per-frame work at latch time — is Egress.
type Link struct {
	Engine *sim.Engine
	Rate   Rate
	Delay  sim.Duration // propagation delay
	Peer   Endpoint

	busyUntil sim.Time
	txFrames  uint64
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

	// pending is the in-flight FIFO: frames serialised but not yet
	// delivered, in departure (= arrival) order. One reusable event —
	// armed at the head's arrival instant — drains it, so a burst of N
	// back-to-back frames occupies a single event-heap slot instead of N.
	// Export links deliver nowhere locally: their event is never built.
	pending   ring.FIFO[inflight]
	deliverEv sim.Event
}

// inflight is one frame — or one whole frame train — in flight on the
// link, held by value in the pending FIFO. For a train, firstBit/lastBit
// are the first frame's window; the rest follow arithmetically.
type inflight struct {
	f                 *Frame
	train             *Train // non-nil: a coalesced run, f unused
	firstBit, lastBit sim.Time
}

// deliver is the single delivery-event callback: it hands the head entry
// (one frame, or one whole train) to the peer and re-arms for the next
// pending entry, if any.
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
	if d.train == nil {
		l.Peer.Receive(d.f, d.firstBit, d.lastBit)
		return
	}
	DeliverTrain(l.Peer, d.train, d.firstBit, d.lastBit)
}

// NewLink builds a link on engine e at rate r with propagation delay d,
// delivering into peer.
func NewLink(e *sim.Engine, r Rate, d sim.Duration, peer Endpoint) *Link {
	l := &Link{Engine: e, Rate: r, Delay: d, Peer: peer, deliverPrio: sim.PrioDefault}
	l.deliverEv = sim.NewEvent(l.deliver)
	return l
}

// Transmit queues the frame for serialisation at the earliest instant the
// link is free and returns the time the last bit leaves the sender. The
// frame is delivered to the peer (if any) after the propagation delay.
//
//lint:hotpath
func (l *Link) Transmit(f *Frame) sim.Time {
	return l.TransmitAt(f, l.Engine.Now())
}

// startAt returns the instant a frame offered at earliest starts
// serialising: earliest, or the end of the transmission in progress if
// that is later.
func (l *Link) startAt(earliest sim.Time) sim.Time {
	if l.busyUntil > earliest {
		return l.busyUntil
	}
	return earliest
}

// TransmitAt is Transmit with an explicit earliest start instant, which
// may lie in the past relative to the engine clock. An Egress uses this to
// model a cut-through device's serialisation that conceptually began while
// the frame was still arriving: the returned last-bit time is exact, and
// the delivery event is clamped to the present so causality in the event
// queue is preserved.
//
//lint:hotpath
func (l *Link) TransmitAt(f *Frame, earliest sim.Time) sim.Time {
	start := l.startAt(earliest)
	end := start.Add(SerializationTime(f.Size, l.Rate))
	l.busyUntil = end
	l.txFrames++
	l.txBytes += uint64(WireBytes(f.Size))
	if l.exporter != nil {
		// Boundary link: ownership of the frame transfers with the call;
		// the destination shard replays it at the computed instants under
		// this link's delivery key, so it lands in exactly the heap
		// position a local delivery event would occupy.
		l.exporter.ExportFrame(f, start.Add(l.Delay), end.Add(l.Delay), l.deliverPrio)
		return end
	}
	if l.Peer == nil {
		// Unterminated link: the frame occupies the wire but nobody
		// receives it. Account the loss and recycle the frame.
		l.drops++
		l.ledger.Report(l.hop, DropUnterminated, 1)
		f.Release()
		return end
	}
	firstBit := start.Add(l.Delay)
	lastBit := end.Add(l.Delay)
	l.pending.Push(inflight{f: f, firstBit: firstBit, lastBit: lastBit})
	// Frames joining a burst ride the already-armed event; only the
	// first frame of a burst arms it.
	if l.pending.Len() == 1 {
		eventAt := lastBit
		if now := l.Engine.Now(); eventAt < now {
			eventAt = now
		}
		l.Engine.Arm(&l.deliverEv, eventAt)
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

// DeliveryKey returns the link's structural delivery key.
func (l *Link) DeliveryKey() uint64 { return l.deliverPrio }

// SetDropSite attaches the scenario's loss-attribution ledger: drops on
// this link (unterminated-fibre frames) report as (hop, reason) into it.
func (l *Link) SetDropSite(ledger *DropLedger, hop int) {
	l.ledger, l.hop = ledger, hop
}

// Drops returns frames lost to an unterminated link (no peer).
func (l *Link) Drops() uint64 { return l.drops }

// InFlight returns the number of frames serialised but not yet delivered
// to the peer. However deep the burst, it is drained by a single pending
// engine event.
func (l *Link) InFlight() int { return l.pending.Len() }

// Busy reports whether the link is still serialising at instant t.
func (l *Link) Busy(t sim.Time) bool { return l.busyUntil > t }

// BusyUntil returns the instant the current transmission completes.
func (l *Link) BusyUntil() sim.Time { return l.busyUntil }

// TxFrames returns the number of frames transmitted.
func (l *Link) TxFrames() uint64 { return l.txFrames }

// TxWireBytes returns the cumulative wire occupancy in byte times.
func (l *Link) TxWireBytes() uint64 { return l.txBytes }

// Utilisation returns the fraction of the interval [0, t] the link spent
// serialising.
func (l *Link) Utilisation(t sim.Time) float64 {
	if t <= 0 {
		return 0
	}
	used := sim.Duration(l.txBytes) * l.Rate.ByteTime()
	return float64(used) / float64(t.Sub(0))
}

// Connect builds the two unidirectional links of a full-duplex cable
// between endpoints a and b, returning the a→b and b→a links.
func Connect(e *sim.Engine, r Rate, delay sim.Duration, a, b Endpoint) (ab, ba *Link) {
	return NewLink(e, r, delay, b), NewLink(e, r, delay, a)
}
