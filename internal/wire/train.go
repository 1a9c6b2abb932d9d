package wire

import (
	"osnt/internal/sim"
)

// Train is a contiguous run of back-to-back frames on one wire: frame
// k+1's first bit follows frame k's last bit with no idle gap beyond the
// standard inter-frame gap (which SerializationTime already accounts
// for). It is the GRO/GSO-style batching unit of the hot path: a
// generator that emits N abutting frames hands the whole run to the link
// as one Train, the link carries it as one in-flight entry drained by
// one event, and every downstream device recovers the exact per-frame
// first-bit/last-bit instants arithmetically from Rate and the frame
// sizes. Coalescing therefore changes how many engine events the run
// costs — never a timestamp, a counter, or a drop decision.
//
// A Train never implies anything about frame contents: sizes and bytes
// may vary frame to frame. Uniform marks the special case of
// byte-identical frames (one flow, no per-frame mutation), which lets
// consumers hoist per-flow work — a filter verdict, an RSS hash, an FDB
// lookup — out of the per-frame loop. Consumers that find Uniform false
// simply iterate.
//
// Ownership follows the Frame rule: exactly one component owns the train
// at a time. The owner consumes the frames (forwarding each onward, or
// releasing it) and then returns the container itself with Recycle; the
// Release shorthand drops everything at once. The container and its
// Frames slice recycle through the owning Pool, so steady-state batching
// allocates nothing.
type Train struct {
	// Frames holds the run in wire order; len(Frames) >= 1.
	Frames []*Frame
	// Rate is the serialization rate of the wire that carried the run;
	// per-frame boundaries inside the train derive from it.
	Rate Rate
	// Uniform reports that every frame carries identical bytes (and
	// hence an identical size and flow digest).
	Uniform bool

	pool *Pool
}

// Len returns the number of frames in the run.
func (t *Train) Len() int { return len(t.Frames) }

// Span returns the total wire occupancy of the run at t.Rate.
func (t *Train) Span() sim.Duration {
	var d sim.Duration
	for _, f := range t.Frames {
		d += SerializationTime(f.Size, t.Rate)
	}
	return d
}

// WireBytesTotal returns the summed wire byte times of the run.
func (t *Train) WireBytesTotal() int {
	n := 0
	for _, f := range t.Frames {
		n += WireBytes(f.Size)
	}
	return n
}

// Release drops the whole run: every frame returns to its pool, then the
// container recycles. The terminal-endpoint shorthand.
func (t *Train) Release() {
	for i, f := range t.Frames {
		t.Frames[i] = nil
		f.Release()
	}
	t.Frames = t.Frames[:0]
	t.Recycle()
}

// Recycle returns the container (not the frames) to its pool. Callers
// that consumed the frames individually — forwarded them onward, released
// them one by one — finish with Recycle so the slice's backing array is
// reused by the next train. A no-op on unpooled trains.
func (t *Train) Recycle() {
	if p := t.pool; p != nil {
		t.pool = nil
		p.putTrain(t)
	}
}

// TrainEndpoint is an Endpoint that can accept a whole frame train in
// one delivery. start and at are the first frame's first-bit and
// last-bit arrival instants; later frames' instants follow
// arithmetically at t.Rate. Links probe for it on delivery and fall back
// to per-frame Receive calls (computing those instants themselves) when
// the peer does not implement it, so train traffic works against every
// endpoint and batch-aware endpoints just skip the per-frame events.
type TrainEndpoint interface {
	Endpoint
	ReceiveTrain(t *Train, start, at sim.Time)
}

// TransmitTrain is TransmitAt for a whole back-to-back run, starting no
// earlier than the given instant: the frames serialise consecutively
// (each start clamped by the link's busy horizon, exactly as N
// TransmitAt calls would), but the run occupies a single in-flight entry
// and a single delivery event. It returns the instant the last bit of
// the last frame leaves the sender. The train must be non-empty; a
// train of one degrades to the plain per-frame transmit.
//
//lint:hotpath
func (l *Link) TransmitTrain(t *Train, earliest sim.Time) sim.Time {
	if len(t.Frames) == 1 {
		f := t.Frames[0]
		t.Frames[0] = nil
		t.Frames = t.Frames[:0]
		t.Recycle()
		return l.TransmitAt(f, earliest)
	}
	start := l.startAt(earliest)
	end := start
	for _, f := range t.Frames {
		end = end.Add(SerializationTime(f.Size, l.Rate))
		l.txBytes += uint64(WireBytes(f.Size))
	}
	l.busyUntil = end
	l.txFrames += uint64(len(t.Frames))
	if l.exporter != nil {
		// Boundary link: the whole run transfers to the destination shard
		// as one record; per-frame boundaries replay from Rate there. The
		// record carries the link's delivery key, exactly as a local train
		// delivery event would (it fires at the FIRST frame's arrival).
		t.Rate = l.Rate
		firstEnd := start.Add(SerializationTime(t.Frames[0].Size, l.Rate))
		l.exporter.ExportTrain(t, start.Add(l.Delay), firstEnd.Add(l.Delay), l.deliverPrio)
		return end
	}
	if l.Peer == nil {
		l.drops += uint64(len(t.Frames))
		l.ledger.Report(l.hop, DropUnterminated, uint64(len(t.Frames)))
		t.Release()
		return end
	}
	t.Rate = l.Rate
	// The in-flight entry's window is the FIRST frame's: deliver() walks
	// the later frames' boundaries arithmetically.
	firstEnd := start.Add(SerializationTime(t.Frames[0].Size, l.Rate))
	l.pending.Push(inflight{train: t, firstBit: start.Add(l.Delay), lastBit: firstEnd.Add(l.Delay)})
	if l.pending.Len() == 1 {
		eventAt := firstEnd.Add(l.Delay)
		if now := l.Engine.Now(); eventAt < now {
			eventAt = now
		}
		l.Engine.Arm(&l.deliverEv, eventAt)
	}
	return end
}
