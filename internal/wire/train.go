package wire

import (
	"osnt/internal/sim"
)

// Train is a contiguous run of back-to-back frames on one wire: frame
// k+1's first bit follows frame k's last bit with no idle gap beyond the
// standard inter-frame gap (which SerializationTime already accounts
// for). It is the GRO/GSO-style batching unit of the hot path: a
// generator that emits N abutting frames hands the whole run to the link
// as one Run, the link carries it as one in-flight entry drained by one
// event, and every downstream device recovers the exact per-frame
// first-bit/last-bit instants arithmetically from Rate and the frame
// sizes. Coalescing therefore changes how many engine events the run
// costs — never a timestamp, a counter, or a drop decision. A single
// frame is a run of one and travels bare (see Run); a Train holds two or
// more.
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
	// Frames holds the run in wire order.
	Frames []*Frame
	// Rate is the serialization rate of the wire that carried the run;
	// per-frame boundaries inside the train derive from it.
	Rate Rate
	// Uniform reports that every frame carries identical bytes (and
	// hence an identical size and flow digest).
	Uniform bool

	pool *Pool
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

// Run hands the train over as a Run, the one normalisation point: a
// train of one becomes its bare frame and the container goes back to the
// pool, so a Run never carries a train shorter than two. The train must
// hold at least one frame and must not be used afterwards.
func (t *Train) Run() Run {
	if len(t.Frames) != 1 {
		return Run{t: t}
	}
	f := t.Frames[0]
	t.Frames[0] = nil
	t.Frames = t.Frames[:0]
	t.Recycle()
	return Run{f: f}
}

// Run is what one wire delivery carries: a bare frame, or a Train of two
// or more abutting frames. It is held by value — two words, no heap
// object of its own — so a single frame costs no container anywhere on
// the path. Every device takes a Run through one method (Endpoint,
// Link.Transmit, Egress.Push, Exporter.Export); a consumer that cannot
// take a run whole walks it frame by frame (Walk).
//
// Ownership is the frames': whoever holds the Run owns every frame in it
// and, for a train, the container.
type Run struct {
	f *Frame
	t *Train
}

// One is the run of a single frame.
func One(f *Frame) Run { return Run{f: f} }

// Len returns the number of frames in the run.
func (r Run) Len() int {
	if r.t != nil {
		return len(r.t.Frames)
	}
	return 1
}

// Frame returns frame i of the run in wire order.
func (r Run) Frame(i int) *Frame {
	if r.t != nil {
		return r.t.Frames[i]
	}
	return r.f
}

// Train returns the run's train, or nil for a bare frame.
func (r Run) Train() *Train { return r.t }

// Release drops the whole run: every frame returns to its pool and a
// train's container recycles.
func (r Run) Release() {
	if r.t != nil {
		r.t.Release()
		return
	}
	r.f.Release()
}

// Walk is an allocation-free cursor over a run's frames with their
// arrival windows: frames abut, so frame k's first bit arrives the
// instant frame k-1's last bit did, and its last bit one serialisation
// time later at the train's Rate. The walk consumes the run: each Next
// hands Frame to the caller, and the exhausted walk recycles a train's
// container.
//
//	for w := r.Walk(start, at); w.Next(); {
//		consume(w.Frame, w.FirstBit, w.LastBit)
//	}
type Walk struct {
	// Frame is the current frame, owned by the caller once Next returns.
	Frame *Frame
	// FirstBit and LastBit are the current frame's arrival window.
	FirstBit, LastBit sim.Time

	r Run
	i int
}

// Walk starts a cursor over the run whose first frame arrived over
// [start, at].
func (r Run) Walk(start, at sim.Time) Walk {
	return Walk{FirstBit: start, LastBit: at, r: r}
}

// Next advances to the next frame and reports whether there is one.
func (w *Walk) Next() bool {
	t := w.r.t
	if t == nil {
		w.Frame, w.r.f = w.r.f, nil
		return w.Frame != nil
	}
	if w.i == len(t.Frames) {
		t.Frames = t.Frames[:0]
		t.Recycle()
		w.r.t, w.Frame = nil, nil
		return false
	}
	w.Frame = t.Frames[w.i]
	t.Frames[w.i] = nil
	if w.i > 0 {
		w.FirstBit = w.LastBit
		w.LastBit = w.LastBit.Add(SerializationTime(w.Frame.Size, t.Rate))
	}
	w.i++
	return true
}
