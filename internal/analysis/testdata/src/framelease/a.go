// Package framelease is the corpus for the pooled-frame ownership
// analyzer: leaks on cold error paths, double releases, transfer sinks,
// escapes, deferred releases, and the lint:ignore escape hatch.
package framelease

import "wire"

var errFail = false

// leakOnErrorPath is the PR 5 silent-leak class: the early return forgets
// the frame.
func leakOnErrorPath(p *wire.Pool, l *wire.Link) {
	f := p.Get(64)
	if errFail {
		return // want "pooled f acquired at .* is not released or transferred"
	}
	l.Transmit(wire.One(f), 0)
}

// releasedOnAllPaths is clean: both paths consume.
func releasedOnAllPaths(p *wire.Pool, l *wire.Link) {
	f := p.Get(64)
	if errFail {
		f.Release()
		return
	}
	l.Transmit(wire.One(f), 0)
}

// doubleRelease releases twice on the same path.
func doubleRelease(p *wire.Pool) {
	f := p.Get(64)
	f.Release()
	f.Release() // want "double release of pooled f"
}

// conditionalDouble double-releases only on one path.
func conditionalDouble(p *wire.Pool) {
	f := p.Get(64)
	if errFail {
		f.Release()
	}
	f.Release() // want "double release of pooled f"
}

// transferSink hands the frame to a sink: ownership moves, no report.
func transferSink(p *wire.Pool, l *wire.Link) {
	f := p.Get(128)
	l.Transmit(wire.One(f), 0)
}

// trainTransfer moves a pooled train through the one transmit: Run hands
// the container over as a wire.Run.
func trainTransfer(p *wire.Pool, l *wire.Link) {
	t := p.GetTrain()
	l.Transmit(t.Run(), 0)
}

// trainLeak forgets the container on the empty path.
func trainLeak(p *wire.Pool, l *wire.Link) {
	t := p.GetTrain()
	if errFail {
		return // want "pooled t acquired at .* is not released or transferred"
	}
	t.Recycle()
}

// escapeByReturn transfers ownership to the caller.
func escapeByReturn(p *wire.Pool) *wire.Frame {
	f := p.Get(64)
	return f
}

// escapeByStore parks the frame in a structure; the structure's owner
// inherits the lease.
type holder struct{ f *wire.Frame }

func escapeByStore(p *wire.Pool, h *holder) {
	f := p.Get(64)
	h.f = f
}

// escapeBySliceStore appends into a caller-visible slice.
func escapeBySliceStore(p *wire.Pool, t *wire.Train) {
	f := p.Get(64)
	t.Frames = append(t.Frames, f)
}

// escapeByClosure lets a closure consume the frame later.
func escapeByClosure(p *wire.Pool, run func(func())) {
	f := p.Get(64)
	run(func() { f.Release() })
}

// deferredRelease is the canonical scope-bound lease.
func deferredRelease(p *wire.Pool) {
	f := p.Get(64)
	defer f.Release()
	if errFail {
		return
	}
}

// discarded drops the acquisition on the floor immediately.
func discarded(p *wire.Pool) {
	p.Get(64) // want "discarded without Release or transfer"
}

// overwrittenWhileOwned loses the first frame by reassignment.
func overwrittenWhileOwned(p *wire.Pool) {
	f := p.Get(64)
	f = p.Get(128) // want "reacquired here while the value from .* is still owned"
	f.Release()
}

// loopReacquire is clean: each iteration consumes before reacquiring.
func loopReacquire(p *wire.Pool, l *wire.Link) {
	for i := 0; i < 4; i++ {
		f := p.Get(64)
		l.Transmit(wire.One(f), 0)
	}
}

// loopLeak leaks on the continue path.
func loopLeak(p *wire.Pool, l *wire.Link) {
	for i := 0; i < 4; i++ {
		f := p.Get(64)
		if errFail {
			break
		}
		l.Transmit(wire.One(f), 0)
	}
} // want "pooled f acquired at .* is not released or transferred"

// ignored is a deliberate exception: the directive must suppress the leak
// report on the return below it.
func ignored(p *wire.Pool) bool {
	f := p.Get(64)
	ok := f != nil
	//lint:ignore framelease corpus: frame intentionally abandoned to pin the escape hatch
	return ok
}

// cloneEscape: clones are acquisitions too; returning one is a transfer.
func cloneEscape(f *wire.Frame) *wire.Frame {
	c := f.Clone()
	return c
}

// cloneLeak forgets the clone.
func cloneLeak(f *wire.Frame) {
	c := f.Clone()
	if errFail {
		return // want "pooled c acquired at .* is not released or transferred"
	}
	c.Release()
}

// switchPaths: every case must consume.
func switchPaths(p *wire.Pool, l *wire.Link, mode int) {
	f := p.Get(64)
	switch mode {
	case 0:
		f.Release()
	case 1:
		l.Transmit(wire.One(f), 0)
	default:
		return // want "pooled f acquired at .* is not released or transferred"
	}
}

// panicPath: abnormal exits carry no lease obligation.
func panicPath(p *wire.Pool) {
	f := p.Get(64)
	if errFail {
		panic("fatal")
	}
	f.Release()
}
