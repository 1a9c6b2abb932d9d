package sim

import (
	"fmt"
)

// Event is a callback on the engine's timeline. NewEvent builds one and
// Engine.Arm queues it; an Event that has fired, or was cancelled and
// popped, can be armed again, and one still queued is re-keyed in place.
// Components that fire the same work repeatedly keep one Event in their
// own struct for their lifetime; Schedule builds a fresh one for one-off
// work. Cancel stops a queued event from firing (for example a
// retransmit timer).
type Event struct {
	at Time
	// prio orders events due at the same instant: lower fires first, and
	// PrioDefault — what NewEvent assigns — sorts last, leaving those
	// events in FIFO (seq) order. Explicit priorities (SetPrio) exist for
	// events whose same-instant order must be a structural property of
	// the scenario rather than an accident of arming history: wire link
	// deliveries on delayed cables carry the link's topology-assigned key
	// here, which is what lets the sharded runtime (internal/shard)
	// replay cross-shard arrivals byte-exactly.
	prio   uint64
	seq    uint64 // tie-break: FIFO among events at the same (at, prio)
	fn     func()
	index  int // heap index, -1 while not queued
	cancel bool
}

// PrioDefault is the priority NewEvent assigns: it sorts after every
// explicit priority, so same-instant events without one fire in the
// order they were armed.
const PrioDefault = ^uint64(0)

// NewEvent returns an unqueued event that runs fn when it fires, with
// priority PrioDefault. It returns the Event by value so the component
// that owns it can keep it in its own struct, built with the component
// at no allocation of its own, and arm it through its address. Arm
// queues it; an armed Event must not be copied.
func NewEvent(fn func()) Event {
	return Event{prio: PrioDefault, fn: fn, index: -1}
}

// SetPrio sets the event's same-instant priority: among events due at one
// instant, lower prio fires first and PrioDefault fires last. Setting it
// on a queued event panics, since changing the key of a queued event
// would corrupt the heap.
func (ev *Event) SetPrio(p uint64) {
	if ev.index != -1 {
		panic("sim: SetPrio on a queued event")
	}
	ev.prio = p
}

// At returns the instant the event is scheduled for.
func (ev *Event) At() Time { return ev.at }

// Cancel prevents a pending event from firing. Cancelling an event that
// already fired (or was already cancelled) is a no-op.
func (ev *Event) Cancel() { ev.cancel = true }

// Cancelled reports whether Cancel was called on the event.
func (ev *Event) Cancelled() bool { return ev.cancel }

// Pending reports whether the event is still in the queue waiting to
// fire (a cancelled-but-unpopped event still counts as pending).
func (ev *Event) Pending() bool { return ev.index != -1 }

// The event queue is a 4-ary min-heap over (at, prio, seq): time first,
// then explicit priority, then arming sequence. Events without an
// explicit priority carry PrioDefault, so among themselves they fire in
// FIFO order — deterministic ordering is essential: experiment results
// must not depend on map or heap tie-breaking accidents. Explicit
// priorities order same-instant events by a structural key of the
// scenario (a delayed link's topology ordinal) instead of arming
// history, which is what makes a partitioned run (internal/shard)
// reproduce a single-engine run to the byte.
//
// The heap is hand-inlined rather than built on container/heap: that
// package moves every element through `any` and dispatches every
// comparison through an interface table, which costs real time on a path
// crossed once per armed event. Each heap entry additionally carries
// the event's instant inline, so the sift loops decide the common
// earlier/later case from contiguous slice memory and only dereference
// two scattered Events on an exact-instant tie — at fat-tree queue
// depths the pointer chase was the single hottest line in the whole
// simulator. The heap is 4-ary rather than binary: a pop's sift-down
// touches half the levels, and with 16-byte entries the four children it
// scans per level sit in a single cache line, so the extra compares are
// nearly free next to the misses they replace. The loops hole-shift: the
// moving entry stays in registers while the others shift into the hole,
// halving the stores of a swap-based sift.

// heapEntry is one queued event with its arrival instant denormalised
// alongside the pointer: the sift loops and the RunUntil horizon check
// read contiguous slice memory for the common earlier/later verdict and
// only dereference the Events on an exact-instant tie (broken by prio,
// then seq). The instant is authoritative while queued: Arm rewrites a
// queued Event's fields and then re-keys its entry via fix.
type heapEntry struct {
	at Time
	ev *Event
}

// entryKey builds ev's heap entry from its current sort key.
func entryKey(ev *Event) heapEntry {
	return heapEntry{at: ev.at, ev: ev}
}

// entryLess orders the heap: earlier instant first, then lower explicit
// priority, then FIFO by insertion sequence.
func entryLess(a, b *heapEntry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	ea, eb := a.ev, b.ev
	if ea.prio != eb.prio {
		return ea.prio < eb.prio
	}
	return ea.seq < eb.seq
}

// push appends ev to the queue and sifts it up to its heap position.
func (e *Engine) push(ev *Event) {
	q := append(e.queue, entryKey(ev))
	i := len(q) - 1
	entry := q[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !entryLess(&entry, &q[parent]) {
			break
		}
		q[i] = q[parent]
		q[i].ev.index = i
		i = parent
	}
	q[i] = entry
	entry.ev.index = i
	e.queue = q
}

// pop removes and returns the minimum event, marking it popped.
func (e *Engine) pop() *Event {
	q := e.queue
	min := q[0].ev
	min.index = -1
	n := len(q) - 1
	last := q[n]
	q[n].ev = nil
	e.queue = q[:n]
	if n > 0 {
		e.siftDown(last, 0)
	}
	return min
}

// siftDown places entry at heap index i and sinks it until no child is
// smaller.
func (e *Engine) siftDown(entry heapEntry, i int) {
	q := e.queue
	n := len(q)
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		end := c + 4
		if end > n {
			end = n
		}
		m := c
		for j := c + 1; j < end; j++ {
			if entryLess(&q[j], &q[m]) {
				m = j
			}
		}
		if !entryLess(&q[m], &entry) {
			break
		}
		q[i] = q[m]
		q[i].ev.index = i
		i = m
	}
	q[i] = entry
	entry.ev.index = i
}

// fix re-keys the entry holding ev (whose at/seq just changed) and
// re-establishes heap order: sift up first, and only if the entry did
// not move, down.
func (e *Engine) fix(ev *Event) {
	q := e.queue
	start := ev.index
	entry := entryKey(ev)
	i := start
	for i > 0 {
		parent := (i - 1) / 4
		if !entryLess(&entry, &q[parent]) {
			break
		}
		q[i] = q[parent]
		q[i].ev.index = i
		i = parent
	}
	if i != start {
		q[i] = entry
		entry.ev.index = i
		return
	}
	e.siftDown(entry, i)
}

// Engine is a single-threaded discrete-event simulator. The zero value is
// not ready to use; construct one with NewEngine.
//
// Engine is deliberately not safe for concurrent use: OSNT's hardware
// pipelines are modelled as a causal sequence of events, and determinism is
// a design requirement (see "The determinism contract" in
// docs/ARCHITECTURE.md).
type Engine struct {
	now   Time
	queue []heapEntry
	seq   uint64
	fired uint64
}

// NewEngine returns an engine with its clock at instant 0 and an empty
// event queue.
func NewEngine() *Engine {
	return &Engine{}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Pending returns the number of events waiting to fire.
func (e *Engine) Pending() int { return len(e.queue) }

// Fired returns the total number of events executed so far. Useful for
// workload accounting in benchmarks.
func (e *Engine) Fired() uint64 { return e.fired }

// Arm queues ev to fire at instant at. It is the only way an event
// enters the queue. A fired or popped event is pushed; a queued one,
// cancelled or not, is re-keyed in place. Either way the cancel flag
// clears and the event takes the next sequence number, so it fires after
// everything already armed for the same (at, prio) — where a fresh event
// would land. Arming in the past panics: it would mean a component
// violated causality, which is always a bug.
func (e *Engine) Arm(ev *Event, at Time) {
	if at < e.now {
		panic(fmt.Sprintf("sim: arm at %v before now %v", at, e.now))
	}
	ev.at = at
	ev.seq = e.seq
	ev.cancel = false
	e.seq++
	if ev.index == -1 {
		e.push(ev)
	} else {
		e.fix(ev)
	}
}

// Schedule queues fn to run at instant at, on a fresh event: NewEvent
// followed by Arm.
func (e *Engine) Schedule(at Time, fn func()) *Event {
	ev := NewEvent(fn)
	e.Arm(&ev, at)
	return &ev
}

// ScheduleAfter queues fn to run d after the current instant. A negative d
// panics.
func (e *Engine) ScheduleAfter(d Duration, fn func()) *Event {
	return e.Schedule(e.now.Add(d), fn)
}

// Step executes the next pending event, advancing the clock to its instant.
// It returns false when the queue is empty. Cancelled events are discarded
// without advancing the clock.
func (e *Engine) Step() bool {
	for len(e.queue) > 0 {
		ev := e.pop()
		if ev.cancel {
			continue
		}
		e.now = ev.at
		e.fired++
		ev.fn()
		return true
	}
	return false
}

// Run executes events until the queue is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events up to and including instant t, then sets the
// clock to t. Events scheduled after t remain queued.
func (e *Engine) RunUntil(t Time) {
	for len(e.queue) > 0 && e.queue[0].at <= t {
		ev := e.pop()
		if ev.cancel {
			continue
		}
		e.now = ev.at
		e.fired++
		ev.fn()
	}
	if e.now < t {
		e.now = t
	}
}

// Peek returns the instant of the next pending event without executing
// it.
func (e *Engine) Peek() (Time, bool) { return e.peek() }

func (e *Engine) peek() (Time, bool) {
	for len(e.queue) > 0 {
		if e.queue[0].ev.cancel {
			e.pop()
			continue
		}
		return e.queue[0].at, true
	}
	return 0, false
}

// ScheduleEvery schedules fn at t0, t0+period, t0+2*period, ... until the
// returned Ticker is stopped; fn observes the engine clock at each firing.
// It is the allocation-free periodic primitive: one Event (and one
// callback closure) is reused for every tick, so a CBR source ticking
// 14.88 M times per simulated second costs the event heap nothing beyond
// its single long-lived entry.
func (e *Engine) ScheduleEvery(t0 Time, period Duration, fn func()) *Ticker {
	if period <= 0 {
		panic("sim: non-positive ticker period")
	}
	t := &Ticker{engine: e, period: period, fn: fn}
	t.ev = NewEvent(t.fire)
	e.Arm(&t.ev, t0)
	return t
}

// Ticker repeatedly fires a callback at a fixed virtual-time period. The
// underlying Event is reused across firings (see ScheduleEvery).
type Ticker struct {
	engine  *Engine
	period  Duration
	fn      func()
	ev      Event
	stopped bool
}

func (t *Ticker) fire() {
	if t.stopped {
		return
	}
	t.fn()
	if !t.stopped { // fn may have stopped the ticker
		t.engine.Arm(&t.ev, t.engine.now.Add(t.period))
	}
}

// Stop cancels future firings.
func (t *Ticker) Stop() {
	t.stopped = true
	t.ev.Cancel()
}
