package wire

import (
	"osnt/internal/ring"
	"osnt/internal/sim"
)

// Latcher is the device side of an Egress: the per-frame work a port does
// at the instant its MAC takes a frame (latch a TX timestamp, stamp the
// hop trace, count). The port implements it, so attaching it to an Egress
// stores a pointer in an interface and allocates nothing.
type Latcher interface {
	// Latch is called once per frame, in wire order, before the link
	// takes the frame: start is the instant its first bit starts
	// serialising and end the instant its last bit leaves. The frame
	// still belongs to the device here; once Latch returns the link owns
	// it. Latch must not arm events or transmit on the Egress's link.
	Latch(f *Frame, start, end sim.Time)
}

// Egress is a port's transmit side: a FIFO bounded in frames whose
// entries — each one Run, a bare frame or a whole train — keep their own
// earliest departure instant, drained onto one Link by a MAC that
// serialises one entry at a time. An entry leaves at the later of its
// earliest instant and the end of the previous transmission, a train
// back-to-back in one MAC pass. At most one transmission is in flight,
// and steady-state transmission allocates nothing. Its end — the
// transmit-done, which frees the MAC for the next entry — is either one
// reusable event, or, when the link's delivery of a bare frame falls at
// that same instant and priority, the tail of that delivery (see send).
//
// A device port holds one by value. The Egress embeds its event, so it
// must be initialised in place with Init and not copied afterwards.
type Egress struct {
	link   *Link
	engine *sim.Engine
	owner  Latcher

	queue  ring.FIFO[egressEntry]
	frames int // frames queued; a train entry carries many
	cap    int
	busy   bool

	drops  uint64
	ledger *DropLedger
	hop    int

	txDoneEv sim.Event
}

// egressEntry is one queued run, held by value.
type egressEntry struct {
	run      Run
	earliest sim.Time
}

// Init prepares e in place: capFrames bounds the queue in frames, owner
// latches every frame, and the transmit-done event is built on engine
// en. Call it once, from the owning device's constructor.
func (e *Egress) Init(en *sim.Engine, capFrames int, owner Latcher) {
	e.engine, e.cap, e.owner = en, capFrames, owner
	e.txDoneEv = sim.NewEvent(e.txDone)
}

// SetLink attaches the link the MAC drains onto.
func (e *Egress) SetLink(l *Link) { e.link = l }

// Link returns the attached link (nil until SetLink).
func (e *Egress) Link() *Link { return e.link }

// SetDropSite attaches the scenario's loss-attribution ledger: queue
// overflows report as (hop, reason) into it.
func (e *Egress) SetDropSite(ledger *DropLedger, hop int) {
	e.ledger, e.hop = ledger, hop
}

// Idle reports whether the MAC is between transmissions with an empty
// queue: a train pushed now leaves at once, in order.
func (e *Egress) Idle() bool { return !e.busy && e.queue.Len() == 0 }

// Frames returns the frames waiting in the queue (not the one on the
// wire).
func (e *Egress) Frames() int { return e.frames }

// Drops returns frames lost to queue overflow.
func (e *Egress) Drops() uint64 { return e.drops }

// Push queues run r to leave no earlier than earliest, which may lie in
// the past (cut-through). The Egress owns r from here. The entry is
// refused when Frames() has reached the capacity before the push,
// whatever its length: the per-frame tail-drop rule. Callers coalesce a
// train only inside a margin that keeps that rule out of reach (an idle
// MAC, or a bound on Frames), so a train never overflows where its
// frames one by one would not. A refused entry counts and reports every
// frame under (hop, reason), releases them, and returns false.
//
//lint:hotpath
func (e *Egress) Push(r Run, earliest sim.Time, reason DropReason) bool {
	n := r.Len()
	if e.frames >= e.cap {
		e.drops += uint64(n)
		e.ledger.Report(e.hop, reason, uint64(n))
		r.Release()
		return false
	}
	e.queue.Push(egressEntry{run: r, earliest: earliest})
	e.frames += n
	e.send()
	return true
}

// send starts the head entry when the MAC is free: it latches every frame
// at its serialisation instants, hands the run to the link (which arms
// its delivery), then arms the transmit-done event at the end of the
// run, clamped to the present.
//
// A bare frame on a zero-delay, unkeyed local link, alone in flight,
// arms no transmit-done: Transmit has just armed its delivery for the
// run's end at the default priority, so the transmit-done would be armed
// for the same instant and priority with the next sequence number and
// fire right after it. The Egress leaves itself on the link instead, and
// Link.deliver runs txDone once the peer's Receive returns. Delayed
// links fail the first comparison, and so do keyed links as topo builds
// them; a train fails the second, since its delivery is armed at its
// first frame's last bit; export and unterminated links put nothing in
// flight.
//
//lint:hotpath
func (e *Egress) send() {
	if e.busy || e.queue.Len() == 0 {
		return
	}
	q := e.queue.Pop()
	e.busy = true
	l := e.link
	n := q.run.Len()
	e.frames -= n
	start := l.startAt(q.earliest)
	for i := 0; i < n; i++ {
		f := q.run.Frame(i)
		next := start.Add(SerializationTime(f.Size, l.Rate))
		e.owner.Latch(f, start, next)
		start = next
	}
	end := l.Transmit(q.run, q.earliest)
	if l.Delay == 0 && n == 1 && l.deliverPrio == sim.PrioDefault && l.pending.Len() == 1 {
		l.done = e
		return
	}
	if now := e.engine.Now(); end < now {
		end = now
	}
	e.engine.Arm(&e.txDoneEv, end)
}

func (e *Egress) txDone() {
	e.busy = false
	e.send()
}
