package sim

import "testing"

// TestPropertyHeapChurn drives the engine through a deterministic
// pseudo-random mix of Schedule, NewEvent + SetPrio + Arm, Arm of a known
// event in any state, Cancel and Step, against a reference model that
// records each event's (at, prio, seq, queued, cancelled). Every Step
// must fire the model's minimum live event, at its instant, and the heap
// must stay a valid 4-ary heap with consistent indices and inline keys.
// Instants come from a narrow window ahead of the clock, so same-instant
// ties — broken by priority, then by arming sequence — are common.
func TestPropertyHeapChurn(t *testing.T) {
	type model struct {
		ev                *Event
		at                Time
		prio, seq         uint64
		queued, cancelled bool
	}
	less := func(a, b *model) bool {
		if a.at != b.at {
			return a.at < b.at
		}
		if a.prio != b.prio {
			return a.prio < b.prio
		}
		return a.seq < b.seq
	}
	prios := []uint64{0, 1, 2, PrioDefault}

	e := NewEngine()
	r := NewRand(0xc0ffee)
	var evs []*model
	var seq uint64 // the model's arming sequence
	ran := -1      // index of the event whose callback ran last
	steps := 0
	soon := func() Time { return e.Now().Add(Duration(r.Intn(4))) }
	fn := func() func() {
		i := len(evs)
		return func() { ran = i }
	}
	armed := func(m *model, at Time) {
		m.at, m.seq, m.queued, m.cancelled = at, seq, true, false
		seq++
	}
	step := func() bool {
		// The model's verdict: the minimum live queued event fires, and
		// every cancelled entry ordered before it is popped unfired.
		var next *model
		for _, m := range evs {
			if m.queued && !m.cancelled && (next == nil || less(m, next)) {
				next = m
			}
		}
		for _, m := range evs {
			if m.queued && m.cancelled && (next == nil || less(m, next)) {
				m.queued = false
			}
		}
		ran = -1
		ok := e.Step()
		if ok != (next != nil) {
			t.Fatalf("step %d: Step() = %v, model has a live event: %v", steps, ok, next != nil)
		}
		if !ok {
			return false
		}
		steps++
		next.queued = false
		if ran < 0 || evs[ran] != next {
			t.Fatalf("step %d: fired event %d, model's minimum is (at %v, prio %d, seq %d)", steps, ran, next.at, next.prio, next.seq)
		}
		if e.Now() != next.at {
			t.Fatalf("step %d: clock %v, want %v", steps, e.Now(), next.at)
		}
		return true
	}
	check := func() {
		queued := 0
		for i, m := range evs {
			if m.ev.Pending() != m.queued || m.ev.Cancelled() != m.cancelled {
				t.Fatalf("event %d: Pending() = %v, Cancelled() = %v; model says %v, %v", i, m.ev.Pending(), m.ev.Cancelled(), m.queued, m.cancelled)
			}
			if m.queued {
				queued++
			}
		}
		if e.Pending() != queued {
			t.Fatalf("engine holds %d entries, model %d", e.Pending(), queued)
		}
		// Heap invariant: parent ≤ child at every node of the 4-ary
		// heap, inline keys in sync with the events they denormalise,
		// indices consistent.
		for i := 1; i < len(e.queue); i++ {
			if entryLess(&e.queue[i], &e.queue[(i-1)/4]) {
				t.Fatalf("heap violation at %d", i)
			}
		}
		for i := range e.queue {
			ev := e.queue[i].ev
			if ev.index != i {
				t.Fatalf("index mismatch at %d: %d", i, ev.index)
			}
			if e.queue[i].at != ev.at {
				t.Fatalf("stale inline key at %d", i)
			}
		}
	}
	for op := 0; op < 20000; op++ {
		switch r.Intn(6) {
		case 0: // Schedule: a fresh event at PrioDefault
			m := &model{prio: PrioDefault}
			at := soon()
			m.ev = e.Schedule(at, fn())
			armed(m, at)
			evs = append(evs, m)
		case 1: // NewEvent + SetPrio + Arm
			ev := NewEvent(fn())
			m := &model{ev: &ev, prio: prios[r.Intn(len(prios))]}
			m.ev.SetPrio(m.prio)
			at := soon()
			e.Arm(m.ev, at)
			armed(m, at)
			evs = append(evs, m)
		case 2: // Arm a known event in any state, re-keying it if unqueued
			if len(evs) == 0 {
				continue
			}
			m := evs[r.Intn(len(evs))]
			if !m.queued && r.Intn(2) == 0 {
				m.prio = prios[r.Intn(len(prios))]
				m.ev.SetPrio(m.prio)
			}
			at := soon()
			e.Arm(m.ev, at)
			armed(m, at)
		case 3: // Cancel a known event in any state
			if len(evs) == 0 {
				continue
			}
			m := evs[r.Intn(len(evs))]
			m.ev.Cancel()
			m.cancelled = true
		default:
			step()
		}
		if op%16 == 0 {
			check()
		}
	}
	for step() {
	}
	check()
	if steps < 5000 {
		t.Fatalf("churn fired only %d events", steps)
	}
}

func TestScheduleEveryTicksAndStops(t *testing.T) {
	e := NewEngine()
	var at []Time
	var tk *Ticker
	tk = e.ScheduleEvery(100, 50, func() {
		at = append(at, e.Now())
		if len(at) == 4 {
			tk.Stop()
		}
	})
	e.Run()
	want := []Time{100, 150, 200, 250}
	if len(at) != len(want) {
		t.Fatalf("ticked at %v", at)
	}
	for i := range want {
		if at[i] != want[i] {
			t.Fatalf("ticked at %v, want %v", at, want)
		}
	}
	if e.Pending() != 0 {
		t.Fatalf("%d events left after Stop", e.Pending())
	}
}

// The whole point of ScheduleEvery: a long-running periodic task must not
// allocate per tick.
func TestScheduleEveryZeroAllocPerTick(t *testing.T) {
	e := NewEngine()
	ticks := 0
	e.ScheduleEvery(0, 10, func() { ticks++ })
	e.RunUntil(1000) // warm up
	avg := testing.AllocsPerRun(10, func() {
		e.RunUntil(e.Now().Add(10000)) // 1000 ticks
	})
	if avg > 1 {
		t.Errorf("periodic tick allocates (%.1f allocs per 1000 ticks)", avg)
	}
	if ticks < 1000 {
		t.Fatalf("only %d ticks", ticks)
	}
}
