package sim

import "testing"

// TestRescheduleReusesEvent re-arms an event from its own callback: one
// Event serves every firing.
func TestRescheduleReusesEvent(t *testing.T) {
	e := NewEngine()
	var fired []Time
	var ev *Event
	ev = e.Schedule(10, func() {
		fired = append(fired, e.Now())
		if len(fired) < 3 {
			e.Arm(ev, e.Now().Add(5))
		}
	})
	e.Run()
	if len(fired) != 3 || fired[0] != 10 || fired[1] != 15 || fired[2] != 20 {
		t.Fatalf("fired at %v", fired)
	}
}

// TestReprogramFiredRearms arms an event that already fired (index -1):
// it is pushed like a fresh one.
func TestReprogramFiredRearms(t *testing.T) {
	e := NewEngine()
	count := 0
	var ev *Event
	ev = e.Schedule(10, func() {
		count++
		if count == 1 {
			e.Arm(ev, e.Now().Add(5))
		}
	})
	e.Run()
	if count != 2 {
		t.Fatalf("fired %d times, want 2", count)
	}
}

// TestArmQueuedEventFiresOnce arms an event that is still queued: it is
// re-keyed in place rather than pushed a second time, so the queue holds
// it once and it fires once, at the new instant.
func TestArmQueuedEventFiresOnce(t *testing.T) {
	e := NewEngine()
	var fired []Time
	ev := e.Schedule(10, func() { fired = append(fired, e.Now()) })
	e.Arm(ev, 20)
	if e.Pending() != 1 || !ev.Pending() {
		t.Fatalf("queue holds %d entries after re-arm, want 1", e.Pending())
	}
	e.Run()
	if len(fired) != 1 || fired[0] != 20 {
		t.Fatalf("fired at %v, want exactly [20]", fired)
	}
}

// TestReprogramPendingRekeys moves a queued event earlier and then later
// again: it fires exactly once, at the final instant, without a
// cancel/re-create pair.
func TestReprogramPendingRekeys(t *testing.T) {
	e := NewEngine()
	var fired []Time
	ev := e.Schedule(100, func() { fired = append(fired, e.Now()) })
	e.Arm(ev, 40) // pull earlier
	e.Arm(ev, 70) // push later again
	e.Run()
	if len(fired) != 1 || fired[0] != 70 {
		t.Fatalf("fired at %v, want exactly [70]", fired)
	}
}

// TestReprogramRevivesCancelledQueuedEvent arms a cancelled event still
// sitting in the queue: it is re-keyed and un-cancelled in place, so it
// fires at the new instant.
func TestReprogramRevivesCancelledQueuedEvent(t *testing.T) {
	e := NewEngine()
	var fired []Time
	ev := e.Schedule(10, func() { fired = append(fired, e.Now()) })
	ev.Cancel()
	e.Arm(ev, 25)
	if ev.Cancelled() {
		t.Fatal("Arm left the event cancelled")
	}
	e.Run()
	if len(fired) != 1 || fired[0] != 25 {
		t.Fatalf("fired at %v, want exactly [25]", fired)
	}
}

// TestRescheduleAfterCancelRearms arms a cancelled event after the engine
// popped it without firing: it is pushed again with the flag cleared.
func TestRescheduleAfterCancelRearms(t *testing.T) {
	e := NewEngine()
	count := 0
	ev := e.Schedule(10, func() { count++ })
	ev.Cancel()
	e.Run() // pops the cancelled event without firing
	if count != 0 {
		t.Fatal("cancelled event fired")
	}
	e.Arm(ev, e.Now().Add(1))
	e.Run()
	if count != 1 {
		t.Fatalf("re-armed event fired %d times", count)
	}
}

// TestReprogramOrdersAfterSameInstant checks the FIFO contract: an armed
// event takes a fresh sequence number, so it runs after events already
// armed for the same instant — exactly where a fresh event would land.
func TestReprogramOrdersAfterSameInstant(t *testing.T) {
	e := NewEngine()
	var order []string
	ev := e.Schedule(10, func() { order = append(order, "moved") })
	e.Schedule(50, func() { order = append(order, "resident") })
	e.Arm(ev, 50)
	e.Run()
	if len(order) != 2 || order[0] != "resident" || order[1] != "moved" {
		t.Fatalf("order = %v, want [resident moved]", order)
	}
}

// TestReschedulePastPanics arms the firing event, from its own callback,
// before the current instant.
func TestReschedulePastPanics(t *testing.T) {
	e := NewEngine()
	var ev *Event
	ev = e.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("no panic arming into the past")
			}
		}()
		e.Arm(ev, 5)
	})
	e.Run()
}

// TestReprogramPastPanics checks that a queued and an already-fired event
// alike refuse to move into the past.
func TestReprogramPastPanics(t *testing.T) {
	e := NewEngine()
	fired := e.Schedule(10, func() {})
	queued := e.Schedule(100, func() {})
	e.Schedule(20, func() {
		for _, ev := range []*Event{fired, queued} {
			func() {
				defer func() {
					if recover() == nil {
						t.Error("no panic arming into the past")
					}
				}()
				e.Arm(ev, 5)
			}()
		}
	})
	e.Run()
}

// TestSetPrioQueuedPanics: a queued event's key must not change under the
// heap, so SetPrio refuses it; an unqueued event takes the new priority.
func TestSetPrioQueuedPanics(t *testing.T) {
	e := NewEngine()
	var order []string
	ev := NewEvent(func() { order = append(order, "keyed") })
	e.Schedule(10, func() { order = append(order, "default") })
	ev.SetPrio(0)
	e.Arm(&ev, 10)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("no panic on SetPrio of a queued event")
			}
		}()
		ev.SetPrio(1)
	}()
	e.Run()
	if len(order) != 2 || order[0] != "keyed" || order[1] != "default" {
		t.Fatalf("order = %v, want [keyed default]", order)
	}
}
