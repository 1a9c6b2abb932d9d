// Package simtime is the corpus for the virtual-time hygiene analyzer:
// raw arithmetic on sim.Time outside internal/sim, and Schedule time
// arguments that can precede the engine's now.
package simtime

import "sim"

// rawAdd mixes an untyped constant into an instant.
func rawAdd(t sim.Time) sim.Time {
	return t + 800 // want "raw . arithmetic on sim.Time"
}

// rawSub subtracts instants without Sub.
func rawSub(a, b sim.Time) sim.Time {
	return a - b // want "raw - arithmetic on sim.Time"
}

// rawScale multiplies an instant, which has no meaning.
func rawScale(t sim.Time) sim.Time {
	return t * 2 // want "raw . arithmetic on sim.Time"
}

// properAdd combines through the typed API.
func properAdd(t sim.Time, d sim.Duration) sim.Time {
	return t.Add(d)
}

// properSub measures a span through the typed API.
func properSub(a, b sim.Time) sim.Duration {
	return a.Sub(b)
}

// durationScale is fine: Duration is a span, scaling spans is meaningful.
func durationScale(d sim.Duration) sim.Duration {
	return d * 2
}

// compareOK: ordering comparisons carry no unit risk.
func compareOK(a, b sim.Time) bool {
	return a < b
}

// scheduleBackward passes a subtraction as the schedule instant.
func scheduleBackward(e *sim.Engine, d sim.Duration) {
	e.Schedule(e.Now()-sim.Time(d), func() {}) // want "Schedule time argument is a subtraction" "raw - arithmetic on sim.Time"
}

// scheduleSub converts a span into an instant: epoch confusion, and the
// result precedes now whenever epoch is positive.
func scheduleSub(e *sim.Engine, epoch sim.Time) {
	e.Schedule(sim.Time(e.Now().Sub(epoch)), func() {}) // want "Schedule time argument is built from Time.Sub"
}

// scheduleNegAdd adds a negated duration.
func scheduleNegAdd(e *sim.Engine, d sim.Duration) {
	e.Schedule(e.Now().Add(-d), func() {}) // want "Schedule time argument adds a negated duration"
}

// armBackward re-arms an event before now.
func armBackward(e *sim.Engine, ev *sim.Event, epoch sim.Time) {
	e.Arm(ev, sim.Time(e.Now().Sub(epoch))) // want "Arm time argument is built from Time.Sub"
}

// armForward is clean.
func armForward(e *sim.Engine, d sim.Duration) {
	ev := sim.NewEvent(func() {})
	e.Arm(&ev, e.Now().Add(d))
}

// scheduleEveryBackward starts a ticker before now.
func scheduleEveryBackward(e *sim.Engine, d sim.Duration) {
	e.ScheduleEvery(e.Now().Add(-d), d, func() {}) // want "ScheduleEvery time argument adds a negated duration"
}

// scheduleForward is clean.
func scheduleForward(e *sim.Engine, d sim.Duration) {
	e.Schedule(e.Now().Add(d), func() {})
}

// armIgnored carries a proven-monotone exception: the negated offset
// would be flagged, the directive suppresses it.
func armIgnored(e *sim.Engine, ev *sim.Event, last sim.Time, d sim.Duration) {
	//lint:ignore simtime last+(-d) is the previous emission instant, always <= now here
	e.Arm(ev, last.Add(-d))
}
