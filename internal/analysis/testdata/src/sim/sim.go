// Package sim is a miniature stand-in for osnt/internal/sim: the Time /
// Duration named types and the Engine scheduling surface the simtime
// corpus exercises. Matched by package name + type name, like the real
// package.
package sim

// Time is an instant in virtual picoseconds.
type Time int64

// Duration is a span of virtual picoseconds.
type Duration int64

// Add returns the instant d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Event is a callback on the engine's timeline.
type Event struct{}

// NewEvent returns an unqueued event that runs fn.
func NewEvent(fn func()) Event { return Event{} }

// Engine is the discrete-event scheduler.
type Engine struct{ now Time }

// Now returns the current virtual instant.
func (e *Engine) Now() Time { return e.now }

// Schedule runs fn at instant at.
func (e *Engine) Schedule(at Time, fn func()) *Event { return &Event{} }

// Arm queues ev to fire at instant at.
func (e *Engine) Arm(ev *Event, at Time) {}

// ScheduleEvery runs fn every period starting at t0.
func (e *Engine) ScheduleEvery(t0 Time, period Duration, fn func()) *Ticker { return &Ticker{} }

// Ticker fires a callback at a fixed period.
type Ticker struct{}
