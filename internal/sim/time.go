// Package sim provides the discrete-event simulation engine that stands in
// for the NetFPGA-10G hardware substrate of OSNT.
//
// All OSNT components (MACs, timestamp units, DMA engines, switches under
// test) advance a shared virtual clock with picosecond resolution. Because
// time is virtual, a 10 Gb/s data path can be modelled exactly: no garbage
// collection pause or scheduler hiccup can distort a measurement, and every
// run is deterministic and repeatable.
//
// Events fire in (instant, priority, sequence) order. Engine.Arm is the one
// way an event enters the queue, and the one place causality is checked:
// it stamps the event with the engine's next sequence number, so among
// events of equal instant and priority the one armed first fires first.
// Schedule is NewEvent followed by Arm, for one-off work. A component that
// fires the same work over and over (a MAC's transmit-done, a link's
// delivery, a DMA drain) builds its Event once with NewEvent when the
// component is built and re-arms it with Arm, so the per-packet path
// allocates nothing.
package sim

import (
	"fmt"
	"time"
)

// Time is an instant in virtual time, measured in integer picoseconds from
// the start of the simulation. At 10 Gb/s one bit lasts 100 ps and one byte
// 800 ps, so picoseconds represent every event on the wire exactly.
// The int64 range covers about 106 days of virtual time.
type Time int64

// Duration is a span of virtual time in picoseconds.
type Duration int64

// Common durations, expressed in picoseconds.
const (
	Picosecond  Duration = 1
	Nanosecond           = 1000 * Picosecond
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// Epoch is the simulation start instant, t = 0.
const Epoch Time = 0

// After returns the instant d past the simulation epoch — the sanctioned
// conversion from a duration-since-start to an instant (rather than raw
// arithmetic mixing Time and Duration representations).
func After(d Duration) Time { return Epoch.Add(d) }

// Add returns the instant d after t.
func (t Time) Add(d Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) Duration { return Duration(t - u) }

// Truncate rounds t down to the previous multiple of d — the start of the
// enclosing whole second, timestamp-counter grid cell, etc. Non-positive d
// returns t unchanged.
func (t Time) Truncate(d Duration) Time {
	if d <= 0 {
		return t
	}
	return t - t%Time(d)
}

// Picoseconds returns t as an integer count of picoseconds.
func (t Time) Picoseconds() int64 { return int64(t) }

// Seconds returns t as floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// String formats t with an adaptive unit, e.g. "1.5µs" or "2.000s".
func (t Time) String() string { return Duration(t).String() }

// Picoseconds returns d as an integer count of picoseconds.
func (d Duration) Picoseconds() int64 { return int64(d) }

// Seconds returns d as floating-point seconds.
func (d Duration) Seconds() float64 { return float64(d) / float64(Second) }

// DurationOf converts a standard library duration into a simulation
// Duration.
func DurationOf(d time.Duration) Duration { return Duration(d.Nanoseconds()) * Nanosecond }

// Picoseconds builds a Duration from an integer picosecond count.
func Picoseconds(ps int64) Duration { return Duration(ps) }

// Milliseconds builds a Duration from an integer millisecond count.
func Milliseconds(ms int64) Duration { return Duration(ms) * Millisecond }

// String formats d with an adaptive unit.
func (d Duration) String() string {
	neg := ""
	if d < 0 {
		neg = "-"
		d = -d
	}
	switch {
	case d < Nanosecond:
		return fmt.Sprintf("%s%dps", neg, int64(d))
	case d < Microsecond:
		return fmt.Sprintf("%s%.3gns", neg, float64(d)/float64(Nanosecond))
	case d < Millisecond:
		return fmt.Sprintf("%s%.4gµs", neg, float64(d)/float64(Microsecond))
	case d < Second:
		return fmt.Sprintf("%s%.4gms", neg, float64(d)/float64(Millisecond))
	default:
		return fmt.Sprintf("%s%.4gs", neg, float64(d)/float64(Second))
	}
}
