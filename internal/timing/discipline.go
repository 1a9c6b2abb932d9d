package timing

import (
	"osnt/internal/sim"
)

// Clock is the timestamp source a card's stamping units read. Now must be
// called with non-decreasing instants (hardware cannot observe the past).
type Clock interface {
	// Now returns the hardware timestamp the clock would latch for an
	// event occurring at true instant t.
	Now(t sim.Time) Timestamp
}

// PerfectClock returns ground-truth timestamps quantised to the hardware
// grid. It models an ideal, drift-free oscillator and is used as the
// reference when measuring clock error.
type PerfectClock struct{}

// Now implements Clock.
func (PerfectClock) Now(t sim.Time) Timestamp { return Quantize(t) }

// FreeClock reads an undisciplined oscillator: device time drifts away
// from true time without bound. This is the "no GPS" configuration of
// experiment E2.
type FreeClock struct {
	Osc *Oscillator
}

// Now implements Clock.
func (c *FreeClock) Now(t sim.Time) Timestamp {
	return Quantize(c.Osc.DeviceTimeAt(t))
}

// Discipline steers an oscillator using a 1-pulse-per-second GPS
// reference, reproducing OSNT's "clock drift and phase coordination
// maintained by a GPS input". At every PPS edge it measures the phase
// error against true time and applies a proportional-integral frequency
// correction plus a phase slew, the same structure as an NTP/PTP servo.
type Discipline struct {
	Osc *Oscillator

	integral float64 // integral of offset, in ppm
}

// The servo's constants, suited to the simulated oscillator parameters:
// it converges within ~30 PPS edges for ±50 ppm initial error.
const (
	// kp and ki are the proportional and integral gains applied to the
	// measured offset (in ppm per second-of-offset-per-second).
	kp = 0.7e6  // 0.7 ppm per µs of offset
	ki = 0.15e6 // 0.15 ppm·s⁻¹ per µs of offset
	// maxSlewPPM caps the magnitude of a single frequency correction, as
	// real servos do to ride through a GPS glitch.
	maxSlewPPM = 100
	// stepThreshold: offsets larger than this are corrected by stepping
	// the phase outright rather than slewing (cold-start behaviour).
	stepThreshold = 10 * sim.Millisecond
)

// NewDiscipline returns a servo for the oscillator.
func NewDiscipline(osc *Oscillator) *Discipline { return &Discipline{Osc: osc} }

// Start begins disciplining: the servo observes a PPS edge at every whole
// true second on the engine, beginning at the next one.
func (d *Discipline) Start(e *sim.Engine) {
	next := e.Now().Truncate(sim.Second).Add(sim.Second)
	e.ScheduleEvery(next, sim.Second, func() { d.onPPS(e.Now()) })
}

// onPPS handles one GPS pulse at true instant t (a whole second).
func (d *Discipline) onPPS(t sim.Time) {
	dev := d.Osc.DeviceTimeAt(t)
	offset := dev.Sub(t) // positive: device clock runs fast

	if absDur(offset) > stepThreshold {
		// Cold start or gross error: step the phase, leave frequency to
		// the servo on subsequent edges.
		d.Osc.AdjustPhase(-offset)
		d.integral = 0
		return
	}

	offSec := offset.Seconds() // seconds of phase error per 1 s of PPS interval
	d.integral += offSec
	corr := kp*offSec + ki*d.integral // ppm
	if corr > maxSlewPPM {
		corr = maxSlewPPM
	} else if corr < -maxSlewPPM {
		corr = -maxSlewPPM
	}
	d.Osc.AdjustFreqPPM(-corr)
	// Slew out the residual phase error immediately; the quantity is small
	// (sub-µs once near lock) so this models a fine phase adjustment.
	d.Osc.AdjustPhase(-offset)
}

func absDur(d sim.Duration) sim.Duration {
	if d < 0 {
		return -d
	}
	return d
}

// DisciplinedClock reads an oscillator that is being steered by a
// Discipline servo. This is the GPS-corrected configuration the paper
// describes.
type DisciplinedClock struct {
	Osc *Oscillator
}

// Now implements Clock.
func (c *DisciplinedClock) Now(t sim.Time) Timestamp {
	return Quantize(c.Osc.DeviceTimeAt(t))
}
