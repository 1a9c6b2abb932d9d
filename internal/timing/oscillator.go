package timing

import (
	"osnt/internal/sim"
)

// Oscillator models the free-running crystal that clocks the stamping
// counter on a NetFPGA-10G board. Its device time advances at a rate
// (1 + offset_ppm·1e-6) relative to true (virtual) time, and the offset
// itself performs a bounded random walk ("wander"), the dominant error
// sources in real timestamping hardware.
//
// An Oscillator is passive: it has no events of its own. Reading it at
// instant t lazily integrates device time (including any wander steps)
// forward to t, so the trajectory is a pure function of the seed and the
// configuration regardless of how often it is read.
type Oscillator struct {
	// InitialOffsetPPM is the frequency error at t=0 in parts per million.
	// Commodity crystals sit in the ±50 ppm range.
	InitialOffsetPPM float64
	// WanderPPM is the standard deviation of the random-walk step applied
	// to the frequency offset once per WanderInterval.
	WanderPPM float64
	// WanderInterval is the spacing of wander steps. Zero disables wander.
	WanderInterval sim.Duration

	rand *sim.Rand

	started    bool
	offsetPPM  float64  // current frequency error
	lastTrue   sim.Time // true time of last integration point
	device     float64  // device time at lastTrue, in picoseconds
	nextWander sim.Time
}

// NewOscillator returns an oscillator with the given initial frequency
// error and wander behaviour, seeded deterministically.
func NewOscillator(offsetPPM, wanderPPM float64, wanderInterval sim.Duration, seed uint64) *Oscillator {
	return &Oscillator{
		InitialOffsetPPM: offsetPPM,
		WanderPPM:        wanderPPM,
		WanderInterval:   wanderInterval,
		rand:             sim.NewRand(seed),
	}
}

func (o *Oscillator) start(t sim.Time) {
	o.started = true
	o.offsetPPM = o.InitialOffsetPPM
	o.lastTrue = t
	o.device = float64(t.Picoseconds())
	if o.WanderInterval > 0 {
		o.nextWander = t.Add(o.WanderInterval)
	}
}

// advance integrates device time from lastTrue to t, applying any wander
// steps whose boundaries fall inside the interval.
func (o *Oscillator) advance(t sim.Time) {
	if !o.started {
		o.start(t)
		return
	}
	if t < o.lastTrue {
		panic("timing: oscillator read moved backwards")
	}
	for o.WanderInterval > 0 && o.nextWander <= t {
		o.integrate(o.nextWander)
		o.offsetPPM += o.rand.NormFloat64() * o.WanderPPM
		o.nextWander = o.nextWander.Add(o.WanderInterval)
	}
	o.integrate(t)
}

func (o *Oscillator) integrate(t sim.Time) {
	dt := float64(t.Sub(o.lastTrue).Picoseconds())
	o.device += dt * (1 + o.offsetPPM*1e-6)
	o.lastTrue = t
}

// DeviceTimeAt returns the oscillator's notion of elapsed time at true
// instant t, in picoseconds of device time.
func (o *Oscillator) DeviceTimeAt(t sim.Time) sim.Time {
	o.advance(t)
	return sim.Time(o.device)
}

// AdjustPhase slews the device time by delta immediately. The discipline
// servo uses this to cancel accumulated phase error at a PPS edge.
func (o *Oscillator) AdjustPhase(delta sim.Duration) {
	o.device += float64(delta.Picoseconds())
}

// AdjustFreqPPM adds delta (ppm) to the oscillator's effective rate. The
// discipline servo uses this to steer the frequency toward the GPS
// reference.
func (o *Oscillator) AdjustFreqPPM(delta float64) {
	o.offsetPPM += delta
}
