package sim

import "math"

// Rand is a small, fast, deterministic pseudo-random source
// (splitmix64-seeded xorshift64*). Every stochastic component of the
// simulator (Poisson arrivals, oscillator wander, host scheduling jitter)
// owns its own Rand so that adding or removing one component never perturbs
// the random stream of another — a property plain math/rand sharing would
// not give us.
type Rand struct {
	s uint64
	// cached second normal variate from Box-Muller
	haveNorm bool
	norm     float64
}

// NewRand returns a generator seeded from seed via splitmix64, so nearby
// integer seeds still yield uncorrelated streams.
func NewRand(seed uint64) *Rand {
	// splitmix64 step to spread low-entropy seeds.
	z := seed + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 0x9e3779b97f4a7c15
	}
	return &Rand{s: z}
}

// Uint64 returns the next value of the xorshift64* stream.
func (r *Rand) Uint64() uint64 {
	x := r.s
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.s = x
	return x * 0x2545f4914f6cdd1d
}

// Intn returns a uniformly distributed int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("sim: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Float64 returns a uniformly distributed float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// ExpFloat64 returns an exponentially distributed float64 with mean 1,
// suitable for Poisson inter-arrival times after scaling.
func (r *Rand) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// NormFloat64 returns a standard normal variate (Box-Muller).
func (r *Rand) NormFloat64() float64 {
	if r.haveNorm {
		r.haveNorm = false
		return r.norm
	}
	for {
		u := r.Float64()
		if u == 0 {
			continue
		}
		v := r.Float64()
		rad := math.Sqrt(-2 * math.Log(u))
		ang := 2 * math.Pi * v
		r.norm = rad * math.Sin(ang)
		r.haveNorm = true
		return rad * math.Cos(ang)
	}
}
