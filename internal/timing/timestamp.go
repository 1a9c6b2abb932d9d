// Package timing implements OSNT's timestamping model: the 64-bit 32.32
// fixed-point timestamp format used by the NetFPGA-10G design, the 6.25 ns
// hardware resolution of the 160 MHz stamping counter, a free-running
// oscillator model with frequency error and wander, and the GPS/PPS
// discipline servo that the paper credits for sub-microsecond precision.
package timing

import (
	"fmt"
	"math/bits"

	"osnt/internal/sim"
)

// Timestamp is the OSNT hardware timestamp: the upper 32 bits count whole
// seconds, the lower 32 bits are a binary fraction of a second (1 unit =
// 2^-32 s ≈ 232.8 ps). This is the exact format the OSNT design embeds in
// generated packets and attaches to captured ones.
type Timestamp uint64

// Resolution is the quantum of the OSNT stamping counter. The datapath
// clock runs at 160 MHz, so hardware timestamps advance in 6.25 ns steps —
// the figure quoted in the paper.
const Resolution = 6250 * sim.Picosecond

const picosPerSecond = 1_000_000_000_000

// FromSim converts an instant of virtual time into a Timestamp with full
// 2^-32 s precision (no hardware quantisation). Use Quantize for the value
// a real OSNT counter would produce.
func FromSim(t sim.Time) Timestamp {
	ps := t.Picoseconds()
	if ps < 0 {
		panic("timing: negative time")
	}
	sec := uint64(ps) / picosPerSecond
	rem := uint64(ps) % picosPerSecond
	// frac = rem * 2^32 / 1e12, computed in 128 bits to keep every bit.
	hi, lo := bits.Mul64(rem, 1<<32)
	frac, _ := bits.Div64(hi, lo, picosPerSecond)
	return Timestamp(sec<<32 | frac)
}

// Sim converts the timestamp back to virtual time, truncated to the
// picosecond.
func (ts Timestamp) Sim() sim.Time {
	sec := uint64(ts) >> 32
	frac := uint64(ts) & 0xffffffff
	hi, lo := bits.Mul64(frac, picosPerSecond)
	ps, _ := bits.Div64(hi, lo, 1<<32)
	return sim.Time(sec*picosPerSecond + ps)
}

// Sub returns the signed difference ts-u as a virtual duration. Because
// both operands share the 32.32 format the subtraction is exact to the
// fraction unit before conversion to picoseconds.
func (ts Timestamp) Sub(u Timestamp) sim.Duration {
	return ts.Sim().Sub(u.Sim())
}

// Add returns the timestamp d later than ts.
func (ts Timestamp) Add(d sim.Duration) Timestamp {
	return FromSim(ts.Sim().Add(d))
}

// String renders the timestamp as seconds.nanoseconds.
func (ts Timestamp) String() string {
	t := ts.Sim()
	return fmt.Sprintf("%d.%09ds", t.Picoseconds()/picosPerSecond,
		(t.Picoseconds()%picosPerSecond)/1000)
}

// Quantize truncates t to the 6.25 ns grid of the OSNT stamping counter
// and returns the corresponding timestamp — the value hardware would
// latch for an event at t.
func Quantize(t sim.Time) Timestamp {
	return FromSim(t.Truncate(Resolution))
}
