package timing

import (
	"testing"
	"testing/quick"

	"osnt/internal/sim"
)

func TestTimestampRoundTrip(t *testing.T) {
	cases := []sim.Time{
		0,
		sim.Time(sim.Nanosecond),
		sim.Time(6250),                         // one hardware tick
		sim.Time(sim.Second),                   // 1 s
		sim.Time(86400) * sim.Time(sim.Second), // 1 day
		123456789012345,
	}
	for _, tm := range cases {
		ts := FromSim(tm)
		back := ts.Sim()
		diff := back.Sub(tm)
		if diff < -sim.Duration(1000) || diff > sim.Duration(1000) {
			t.Errorf("round trip of %v drifted by %v", tm, diff)
		}
	}
}

// Property: FromSim/Sim round trip never loses more than one fraction unit
// (2^-32 s ≈ 233 ps) for any representable instant.
func TestPropertyTimestampRoundTrip(t *testing.T) {
	f := func(ps uint64) bool {
		ps %= uint64(1) << 50 // keep within ~13 days, well inside range
		tm := sim.Time(ps)
		diff := FromSim(tm).Sim().Sub(tm)
		return diff >= -233 && diff <= 233
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// Property: timestamps preserve ordering.
func TestPropertyTimestampMonotone(t *testing.T) {
	f := func(a, b uint64) bool {
		a %= uint64(1) << 50
		b %= uint64(1) << 50
		ta, tb := sim.Time(a), sim.Time(b)
		if ta <= tb {
			return FromSim(ta) <= FromSim(tb)
		}
		return FromSim(ta) >= FromSim(tb)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestTimestampFields(t *testing.T) {
	// 2.5 s → seconds field 2, fraction 0.5 → 0x80000000.
	ts := FromSim(sim.Time(2500) * sim.Time(sim.Millisecond))
	if uint64(ts) != 2<<32|0x80000000 {
		t.Fatalf("timestamp %#x, want seconds 2 and fraction 0x80000000", uint64(ts))
	}
}

func TestTimestampSub(t *testing.T) {
	a := FromSim(sim.Time(1000 * 1000)) // 1 µs
	b := FromSim(sim.Time(3500 * 1000)) // 3.5 µs
	d := b.Sub(a)
	if d < sim.Duration(2499*1000) || d > sim.Duration(2501*1000) {
		t.Fatalf("Sub = %v, want ≈2.5µs", d)
	}
	if a.Sub(b) >= 0 {
		t.Fatalf("reverse Sub should be negative, got %v", a.Sub(b))
	}
}

func TestTimestampAdd(t *testing.T) {
	a := FromSim(sim.Time(sim.Second))
	b := a.Add(250 * sim.Microsecond)
	got := b.Sub(a)
	if got < 249999*sim.Nanosecond || got > 250001*sim.Nanosecond {
		t.Fatalf("Add(250µs) moved by %v", got)
	}
}

func TestQuantize(t *testing.T) {
	// An event 1 ps after a tick boundary must latch the boundary value.
	tick := sim.Time(Resolution)
	ts := Quantize(tick + 1)
	if ts != FromSim(tick) {
		t.Fatalf("Quantize(tick+1ps) = %v, want %v", ts, FromSim(tick))
	}
	// Quantisation error is always in [0, Resolution).
	for ps := sim.Time(0); ps < 30000; ps += 917 {
		q := Quantize(ps).Sim()
		err := ps.Sub(q)
		if err < 0 || err >= sim.Duration(Resolution) {
			t.Fatalf("Quantize(%d) error %v outside [0, 6.25ns)", ps, err)
		}
	}
}

func TestTimestampString(t *testing.T) {
	ts := FromSim(sim.Time(1500) * sim.Time(sim.Millisecond))
	if got := ts.String(); got != "1.500000000s" {
		t.Fatalf("String = %q", got)
	}
}

func TestOscillatorPerfect(t *testing.T) {
	o := NewOscillator(0, 0, 0, 1)
	for _, tm := range []sim.Time{0, 1000, sim.Time(sim.Second), 5 * sim.Time(sim.Second)} {
		if got := o.DeviceTimeAt(tm); got != tm {
			t.Fatalf("zero-offset oscillator at %v reads %v", tm, got)
		}
	}
}

func TestOscillatorDrift(t *testing.T) {
	// +50 ppm: after 1 s device time leads by 50 µs.
	o := NewOscillator(50, 0, 0, 1)
	o.DeviceTimeAt(0)
	dev := o.DeviceTimeAt(sim.Time(sim.Second))
	lead := dev.Sub(sim.Time(sim.Second))
	want := 50 * sim.Microsecond
	if lead < want-sim.Nanosecond || lead > want+sim.Nanosecond {
		t.Fatalf("50ppm oscillator lead after 1s = %v, want ≈%v", lead, want)
	}
}

func TestOscillatorNegativeDrift(t *testing.T) {
	o := NewOscillator(-10, 0, 0, 1)
	o.DeviceTimeAt(0)
	dev := o.DeviceTimeAt(10 * sim.Time(sim.Second))
	lag := sim.Time(10 * sim.Second).Sub(dev)
	want := 100 * sim.Microsecond
	if lag < want-10*sim.Nanosecond || lag > want+10*sim.Nanosecond {
		t.Fatalf("-10ppm oscillator lag after 10s = %v, want ≈%v", lag, want)
	}
}

func TestOscillatorLazyIntegrationIndependence(t *testing.T) {
	// Reading at many intermediate points must give the same trajectory as
	// reading once at the end (wander boundaries are lazily processed).
	a := NewOscillator(20, 0.5, 100*sim.Millisecond, 99)
	b := NewOscillator(20, 0.5, 100*sim.Millisecond, 99)
	a.DeviceTimeAt(0)
	b.DeviceTimeAt(0)
	for tm := sim.Time(0); tm <= 2*sim.Time(sim.Second); tm += sim.Time(10 * sim.Millisecond) {
		a.DeviceTimeAt(tm)
	}
	end := 2 * sim.Time(sim.Second)
	da, db := a.DeviceTimeAt(end), b.DeviceTimeAt(end)
	diff := da.Sub(db)
	if diff < -sim.Nanosecond || diff > sim.Nanosecond {
		t.Fatalf("read pattern changed trajectory: %v vs %v (diff %v)", da, db, diff)
	}
}

func TestOscillatorBackwardsReadPanics(t *testing.T) {
	o := NewOscillator(0, 0, 0, 1)
	o.DeviceTimeAt(1000)
	defer func() {
		if recover() == nil {
			t.Fatal("backwards read did not panic")
		}
	}()
	o.DeviceTimeAt(500)
}

func TestOscillatorAdjustments(t *testing.T) {
	o := NewOscillator(0, 0, 0, 1)
	o.DeviceTimeAt(0)
	o.AdjustPhase(500 * sim.Nanosecond)
	dev := o.DeviceTimeAt(sim.Time(sim.Microsecond))
	lead := dev.Sub(sim.Time(sim.Microsecond))
	if lead != 500*sim.Nanosecond {
		t.Fatalf("phase step lost: lead = %v", lead)
	}
	o.AdjustFreqPPM(100)
	dev = o.DeviceTimeAt(sim.Time(sim.Microsecond) + sim.Time(sim.Second))
	lead = dev.Sub(sim.Time(sim.Microsecond) + sim.Time(sim.Second))
	want := 500*sim.Nanosecond + 100*sim.Microsecond
	if lead < want-10*sim.Nanosecond || lead > want+10*sim.Nanosecond {
		t.Fatalf("freq adjust lead = %v, want ≈%v", lead, want)
	}
}

func TestDisciplineConverges(t *testing.T) {
	e := sim.NewEngine()
	osc := NewOscillator(50, 0.01, 100*sim.Millisecond, 7)
	osc.DeviceTimeAt(0)
	NewDiscipline(osc).Start(e)
	// Paper claim: sub-µs precision with GPS correction. Allow the first 30
	// edges for convergence, then read the clock error as E2 does, just
	// before each later edge, where the residual has built up longest.
	for s := 31; s <= 120; s++ {
		at := sim.After(sim.Duration(s)*sim.Second - sim.Picosecond)
		e.RunUntil(at)
		if off := absDur(osc.DeviceTimeAt(at).Sub(at)); off >= sim.Microsecond {
			t.Fatalf("clock error %v before PPS edge %d, want < 1µs", off, s)
		}
	}
}

func TestDisciplineStepsGrossOffset(t *testing.T) {
	e := sim.NewEngine()
	osc := NewOscillator(0, 0, 0, 7)
	osc.DeviceTimeAt(0)
	osc.AdjustPhase(50 * sim.Millisecond) // beyond StepThreshold
	d := NewDiscipline(osc)
	d.Start(e)
	e.RunUntil(3 * sim.Time(sim.Second))
	// After the step the clock should be aligned to within the servo noise.
	dev := osc.DeviceTimeAt(3 * sim.Time(sim.Second))
	off := absDur(dev.Sub(3 * sim.Time(sim.Second)))
	if off > sim.Microsecond {
		t.Fatalf("offset after gross step = %v", off)
	}
}

func TestFreeVsDisciplinedClock(t *testing.T) {
	// E2 in miniature: a free-running 50 ppm clock accumulates ≥ millisecond
	// error over a minute while the disciplined one stays sub-µs.
	e := sim.NewEngine()
	free := NewOscillator(50, 0.01, 100*sim.Millisecond, 3)
	free.DeviceTimeAt(0)
	disc := NewOscillator(50, 0.01, 100*sim.Millisecond, 4)
	disc.DeviceTimeAt(0)
	servo := NewDiscipline(disc)
	servo.Start(e)
	e.RunUntil(60 * sim.Time(sim.Second))

	now := e.Now()
	freeErr := absDur((&FreeClock{free}).Now(now).Sim().Sub(now))
	discErr := absDur((&DisciplinedClock{disc}).Now(now).Sim().Sub(now))
	if freeErr < sim.Millisecond {
		t.Fatalf("free-running error = %v, expected ≥ 1ms at 50ppm over 60s", freeErr)
	}
	if discErr > 2*sim.Microsecond {
		t.Fatalf("disciplined error = %v, expected µs-scale", discErr)
	}
}

func TestPerfectClockQuantises(t *testing.T) {
	var c PerfectClock
	ts := c.Now(sim.Time(Resolution) + 3000)
	if ts != FromSim(sim.Time(Resolution)) {
		t.Fatalf("PerfectClock did not quantise: %v", ts)
	}
}

func BenchmarkFromSim(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = FromSim(sim.Time(i) * 6250)
	}
}

func BenchmarkOscillatorRead(b *testing.B) {
	o := NewOscillator(25, 0.01, 100*sim.Millisecond, 5)
	o.DeviceTimeAt(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		o.DeviceTimeAt(sim.Time(i) * 1000)
	}
}
