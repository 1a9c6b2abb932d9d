package sim

import (
	"testing"
	"testing/quick"
	"time"
)

func TestEngineStartsAtZero(t *testing.T) {
	e := NewEngine()
	if e.Now() != 0 {
		t.Fatalf("new engine Now = %v, want 0", e.Now())
	}
	if e.Pending() != 0 {
		t.Fatalf("new engine Pending = %d, want 0", e.Pending())
	}
}

func TestScheduleOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(30, func() { got = append(got, 3) })
	e.Schedule(10, func() { got = append(got, 1) })
	e.Schedule(20, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 30 {
		t.Fatalf("final Now = %v, want 30", e.Now())
	}
}

func TestScheduleFIFOAtSameInstant(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(100, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("same-instant events fired out of order: %v", got)
		}
	}
}

func TestSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(100, func() {})
	e.Run()
	defer func() {
		if recover() == nil {
			t.Fatal("scheduling in the past did not panic")
		}
	}()
	e.Schedule(50, func() {})
}

func TestScheduleAfter(t *testing.T) {
	e := NewEngine()
	var at Time
	e.Schedule(40, func() {
		e.ScheduleAfter(5, func() { at = e.Now() })
	})
	e.Run()
	if at != 45 {
		t.Fatalf("nested ScheduleAfter fired at %v, want 45", at)
	}
}

func TestCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ev := e.Schedule(10, func() { fired = true })
	ev.Cancel()
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if !ev.Cancelled() {
		t.Fatal("Cancelled() false after Cancel")
	}
	// Engine clock must not advance for cancelled work.
	if e.Now() != 0 {
		t.Fatalf("clock advanced to %v for cancelled event", e.Now())
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		e.Schedule(at, func() { fired = append(fired, at) })
	}
	e.RunUntil(25)
	if len(fired) != 2 || fired[0] != 10 || fired[1] != 20 {
		t.Fatalf("RunUntil(25) fired %v, want [10 20]", fired)
	}
	if e.Now() != 25 {
		t.Fatalf("Now after RunUntil(25) = %v, want 25", e.Now())
	}
	if e.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", e.Pending())
	}
	e.RunUntil(40)
	if len(fired) != 4 {
		t.Fatalf("after second RunUntil fired %v, want all four", fired)
	}
}

func TestRunUntilInclusive(t *testing.T) {
	e := NewEngine()
	fired := false
	e.Schedule(25, func() { fired = true })
	e.RunUntil(25)
	if !fired {
		t.Fatal("event exactly at the RunUntil bound did not fire")
	}
}

func TestRunFor(t *testing.T) {
	e := NewEngine()
	n := 0
	e.ScheduleEvery(0, 10, func() { n++ })
	e.RunUntil(e.Now().Add(95))
	// t = 0, 10, ..., 90 → 10 firings.
	if n != 10 {
		t.Fatalf("ticker fired %d times in 95ps with period 10, want 10", n)
	}
}

func TestTickerStop(t *testing.T) {
	e := NewEngine()
	n := 0
	var tk *Ticker
	tk = e.ScheduleEvery(0, 10, func() {
		n++
		if n == 3 {
			tk.Stop()
		}
	})
	e.Run()
	if n != 3 {
		t.Fatalf("ticker fired %d times, want 3", n)
	}
}

func TestFiredCounter(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 5; i++ {
		e.Schedule(Time(i), func() {})
	}
	e.Run()
	if e.Fired() != 5 {
		t.Fatalf("Fired = %d, want 5", e.Fired())
	}
}

// Property: for any set of event times, the engine fires them in
// non-decreasing time order and the clock matches each event's time.
func TestPropertyEventOrder(t *testing.T) {
	f := func(offsets []uint16) bool {
		e := NewEngine()
		var seen []Time
		for _, off := range offsets {
			at := Time(off)
			e.Schedule(at, func() {
				if e.Now() != at {
					t.Errorf("callback at %v saw clock %v", at, e.Now())
				}
				seen = append(seen, e.Now())
			})
		}
		e.Run()
		for i := 1; i < len(seen); i++ {
			if seen[i] < seen[i-1] {
				return false
			}
		}
		return len(seen) == len(offsets)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{500, "500ps"},
		{2 * Nanosecond, "2ns"},
		{6250, "6.25ns"},
		{3 * Microsecond, "3µs"},
		{15 * Millisecond, "15ms"},
		{2 * Second, "2s"},
		{-2 * Second, "-2s"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
}

func TestTimeConversions(t *testing.T) {
	if got := DurationOf(3 * time.Microsecond); got != 3*Microsecond {
		t.Fatalf("DurationOf = %v", got)
	}
	if got := Time(2_500_000).Seconds(); got != 2.5e-6 {
		t.Fatalf("Seconds = %v, want 2.5e-6", got)
	}
}

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(42), NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed produced different streams")
		}
	}
	c := NewRand(43)
	same := 0
	a = NewRand(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() == c.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("different seeds produced %d/1000 identical values", same)
	}
}

func TestRandZeroSeedUsable(t *testing.T) {
	r := NewRand(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced a stuck stream")
	}
}

func TestRandFloat64Range(t *testing.T) {
	r := NewRand(7)
	for i := 0; i < 10000; i++ {
		v := r.Float64()
		if v < 0 || v >= 1 {
			t.Fatalf("Float64 out of range: %v", v)
		}
	}
}

func TestRandExpMean(t *testing.T) {
	r := NewRand(11)
	const n = 200000
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += r.ExpFloat64()
	}
	mean := sum / n
	if mean < 0.98 || mean > 1.02 {
		t.Fatalf("ExpFloat64 mean = %v, want ≈1", mean)
	}
}

func TestRandNormMoments(t *testing.T) {
	r := NewRand(13)
	const n = 200000
	sum, sumsq := 0.0, 0.0
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumsq += v * v
	}
	mean := sum / n
	variance := sumsq/n - mean*mean
	if mean < -0.02 || mean > 0.02 {
		t.Fatalf("NormFloat64 mean = %v, want ≈0", mean)
	}
	if variance < 0.97 || variance > 1.03 {
		t.Fatalf("NormFloat64 variance = %v, want ≈1", variance)
	}
}

func TestRandIntn(t *testing.T) {
	r := NewRand(17)
	counts := make([]int, 10)
	for i := 0; i < 100000; i++ {
		counts[r.Intn(10)]++
	}
	for v, c := range counts {
		if c < 9000 || c > 11000 {
			t.Fatalf("Intn(10) value %d occurred %d/100000 times", v, c)
		}
	}
}

func BenchmarkEngineScheduleRun(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Schedule(e.Now()+Time(i%64), func() {})
		e.Step()
	}
}

func BenchmarkHeapQueue(b *testing.B) {
	e := NewEngine()
	r := NewRand(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.Schedule(e.Now()+Time(r.Intn(10000)), func() {})
		if e.Pending() > 1024 {
			e.Step()
		}
	}
	for e.Step() {
	}
}

// BenchmarkEngineChurn is arm/fire churn against a one-million-
// pending event heap: every step fires the head event, which immediately
// re-arms itself a pseudo-random span ahead, so the heap stays at 1M
// entries and every operation pays a full-depth sift. This is the shape
// a saturated fat-tree run drives the queue with, and the benchmark that
// pins the inlined-heap win over container/heap (steady state allocates
// nothing — the interface boxing of heap.Push/Pop would show up here as
// allocs/op).
func BenchmarkEngineChurn(b *testing.B) {
	const pending = 1 << 20
	e := NewEngine()
	evs := make([]*Event, pending)
	for i := range evs {
		i := i
		evs[i] = e.Schedule(Time(1+i), func() {
			e.Arm(evs[i], e.Now().Add(Duration(1+uint64(i)*2654435761%100000)))
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		e.Step()
	}
}

// BenchmarkPendingEvents1M is the classic hold benchmark (pop the
// earliest, push a successor) on a million-event set.
func BenchmarkPendingEvents1M(b *testing.B) {
	const (
		pending = 1 << 20
		spacing = Microsecond       // mean inter-event gap in the set
		horizon = pending * spacing // ≈ 1 s of pending virtual time
		maxInc  = 2 * int(horizon)  // hold increment: uniform [1, 2·horizon]
	)
	// The hold model: pop the earliest event, push its successor a draw
	// of mean ≈ horizon later, so the popped event leapfrogs the whole
	// set and the pending-set occupancy stays uniform — the steady state
	// an engine with 1M concurrently armed timers lives in.
	inc := func(r *Rand) Duration { return Duration(1 + r.Intn(maxInc)) }

	e := NewEngine()
	rnd := NewRand(1)
	at := Time(0)
	for i := 0; i < pending; i++ {
		at = at.Add(Duration(1 + rnd.Intn(int(2*spacing))))
		// Each event re-arms itself on firing, so the engine's heap
		// stays at `pending` entries with zero per-op allocations.
		var ev *Event
		ev = e.Schedule(at, func() {
			e.Arm(ev, e.Now().Add(inc(rnd)))
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}
