package runner

import (
	"fmt"
	"sync/atomic"
	"testing"

	"osnt/internal/sim"
)

func TestSweepCanonicalOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 8, 0} {
		r := New(workers)
		got := Sweep(r, 100, func(i int) int { return i * i })
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d point %d: got %d", workers, i, v)
			}
		}
	}
}

func TestSweepEmpty(t *testing.T) {
	if got := Sweep(New(4), 0, func(i int) int { t.Fatal("called"); return 0 }); len(got) != 0 {
		t.Fatalf("got %v", got)
	}
}

func TestSweepRunsEveryPointOnce(t *testing.T) {
	var calls [64]atomic.Int32
	Sweep(New(8), len(calls), func(i int) struct{} {
		calls[i].Add(1)
		return struct{}{}
	})
	for i := range calls {
		if n := calls[i].Load(); n != 1 {
			t.Fatalf("point %d ran %d times", i, n)
		}
	}
}

// Each point owns an independent engine; identical seeds must give
// identical results at any worker count.
func TestSweepEnginePerPointDeterminism(t *testing.T) {
	run := func(workers int) []uint64 {
		return Sweep(New(workers), 16, func(i int) uint64 {
			e := sim.NewEngine()
			rnd := sim.NewRand(PointSeed(42, i))
			var acc uint64
			var tick func()
			tick = func() {
				acc = acc*31 + rnd.Uint64()%1000
				if e.Fired() < 500 {
					e.ScheduleAfter(sim.Duration(1+rnd.Intn(100)), tick)
				}
			}
			e.Schedule(0, tick)
			e.Run()
			return acc
		})
	}
	serial := run(1)
	for _, w := range []int{2, 4, 13} {
		if got := run(w); fmt.Sprint(got) != fmt.Sprint(serial) {
			t.Fatalf("workers=%d diverged:\n%v\n%v", w, got, serial)
		}
	}
}

func TestRowsConcatenatesInPointOrder(t *testing.T) {
	rows := New(4).Rows(10, func(i int) [][]any {
		if i%3 == 0 {
			return nil // points may contribute no rows
		}
		return [][]any{{i, "a"}, {i, "b"}}
	})
	var want [][]any
	for i := 0; i < 10; i++ {
		if i%3 == 0 {
			continue
		}
		want = append(want, []any{i, "a"}, []any{i, "b"})
	}
	if fmt.Sprint(rows) != fmt.Sprint(want) {
		t.Fatalf("rows:\n%v\nwant:\n%v", rows, want)
	}
}

func TestSweepPanicPropagates(t *testing.T) {
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("panic did not propagate")
		}
	}()
	Sweep(New(4), 8, func(i int) int {
		if i == 5 {
			panic("boom")
		}
		return i
	})
}

func TestPointSeedSpread(t *testing.T) {
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		s := PointSeed(7, i)
		if seen[s] {
			t.Fatalf("seed collision at point %d", i)
		}
		seen[s] = true
	}
	if PointSeed(7, 3) != PointSeed(7, 3) {
		t.Fatal("not reproducible")
	}
}
