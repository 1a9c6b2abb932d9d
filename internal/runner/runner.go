// Package runner fans an experiment's parameter sweep out across worker
// goroutines. The simulation engine is deliberately single-threaded
// (determinism is a design requirement), so the unit of parallelism is
// one sweep point: every point builds its own sim.Engine and its own
// seeded sim.Rand streams, runs to completion, and returns its rows.
// Results are merged in canonical point order, which makes the output
// byte-identical at any worker count — the property the determinism
// tests pin down, and what lets `osnt-bench` sweep dozens of
// configurations in the wall time of the slowest one.
package runner

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Runner executes sweep points on a bounded worker pool.
type Runner struct {
	// Workers is the concurrency; 0 selects GOMAXPROCS, 1 runs the sweep
	// inline on the calling goroutine (no goroutines, byte-identical
	// results — the serial reference the determinism tests compare
	// against).
	Workers int
}

// New returns a runner with the given worker count (0 = GOMAXPROCS).
func New(workers int) *Runner { return &Runner{Workers: workers} }

// NewScaled returns a runner for sweeps whose points are themselves
// parallel — each point runs on up to inner goroutines (a sharded
// cluster) — so the shards × workers product stays within the machine:
// an auto worker count (workers == 0) resolves to GOMAXPROCS/inner
// (min 1) instead of GOMAXPROCS. An explicit workers wins unchanged,
// exactly as in New; results are byte-identical either way.
func NewScaled(workers, inner int) *Runner {
	if workers == 0 {
		if inner < 1 {
			inner = 1
		}
		if workers = runtime.GOMAXPROCS(0) / inner; workers < 1 {
			workers = 1
		}
	}
	return &Runner{Workers: workers}
}

func (r *Runner) workers(points int) int {
	w := r.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w > points {
		w = points
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Sweep runs fn(i) for every i in [0, n) across r's workers and returns
// the results indexed by point, regardless of completion order. Points
// are claimed in index order, so heavy points placed first keep the pool
// busy (schedule longest-first when point costs are skewed). A panic in
// any point is re-raised on the calling goroutine after the pool drains,
// matching serial behaviour.
func Sweep[T any](r *Runner, n int, fn func(i int) T) []T {
	out := make([]T, n)
	if n == 0 {
		return out
	}
	w := r.workers(n)
	if w == 1 {
		for i := range out {
			out[i] = fn(i)
		}
		return out
	}
	var (
		next     atomic.Int64
		wg       sync.WaitGroup
		panicMu  sync.Mutex
		panicked any
	)
	for k := 0; k < w; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if p := recover(); p != nil {
					panicMu.Lock()
					if panicked == nil {
						panicked = p
					}
					panicMu.Unlock()
				}
			}()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				out[i] = fn(i)
			}
		}()
	}
	wg.Wait()
	if panicked != nil {
		panic(panicked)
	}
	return out
}

// Rows is Sweep specialised to experiment tables: each point contributes
// zero or more rows of cell values, concatenated in point order.
func (r *Runner) Rows(n int, fn func(i int) [][]any) [][]any {
	parts := Sweep(r, n, fn)
	var rows [][]any
	for _, p := range parts {
		rows = append(rows, p...)
	}
	return rows
}

// PointSeed derives a well-spread, reproducible seed for sweep point i
// from a base seed (one splitmix64 step), so per-point sim.Rand streams
// stay decorrelated while the whole sweep remains deterministic.
func PointSeed(base uint64, i int) uint64 {
	z := base + 0x9e3779b97f4a7c15*uint64(i+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
