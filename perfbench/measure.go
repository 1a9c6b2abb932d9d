package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"time"

	"osnt/internal/runner"
	"osnt/internal/sim"
	"osnt/internal/wire"
)

// workload is one named scenario. A repetition simulates the fixed span
// virtual, so its digest depends on the seed alone; --seconds only sets
// how many repetitions a run measures.
type workload struct {
	name    string
	virtual sim.Duration
	// slice is the fixed virtual-time step of a traced repetition's run
	// phase (RunUntil per slice, gauges sampled between slices).
	slice sim.Duration
	// shards is the cluster size (0: one plain sim.Engine).
	shards int
	// inputs is how many distinct inputs a run cycles through: repetition
	// i runs input i mod inputs, each derived from the run's seed.
	inputs int
	// setups is how many times each end-to-end repetition sets up: once
	// for the run, the rest built, timed and torn down unrun, so that
	// setup_s has enough samples where repetitions are few.
	setups int
	// golden is the stream digest of goldenSeed, recorded with the
	// benchmark; every run checks it on its warm-up repetition.
	golden uint64
	setup  func(seed uint64, shards int, end sim.Time, tr *tracer, parent int) rig
}

// input returns the seed of repetition i's input.
func (w *workload) input(seed uint64, i int) uint64 {
	return runner.PointSeed(seed, i%w.inputs)
}

// setupOnly times w.setups-1 extra set-ups of the input, each torn down
// unrun. Each starts, like a repetition's own set-up, from a collected
// heap.
func (w *workload) setupOnly(seed uint64) (ns []int64, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic in set-up: %v", p)
		}
	}()
	for k := 1; k < w.setups; k++ {
		runtime.GC()
		t0 := clock()
		r := w.setup(seed, w.shards, sim.After(w.virtual), nil, -1)
		ns = append(ns, clock()-t0)
		r.close()
	}
	return ns, nil
}

// rep is the measurement of one repetition.
type rep struct {
	setupNS, runNS int64
	offered        uint64
	fired          []uint64 // per engine
	digest         uint64
	liveHeap       float64 // bytes
	rt             runtimeDelta
	records        uint64 // delivered to the benchmark's sink
	err            error

	// traced repetitions only
	slicesUS []float64
	sinkNS   int64
	gauges   map[string]float64 // between-slice maxima and layer counters
}

func (r *rep) events() uint64 {
	var n uint64
	for _, f := range r.fired {
		n += f
	}
	return n
}

// repeat runs one repetition: set-up, run phase, live-heap reading and
// correctness check. A panic anywhere inside is a failed repetition,
// never an aborted run. With a tracer the run phase advances in fixed
// virtual-time slices; without one it is a single RunUntil call.
func (w *workload) repeat(seed uint64, shards int, tr *tracer) (res rep) {
	defer func() {
		if p := recover(); p != nil {
			res.err = fmt.Errorf("panic: %v", p)
		}
	}()
	end := sim.After(w.virtual)
	root := tr.begin("rep", -1)
	defer tr.end(root)

	t0 := clock()
	sp := tr.begin("setup", root)
	r := w.setup(seed, shards, end, tr, sp)
	defer r.close()
	tr.end(sp)
	res.setupNS = clock() - t0

	runName, drainName := "sim.RunUntil", "sim.Run"
	if shards > 0 {
		runName, drainName = "shard.RunUntil", "shard.Run"
	}
	// sinkChild closes span id and records the sink time it contained.
	lastSink := int64(0)
	sinkChild := func(id int) {
		tr.end(id)
		ns, _ := r.sink()
		tr.child("sink", id, ns-lastSink)
		lastSink = ns
	}

	before := readRuntime()
	run := tr.begin("run", root)
	t1 := clock()
	if tr == nil {
		r.runUntil(end)
	} else {
		res.gauges = map[string]float64{}
		for t := sim.Epoch; t < end; {
			t = min(t.Add(w.slice), end)
			s0 := clock()
			sp := tr.begin(runName, run)
			r.runUntil(t)
			sinkChild(sp)
			res.slicesUS = append(res.slicesUS, float64(clock()-s0)/1e3)
			pending := 0
			for _, e := range r.engines() {
				pending += e.Pending()
			}
			raise(res.gauges, "sim.pending_max", float64(pending))
			r.sample(res.gauges)
		}
	}
	sp = tr.begin("gen.Stop", run)
	res.offered = r.stop()
	tr.end(sp)
	sp = tr.begin(drainName, run)
	r.drain()
	sinkChild(sp)
	if m, ok := r.(interface{ flush() }); ok {
		sp = tr.begin("mon.Merge.Flush", run)
		m.flush()
		sinkChild(sp)
	}
	res.runNS = clock() - t1
	tr.end(run)
	res.rt = readRuntime().sub(before)

	runtime.GC()
	res.liveHeap = readLiveHeap()
	runtime.KeepAlive(r)

	for _, e := range r.engines() {
		res.fired = append(res.fired, e.Fired())
	}
	res.sinkNS, res.records = r.sink()
	res.digest, res.err = r.verify(res.offered)
	if res.gauges != nil {
		r.layers(res.offered, res.gauges)
	}
	return res
}

// runtimeDelta is what the Go runtime and the frame pool did during a
// run phase.
type runtimeDelta struct {
	allocs, allocBytes, gcCycles float64
	gcCPU, totalCPU              float64 // seconds
	poolGets, poolFresh          float64
}

var runtimeNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/tiny/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeDelta {
	s := make([]metrics.Sample, len(runtimeNames))
	for i, n := range runtimeNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	gets, _, fresh := wire.DefaultPool.Stats()
	return runtimeDelta{
		allocs:     v(0) + v(1),
		allocBytes: v(2),
		gcCycles:   v(3),
		gcCPU:      v(4),
		totalCPU:   v(5),
		poolGets:   float64(gets),
		poolFresh:  float64(fresh),
	}
}

func (a runtimeDelta) sub(b runtimeDelta) runtimeDelta {
	return runtimeDelta{
		allocs:     a.allocs - b.allocs,
		allocBytes: a.allocBytes - b.allocBytes,
		gcCycles:   a.gcCycles - b.gcCycles,
		gcCPU:      a.gcCPU - b.gcCPU,
		totalCPU:   a.totalCPU - b.totalCPU,
		poolGets:   a.poolGets - b.poolGets,
		poolFresh:  a.poolFresh - b.poolFresh,
	}
}

func (a *runtimeDelta) add(b runtimeDelta) {
	a.allocs += b.allocs
	a.allocBytes += b.allocBytes
	a.gcCycles += b.gcCycles
	a.gcCPU += b.gcCPU
	a.totalCPU += b.totalCPU
	a.poolGets += b.poolGets
	a.poolFresh += b.poolFresh
}

// readLiveHeap returns the heap bytes the last GC marked live.
func readLiveHeap() float64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return float64(s[0].Value.Uint64())
}

// effectiveCores times a fixed spin on one goroutine and the same spin on
// two at once: 2.0 means two idle cores, 1.0 means the two goroutines
// shared one. A shard speedup is only observable above 1.
func effectiveCores() float64 {
	const n = 1 << 26
	spin := func() uint64 {
		x := uint64(1)
		for i := 0; i < n; i++ {
			x = x*6364136223846793005 + 1442695040888963407
		}
		return x
	}
	var out [2]uint64
	t0 := time.Now()
	out[0] = spin()
	one := time.Since(t0)
	var wg sync.WaitGroup
	t0 = time.Now()
	for i := range out {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i] = spin()
		}(i)
	}
	wg.Wait()
	two := time.Since(t0)
	runtime.KeepAlive(out)
	return 2 * one.Seconds() / two.Seconds()
}

func raise(m map[string]float64, key string, v float64) {
	if v > m[key] {
		m[key] = v
	}
}

// ratio is a/b, or 0 when b is 0 (a layer the workload does not run).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// quantile returns the q-quantile of xs, interpolating linearly between
// order statistics (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
