// Command perfbench is the repository benchmark: it measures the host
// cost of simulating three named scenarios, end to end and layer by
// layer, and checks every repetition's results.
//
//	bash perfbench/run.sh --workload capture100g --seed 1 --seconds 20 --trace 0
//
// Each workload runs as a closed loop of one: one scenario at a time in
// this process, every repetition starting after the previous one ends.
// One untimed warm-up repetition at goldenSeed comes first and must
// reproduce the digest recorded below. The timed repetitions then run on
// the given seed until --seconds have passed, and each must reproduce the
// first one's digest.
//
// --trace 0 prints the end-to-end metrics. --trace 1 alternates traced
// repetitions (spans around every call into a layer, run phase cut into
// fixed virtual-time slices) with untraced ones, prints the per-layer
// metrics, and writes the spans and a CPU profile under
// .bench_build/perfbench/. The last line of standard output is a JSON
// object: {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"slices"

	"osnt/internal/sim"
)

// goldenSeed is the seed the recorded digests belong to.
const goldenSeed = 1

// minReps is the fewest timed repetitions (or traced cycles) a run makes,
// however short --seconds is.
const minReps = 5

var workloads = []*workload{
	{
		name:    "capture100g",
		virtual: 4 * sim.Millisecond,
		slice:   20 * sim.Microsecond,
		inputs:  64,
		setups:  1,
		golden:  0x3155e4d64d239bd4,
		setup: func(seed uint64, _ int, end sim.Time, tr *tracer, parent int) rig {
			return setupCapture(seed, end, tr, parent)
		},
	},
	{
		name:    "fattree_k8",
		virtual: 1000 * sim.Microsecond,
		slice:   2 * sim.Microsecond,
		inputs:  1,
		setups:  8,
		golden:  0x2b9f3c3678d2bb26,
		setup: func(seed uint64, _ int, _ sim.Time, tr *tracer, parent int) rig {
			return setupFabric(seed, 0.9, 0, 0, tr, parent)
		},
	},
	{
		name:    "fattree_k8_sharded",
		virtual: 1 * sim.Millisecond,
		slice:   10 * sim.Microsecond,
		shards:  2,
		inputs:  1,
		setups:  1,
		golden:  0x89991c950c86f457,
		setup: func(seed uint64, shards int, _ sim.Time, tr *tracer, parent int) rig {
			return setupFabric(seed, 0.05, sim.Microsecond, shards, tr, parent)
		},
	},
}

// metric is one reported figure with its unit.
type metric struct {
	name, unit string
}

var endToEnd = []metric{
	{"frames_per_s", "1/s"},
	{"setup_s", "s"},
	{"live_heap_mb", "MB"},
}

var perLayer = []metric{
	{"setup.traced_s", "s"},
	{"topo.build_frac", "frac"},
	{"mon.attach_frac", "frac"},
	{"fabric.build_frac", "frac"},
	{"fabric.sources_frac", "frac"},
	{"gen.new_frac", "frac"},
	{"sim.events", "count"},
	{"sim.events_per_frame", "events/frame"},
	{"sim.ns_per_event", "ns"},
	{"sim.pending_max", "count"},
	{"sim.slice_us_p50", "us"},
	{"sim.slice_us_p99", "us"},
	{"sim.slice_samples", "count"},
	{"shard.events_max_over_mean", "ratio"},
	{"shard.host_us_per_sim_us", "us/us"},
	{"shard.overhead_vs_1shard", "ratio"},
	{"switchsim.hops_per_frame", "hops/frame"},
	{"switchsim.sprays", "count"},
	{"switchsim.drop_frac", "frac"},
	{"mon.ring_drop_frac", "frac"},
	{"mon.queue_imbalance", "ratio"},
	{"mon.ring_depth_max", "count"},
	{"merge.pending_max", "count"},
	{"merge.flush_frac", "frac"},
	{"sink.ns_per_record", "ns"},
	{"sink.run_frac", "frac"},
	{"flowstats.flows", "count"},
	{"flowstats.overflow", "count"},
	{"wire.pool_fresh_frac", "frac"},
	{"runtime.allocs_per_frame", "allocs/frame"},
	{"runtime.alloc_bytes_per_frame", "B/frame"},
	{"runtime.gc_cycles", "count/rep"},
	{"runtime.gc_cpu_frac", "frac"},
	{"host.effective_cores", "cores"},
	{"trace.overhead_x", "ratio"},
	{"trace.run_cover_frac", "frac"},
}

// runState counts checked repetitions against the digests they must
// reproduce, one per input.
type runState struct {
	w                 *workload
	attempted, failed int
	want              map[int]uint64
}

// check counts one repetition of input i and reports whether it passed:
// no error, and the digest equal to that of the input's first passing
// repetition (or to the golden digest, when seeded with it).
func (s *runState) check(i int, r rep, what string) bool {
	s.attempted++
	err := r.err
	want, ok := s.want[i%s.w.inputs]
	if err == nil && ok && r.digest != want {
		err = fmt.Errorf("input %d: digest %016x, want %016x", i%s.w.inputs, r.digest, want)
	}
	if err != nil {
		s.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s %s repetition failed: %v\n", s.w.name, what, err)
		return false
	}
	if !ok {
		s.want[i%s.w.inputs] = r.digest
	}
	return true
}

func main() {
	name := flag.String("workload", "", "workload to run: capture100g, fattree_k8 or fattree_k8_sharded")
	seed := flag.Uint64("seed", goldenSeed, "workload seed")
	seconds := flag.Float64("seconds", 10, "how long the timed repetitions run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	flag.Parse()

	var w *workload
	for _, c := range workloads {
		if c.name == *name {
			w = c
		}
	}
	if w == nil || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload capture100g|fattree_k8|fattree_k8_sharded, --seconds > 0, --trace 0|1")
		os.Exit(2)
	}

	// Warm-up: fills the frame pool and the heap, and checks the recorded
	// digest of the golden seed's first input. Its figures are discarded.
	s := &runState{w: w, want: map[int]uint64{}}
	if *seed == goldenSeed {
		s.want[0] = w.golden
	}
	warm := &runState{w: w, want: map[int]uint64{0: w.golden}}
	warm.check(0, w.repeat(w.input(goldenSeed, 0), w.shards, nil), "warm-up")

	var metrics map[string]float64
	var units []metric
	if *trace == 0 {
		metrics, units = measureEndToEnd(w, s, *seed, *seconds), endToEnd
	} else {
		metrics, units = measureLayers(w, s, *seed, *seconds), perLayer
	}
	attempted, failed := s.attempted+warm.attempted, s.failed+warm.failed

	fmt.Printf("workload %s  seed %d  repetitions %d  failed %d  fail_frac %g\n",
		w.name, *seed, attempted, failed, float64(failed)/float64(attempted))
	fmt.Printf("input 0 digest %016x (golden seed %d: %016x)\n", s.want[0], goldenSeed, w.golden)
	out := map[string]any{}
	for _, m := range units {
		fmt.Printf("  %-32s %-14.6g %s\n", m.name, metrics[m.name], m.unit)
		out[m.name] = map[string]any{"value": metrics[m.name], "unit": m.unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct":   failed == 0,
		"attempted": attempted,
		"failed":    failed,
		"metrics":   out,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// measureEndToEnd runs untraced repetitions for the given time and
// reports the medians of frames offered per run-phase second, set-up
// time and live heap.
func measureEndToEnd(w *workload, s *runState, seed uint64, seconds float64) map[string]float64 {
	var fps, setup, heap []float64
	deadline := clock() + int64(seconds*1e9)
	for i := 0; i < minReps || clock() < deadline; i++ {
		r := w.repeat(w.input(seed, i), w.shards, nil)
		if !s.check(i, r, "timed") {
			continue
		}
		fps = append(fps, float64(r.offered)/(float64(r.runNS)/1e9))
		setup = append(setup, float64(r.setupNS)/1e9)
		heap = append(heap, r.liveHeap/1e6)
		extra, err := w.setupOnly(w.input(seed, i))
		if err != nil {
			s.check(i, rep{err: err}, "extra set-up")
		}
		for _, ns := range extra {
			setup = append(setup, float64(ns)/1e9)
		}
	}
	return map[string]float64{
		"frames_per_s": median(fps),
		"setup_s":      median(setup),
		"live_heap_mb": median(heap),
	}
}

// measureLayers runs cycles of one traced and one untraced repetition —
// plus, on a sharded workload, an untraced 1-shard reference of the same
// seed — and reduces them to the per-layer metrics.
func measureLayers(w *workload, s *runState, seed uint64, seconds float64) map[string]float64 {
	dir := filepath.Join(".bench_build", "perfbench")
	base := filepath.Join(dir, fmt.Sprintf("%s-seed%d", w.name, seed))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: no trace directory:", err)
	}
	if f, err := os.Create(base + ".cpu.pprof"); err == nil {
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: no CPU profile:", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: CPU profile:", err)
			}
		}()
	}

	m := map[string]float64{"host.effective_cores": effectiveCores()}
	tr := &tracer{}
	var (
		traced, plain, ref []rep
		sliceUS            []float64
		rt                 runtimeDelta
	)
	deadline := clock() + int64(seconds*1e9)
	for i := 0; i < minReps || clock() < deadline; i++ {
		in := w.input(seed, i)
		tr.run = i
		if r := w.repeat(in, w.shards, tr); s.check(i, r, "traced") {
			traced = append(traced, r)
			sliceUS = append(sliceUS, r.slicesUS...)
		}
		if r := w.repeat(in, w.shards, nil); s.check(i, r, "untraced") {
			plain = append(plain, r)
			rt.add(r.rt)
		}
		if w.shards > 1 {
			if r := w.repeat(in, 1, nil); s.check(i, r, "1-shard reference") {
				ref = append(ref, r)
			}
		}
	}
	if len(traced) == 0 || len(plain) == 0 {
		return m
	}

	// Counts come from the first traced repetition, whose input depends on
	// the seed alone, so they repeat exactly across runs of one seed.
	first := traced[0]
	for k, v := range first.gauges {
		m[k] = v
	}
	events := float64(first.events())
	m["sim.events"] = events
	m["sim.events_per_frame"] = ratio(events, float64(first.offered))
	m["shard.events_max_over_mean"] = ratio(float64(slices.Max(first.fired)), events/float64(len(first.fired)))

	var setupNS, runNS, nsPerEvent []float64
	var sinkSum, records, runSum, offered float64
	for _, r := range traced {
		setupNS = append(setupNS, float64(r.setupNS))
		sinkSum += float64(r.sinkNS)
		records += float64(r.records)
		runSum += float64(r.runNS)
	}
	for _, r := range plain {
		runNS = append(runNS, float64(r.runNS))
		nsPerEvent = append(nsPerEvent, float64(r.runNS)/float64(r.events()))
		offered += float64(r.offered)
	}
	m["setup.traced_s"] = median(setupNS) / 1e9
	m["sim.ns_per_event"] = median(nsPerEvent)
	m["shard.host_us_per_sim_us"] = median(runNS) / 1e3 / (float64(w.virtual) / float64(sim.Microsecond))
	m["sim.slice_us_p50"] = quantile(sliceUS, 0.50)
	m["sim.slice_us_p99"] = quantile(sliceUS, 0.99)
	m["sim.slice_samples"] = float64(len(sliceUS))
	m["sink.ns_per_record"] = ratio(sinkSum, records)
	m["sink.run_frac"] = ratio(sinkSum, runSum)
	if len(ref) > 0 {
		var refNS []float64
		for _, r := range ref {
			refNS = append(refNS, float64(r.runNS))
		}
		m["shard.overhead_vs_1shard"] = median(runNS) / median(refNS)
	}

	tr.selfTimes()
	setupAll := float64(tr.sum("setup", "rep"))
	share := func(name string) float64 { return ratio(float64(tr.sum(name, "setup")), setupAll) }
	m["topo.build_frac"] = share("topo.Build")
	m["mon.attach_frac"] = share("mon.Attach")
	m["fabric.build_frac"] = share("fabric.Build")
	m["fabric.sources_frac"] = share("fabric.Sources")
	m["gen.new_frac"] = share("gen.New")
	runAll := float64(tr.sum("run", "rep"))
	m["merge.flush_frac"] = ratio(float64(tr.sum("mon.Merge.Flush", "run")), runAll)
	var covered int64
	for _, sp := range tr.spans {
		if sp.Parent >= 0 && tr.spans[sp.Parent].Name == "run" {
			covered += sp.dur()
		}
	}
	m["trace.run_cover_frac"] = ratio(float64(covered), runAll)

	fps := func(rs []rep) float64 {
		var v []float64
		for _, r := range rs {
			v = append(v, float64(r.offered)/float64(r.runNS))
		}
		return median(v)
	}
	m["trace.overhead_x"] = fps(plain) / fps(traced)

	m["wire.pool_fresh_frac"] = ratio(rt.poolFresh, rt.poolGets)
	m["runtime.allocs_per_frame"] = ratio(rt.allocs, offered)
	m["runtime.alloc_bytes_per_frame"] = ratio(rt.allocBytes, offered)
	m["runtime.gc_cycles"] = rt.gcCycles / float64(len(plain))
	m["runtime.gc_cpu_frac"] = ratio(rt.gcCPU, rt.totalCPU)

	tr.summary(os.Stdout)
	if err := tr.write(base + ".spans.jsonl"); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: spans not written:", err)
	}
	return m
}
