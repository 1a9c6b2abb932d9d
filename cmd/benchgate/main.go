// Command benchgate is the benchmark-regression CI gate: it times every
// driver in experiments.Drivers (the registry BenchmarkDrivers runs
// too) plus three of its own that exercise packages below the
// experiments, writes the measured ns/op and allocs/op to a JSON
// report, and compares the report against a checked-in baseline with
// per-metric tolerances. CI fails the build when a benchmark regresses
// past tolerance and uploads the report as an artifact, so the perf
// trajectory is tracked per commit. A driver whose run breaks its
// checks fails the gate, -write included, naming the driver: a
// baseline is never taken from a run that stopped conserving loss.
//
// Usage:
//
//	benchgate                      # measure, write BENCH.json, compare to BENCH_BASELINE.json
//	benchgate -write               # measure and (re)write the baseline instead of comparing
//	benchgate -count 5 -tol-ns 1.5 # more samples, looser wall-time tolerance
//	benchgate -expect-improve E14Capture100G:1.2
//	                               # additionally fail unless E14 runs ≥1.2× faster than baseline
//	benchgate -cpuprofile cpu.pprof -memprofile mem.pprof
//	                               # profile the gated drivers (go tool pprof -top cpu.pprof)
//
// Each measurement prints its percentage delta against the baseline as
// it lands, so a CI log shows where the time went without a separate
// diff step. Drivers without a baseline entry are listed as not gated;
// they gate once the baseline is rewritten.
//
// Measurements run with Workers=1: serial sweeps keep allocation counts
// reproducible (parallel workers shuffle sync.Pool hit rates), and the
// gate's wall-time figures stay comparable across differently loaded CI
// machines. ns/op takes the minimum across -count runs — the classic
// noise-resistant estimator — and allocs/op likewise.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"osnt/internal/analysis"
	"osnt/internal/experiments"
	"osnt/internal/packet"
	"osnt/internal/prof"
	"osnt/internal/sim"
)

// result is one benchmark's measurement.
type result struct {
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// report maps benchmark name → measurement. JSON marshalling sorts map
// keys, so reports diff cleanly.
type report map[string]result

// drivers is everything benchgate times: the experiment drivers plus
// three micro drivers for packages below the experiments.
var drivers = append(slices.Clip(experiments.Drivers),
	experiments.Driver{Name: "PacketChecksum", Run: checksumDriver},
	experiments.Driver{Name: "EngineChurn", Run: engineChurnDriver},
	experiments.Driver{Name: "LintCheckSelf", Run: lintSelfDriver},
)

// checksumSink keeps the checksum loop observable so the compiler cannot
// elide it.
var checksumSink uint16

// checksumDriver is the in-process twin of BenchmarkPacketChecksum: the
// word-at-a-time Internet checksum over a 1518 B frame, enough rounds
// that one driver run costs a stable few milliseconds.
func checksumDriver() error {
	data := make([]byte, 1518)
	for i := range data {
		data[i] = byte(i*31 + 7)
	}
	for i := 0; i < 20000; i++ {
		checksumSink = packet.Checksum(data, uint32(i))
	}
	return nil
}

// engineChurnDriver is the in-process twin of BenchmarkEngineChurn:
// arm/fire churn against a one-million-pending event heap, every fired
// event re-arming itself so the heap depth — and therefore the sift cost
// the inlined pointer heap is optimising — stays constant.
func engineChurnDriver() error {
	const (
		pending = 1 << 20
		churn   = 1 << 20
	)
	e := sim.NewEngine()
	evs := make([]*sim.Event, pending)
	for i := range evs {
		i := i
		evs[i] = e.Schedule(sim.Time(1+i), func() {
			e.Arm(evs[i], e.Now().Add(sim.Duration(1+uint64(i)*2654435761%100000)))
		})
	}
	for n := 0; n < churn; n++ {
		e.Step()
	}
	return nil
}

// lintSelfDriver runs the internal/analysis suite over the whole module —
// parse, type-check, four analyzers — so the invariant gate's own cost is
// tracked: a pathological slowdown in the ownership interpreter would
// otherwise only surface as mysteriously slower CI.
func lintSelfDriver() error {
	diags, _, err := analysis.SelfCheck(".")
	if err != nil {
		return fmt.Errorf("lint self-check: %w", err)
	}
	if len(diags) != 0 {
		return fmt.Errorf("lint self-check found %d diagnostics; run cmd/lintcheck", len(diags))
	}
	return nil
}

// measure runs fn count times and returns the minimum wall time and
// allocation count per run, or the first error a run returns. A warm-up
// run first fills the frame pool and code caches; a GC before each
// sample keeps the allocator in a comparable state.
func measure(fn func() error, count int) (result, error) {
	if err := fn(); err != nil { // warm-up
		return result{}, err
	}
	var best result
	for i := 0; i < count; i++ {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		t0 := time.Now()
		err := fn()
		ns := float64(time.Since(t0).Nanoseconds())
		runtime.ReadMemStats(&after)
		if err != nil {
			return result{}, err
		}
		allocs := float64(after.Mallocs - before.Mallocs)
		if i == 0 || ns < best.NsPerOp {
			best.NsPerOp = ns
		}
		if i == 0 || allocs < best.AllocsPerOp {
			best.AllocsPerOp = allocs
		}
	}
	return best, nil
}

// violation is one benchmark outside tolerance.
type violation struct {
	name, metric string
	got, limit   float64
}

func (v violation) String() string {
	switch v.metric {
	case "presence":
		return fmt.Sprintf("%s: missing from this run but present in the baseline (delete it from the baseline if removal was deliberate)", v.name)
	case "improve":
		return fmt.Sprintf("%s: ns/op %.0f misses the expected improvement (needs ≤ %.0f)", v.name, v.got, v.limit)
	case "improve-presence":
		return fmt.Sprintf("%s: named in -expect-improve but missing from the run or the baseline", v.name)
	}
	return fmt.Sprintf("%s: %s %.0f exceeds limit %.0f", v.name, v.metric, v.got, v.limit)
}

// pctDelta is the signed percentage change of cur over base: −34.2 means
// cur is 34.2% below the baseline.
func pctDelta(cur, base float64) float64 {
	if base == 0 {
		return 0
	}
	return (cur - base) / base * 100
}

// expectation is one -expect-improve demand: the named benchmark's
// ns/op must be at least factor× below its improve baseline. file, when
// non-empty, names a frozen snapshot to measure against instead of the
// run's default improve baseline — so one invocation can hold E14 to its
// pre-batching snapshot and E19 to its pre-sharding one.
type expectation struct {
	factor float64
	file   string
}

// parseExpectations parses the -expect-improve value: comma-separated
// name:factor[@file] entries (factor 1.2 = 20% faster; @file pins the
// entry to a specific frozen baseline).
func parseExpectations(s string) (map[string]expectation, error) {
	exp := make(map[string]expectation)
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, val, ok := strings.Cut(part, ":")
		if !ok || name == "" {
			return nil, fmt.Errorf("expect-improve %q: want name:factor[@file]", part)
		}
		val, file, _ := strings.Cut(val, "@")
		f, err := strconv.ParseFloat(val, 64)
		if err != nil || f < 1 {
			return nil, fmt.Errorf("expect-improve %q: factor must be a number ≥ 1", part)
		}
		exp[name] = expectation{factor: f, file: file}
	}
	return exp, nil
}

// checkImprovements enforces -expect-improve: each expectation measures
// against its own @file baseline when given, else fallback. An
// expectation fails when the measured ns/op exceeds baseline/factor, or
// when the named benchmark is absent from either side — a silently
// unmeasurable expectation must fail, not pass. Baseline files load once
// each, and an unreadable file is itself a violation.
func checkImprovements(got, fallback report, exp map[string]expectation, load func(path string) (report, error)) []violation {
	names := make([]string, 0, len(exp))
	for name := range exp {
		names = append(names, name)
	}
	sort.Strings(names)
	cache := make(map[string]report)
	var out []violation
	for _, name := range names {
		baseline := fallback
		if file := exp[name].file; file != "" {
			frozen, ok := cache[file]
			if !ok {
				var err error
				frozen, err = load(file)
				if err != nil {
					fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
					out = append(out, violation{name, "improve-presence", 0, 0})
					continue
				}
				cache[file] = frozen
			}
			baseline = frozen
		}
		base, okBase := baseline[name]
		cur, okGot := got[name]
		if !okBase || !okGot {
			out = append(out, violation{name, "improve-presence", 0, 0})
			continue
		}
		if limit := base.NsPerOp / exp[name].factor; cur.NsPerOp > limit {
			out = append(out, violation{name, "improve", cur.NsPerOp, limit})
		}
	}
	return out
}

// ungated lists, sorted, the measured benchmarks that have no baseline
// entry and so pass compare unchecked.
func ungated(got, baseline report) []string {
	var out []string
	for name := range got {
		if _, ok := baseline[name]; !ok {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// compare checks every measured benchmark against the baseline. ns/op may
// grow by the factor tolNS, allocs/op by tolAllocs (with a small absolute
// slack so tiny baselines aren't gated at ±1 allocation). Benchmarks
// missing from the baseline pass (they gate once the baseline is
// rewritten); benchmarks missing from the measurement fail — a deleted
// benchmark must be deleted from the baseline deliberately.
func compare(got, baseline report, tolNS, tolAllocs float64) []violation {
	const allocSlack = 64
	var out []violation
	names := make([]string, 0, len(baseline))
	for name := range baseline {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		base := baseline[name]
		cur, ok := got[name]
		if !ok {
			out = append(out, violation{name, "presence", 0, 0})
			continue
		}
		if limit := base.NsPerOp * tolNS; cur.NsPerOp > limit {
			out = append(out, violation{name, "ns/op", cur.NsPerOp, limit})
		}
		if limit := base.AllocsPerOp*tolAllocs + allocSlack; cur.AllocsPerOp > limit {
			out = append(out, violation{name, "allocs/op", cur.AllocsPerOp, limit})
		}
	}
	return out
}

// loadReport reads and parses one benchmark report file.
func loadReport(path string) (report, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return r, nil
}

func writeJSON(path string, r report) error {
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func main() {
	out := flag.String("out", "BENCH.json", "where to write the measured report")
	baselinePath := flag.String("baseline", "BENCH_BASELINE.json", "checked-in baseline to compare against")
	write := flag.Bool("write", false, "rewrite the baseline from this run instead of comparing")
	count := flag.Int("count", 3, "samples per benchmark (minimum is reported)")
	tolNS := flag.Float64("tol-ns", 1.25, "allowed ns/op growth factor over baseline")
	tolAllocs := flag.Float64("tol-allocs", 1.10, "allowed allocs/op growth factor over baseline")
	expectImprove := flag.String("expect-improve", "", "comma-separated name:factor[@file] entries whose ns/op must beat the improve baseline (or the @file snapshot) by ≥ factor (e.g. E14Capture100G:1.2,E19FatTreeK4:1.5@BENCH_PRESHARD.json)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the measurements to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile, taken after a GC once the measurements end, to this file")
	improveBase := flag.String("improve-baseline", "", "baseline -expect-improve measures against (default: the -baseline file); point it at a frozen pre-optimisation snapshot to assert a speedup that outlives baseline rewrites")
	flag.Parse()

	expectations, err := parseExpectations(*expectImprove)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
	experiments.Workers = 1

	// Load the baseline up front (unless this run rewrites it) so each
	// measurement prints its percentage delta as it lands.
	var baseline report
	if !*write {
		data, err := os.ReadFile(*baselinePath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %v (run with -write to create the baseline)\n", err)
			os.Exit(1)
		}
		if err := json.Unmarshal(data, &baseline); err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: parsing %s: %v\n", *baselinePath, err)
			os.Exit(1)
		}
	}

	stop, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(1)
	}
	got := make(report, len(drivers))
	var failed []string
	for _, d := range drivers {
		r, err := measure(d.Run, *count)
		if err != nil {
			fmt.Printf("%-20s FAILED: %v\n", d.Name, err)
			failed = append(failed, d.Name)
			continue
		}
		got[d.Name] = r
		fmt.Printf("%-20s %12.0f ns/op %10.0f allocs/op", d.Name, r.NsPerOp, r.AllocsPerOp)
		if base, ok := baseline[d.Name]; ok && base.NsPerOp > 0 {
			fmt.Printf("  %+7.1f%% ns/op %+7.1f%% allocs/op vs baseline",
				pctDelta(r.NsPerOp, base.NsPerOp), pctDelta(r.AllocsPerOp, base.AllocsPerOp))
		}
		fmt.Println()
	}
	if err := stop(); err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(1)
	}
	if len(failed) > 0 {
		fmt.Fprintf(os.Stderr, "benchgate: drivers failed their checks: %s\n", strings.Join(failed, ", "))
		os.Exit(1)
	}
	if err := writeJSON(*out, got); err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(1)
	}
	if *write {
		if err := writeJSON(*baselinePath, got); err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("benchgate: baseline written to %s\n", *baselinePath)
		return
	}

	improveAgainst := baseline
	if *improveBase != "" {
		frozen, err := loadReport(*improveBase)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
			os.Exit(1)
		}
		improveAgainst = frozen
	}
	if names := ungated(got, baseline); len(names) > 0 {
		fmt.Printf("benchgate: not gated (no entry in %s): %s\n", *baselinePath, strings.Join(names, ", "))
	}
	violations := compare(got, baseline, *tolNS, *tolAllocs)
	violations = append(violations, checkImprovements(got, improveAgainst, expectations, loadReport)...)
	for _, v := range violations {
		fmt.Fprintf(os.Stderr, "benchgate: REGRESSION %s\n", v)
	}
	if len(violations) > 0 {
		os.Exit(1)
	}
	fmt.Printf("benchgate: %d benchmarks within tolerance of %s (ns/op ×%.2f, allocs/op ×%.2f)\n",
		len(baseline), *baselinePath, *tolNS, *tolAllocs)
	if len(expectations) > 0 {
		fmt.Printf("benchgate: %d expected improvements held\n", len(expectations))
	}
}
