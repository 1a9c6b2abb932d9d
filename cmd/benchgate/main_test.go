package main

import (
	"fmt"
	"path/filepath"
	"slices"
	"testing"

	"osnt/internal/experiments"
)

// noLoad is the checkImprovements loader for expectations with no @file
// pins — reaching it is a test bug.
func noLoad(path string) (report, error) {
	return nil, fmt.Errorf("unexpected load of %s", path)
}

func TestCompareWithinTolerancePasses(t *testing.T) {
	base := report{"E1": {NsPerOp: 1000, AllocsPerOp: 2000}}
	got := report{"E1": {NsPerOp: 1200, AllocsPerOp: 2100}}
	if v := compare(got, base, 1.25, 1.10); len(v) != 0 {
		t.Fatalf("unexpected violations: %v", v)
	}
}

func TestCompareFlagsNsRegression(t *testing.T) {
	base := report{"E1": {NsPerOp: 1000, AllocsPerOp: 0}}
	got := report{"E1": {NsPerOp: 1300, AllocsPerOp: 0}}
	v := compare(got, base, 1.25, 1.10)
	if len(v) != 1 || v[0].metric != "ns/op" {
		t.Fatalf("violations = %v, want one ns/op regression", v)
	}
}

func TestCompareFlagsAllocRegression(t *testing.T) {
	base := report{"E1": {NsPerOp: 0, AllocsPerOp: 10000}}
	got := report{"E1": {NsPerOp: 0, AllocsPerOp: 12000}}
	v := compare(got, base, 1.25, 1.10)
	if len(v) != 1 || v[0].metric != "allocs/op" {
		t.Fatalf("violations = %v, want one allocs/op regression", v)
	}
}

func TestCompareAllocSlackCoversTinyBaselines(t *testing.T) {
	// +50 allocations on a 10-alloc baseline is inside the absolute
	// slack, not a 6× regression.
	base := report{"E1": {AllocsPerOp: 10}}
	got := report{"E1": {AllocsPerOp: 60}}
	if v := compare(got, base, 1.25, 1.10); len(v) != 0 {
		t.Fatalf("unexpected violations: %v", v)
	}
}

func TestCompareMissingBenchmarkFails(t *testing.T) {
	base := report{"E1": {NsPerOp: 1000}, "E2": {NsPerOp: 1000}}
	got := report{"E1": {NsPerOp: 1000}}
	v := compare(got, base, 1.25, 1.10)
	if len(v) != 1 || v[0].name != "E2" || v[0].metric != "presence" {
		t.Fatalf("violations = %v, want E2 missing", v)
	}
}

func TestCompareNewBenchmarkNotGated(t *testing.T) {
	base := report{"E1": {NsPerOp: 1000}}
	got := report{"E1": {NsPerOp: 900}, "E99": {NsPerOp: 1e12}}
	if v := compare(got, base, 1.25, 1.10); len(v) != 0 {
		t.Fatalf("unexpected violations: %v", v)
	}
}

// A measured benchmark without a baseline entry passes compare, so it
// must at least be named as not gated.
func TestUngatedNamesNewBenchmarks(t *testing.T) {
	base := report{"E1": {NsPerOp: 1000}, "E2": {NsPerOp: 1000}}
	got := report{"E1": {NsPerOp: 900}, "E99": {NsPerOp: 1e12}, "E50": {NsPerOp: 1}}
	if names := ungated(got, base); !slices.Equal(names, []string{"E50", "E99"}) {
		t.Fatalf("ungated = %v, want [E50 E99]", names)
	}
	if names := ungated(base, base); len(names) != 0 {
		t.Fatalf("fully gated run listed %v", names)
	}
}

// The registry is the single list every runner reads: ids run e1…e20
// in order, every driver benchgate times has its own name, and every key
// of every checked-in report names one of those drivers — so renaming
// or dropping a driver fails here, not only in the benchgate CI job.
func TestRegistryConsistent(t *testing.T) {
	if n := len(experiments.Registry); n != 20 {
		t.Errorf("registry has %d experiments, want 20", n)
	}
	for i, x := range experiments.Registry {
		if want := fmt.Sprintf("e%d", i+1); x.ID != want {
			t.Errorf("registry entry %d has id %q, want %q", i, x.ID, want)
		}
	}
	names := make(map[string]bool, len(drivers))
	for _, d := range drivers {
		if names[d.Name] {
			t.Errorf("driver name %s is used twice", d.Name)
		}
		names[d.Name] = true
	}
	files, err := filepath.Glob("../../BENCH_*.json")
	if err != nil || len(files) == 0 {
		t.Fatalf("no checked-in BENCH_*.json reports found (err %v)", err)
	}
	for _, f := range files {
		r, err := loadReport(f)
		if err != nil {
			t.Fatal(err)
		}
		for name := range r {
			if !names[name] {
				t.Errorf("%s: key %s names no driver benchgate runs", filepath.Base(f), name)
			}
		}
	}
}

func TestParseExpectations(t *testing.T) {
	exp, err := parseExpectations("E14Capture100G:1.2, MonMerge8Q:2, E19FatTreeK4:1.5@BENCH_PRESHARD.json")
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]expectation{
		"E14Capture100G": {factor: 1.2},
		"MonMerge8Q":     {factor: 2},
		"E19FatTreeK4":   {factor: 1.5, file: "BENCH_PRESHARD.json"},
	}
	if len(exp) != len(want) {
		t.Fatalf("exp = %v", exp)
	}
	for name, w := range want {
		if exp[name] != w {
			t.Fatalf("exp[%s] = %v, want %v", name, exp[name], w)
		}
	}
	if exp, err := parseExpectations(""); err != nil || len(exp) != 0 {
		t.Fatalf("empty spec: exp = %v, err = %v", exp, err)
	}
	for _, bad := range []string{"E14", "E14:", "E14:0.5", ":1.2", "E14:abc"} {
		if _, err := parseExpectations(bad); err == nil {
			t.Errorf("parseExpectations(%q) accepted", bad)
		}
	}
}

func TestCheckImprovementsHolds(t *testing.T) {
	base := report{"E14": {NsPerOp: 1200}}
	got := report{"E14": {NsPerOp: 900}} // 1.33× faster
	if v := checkImprovements(got, base, map[string]expectation{"E14": {factor: 1.2}}, noLoad); len(v) != 0 {
		t.Fatalf("unexpected violations: %v", v)
	}
}

func TestCheckImprovementsFlagsShortfall(t *testing.T) {
	base := report{"E14": {NsPerOp: 1200}}
	got := report{"E14": {NsPerOp: 1100}} // only 1.09× faster
	v := checkImprovements(got, base, map[string]expectation{"E14": {factor: 1.2}}, noLoad)
	if len(v) != 1 || v[0].metric != "improve" {
		t.Fatalf("violations = %v, want one improve shortfall", v)
	}
}

func TestCheckImprovementsFlagsMissingName(t *testing.T) {
	base := report{"E14": {NsPerOp: 1200}}
	got := report{"E14": {NsPerOp: 100}}
	v := checkImprovements(got, base, map[string]expectation{"E99": {factor: 1.2}}, noLoad)
	if len(v) != 1 || v[0].metric != "improve-presence" {
		t.Fatalf("violations = %v, want one improve-presence failure", v)
	}
}

func TestCheckImprovementsPinnedFile(t *testing.T) {
	frozen := report{"E19": {NsPerOp: 3000}}
	fallback := report{"E19": {NsPerOp: 1000}} // would fail against this
	got := report{"E19": {NsPerOp: 1500}}      // 2× faster than frozen
	load := func(path string) (report, error) {
		if path != "frozen.json" {
			return nil, fmt.Errorf("unexpected path %s", path)
		}
		return frozen, nil
	}
	exp := map[string]expectation{"E19": {factor: 1.5, file: "frozen.json"}}
	if v := checkImprovements(got, fallback, exp, load); len(v) != 0 {
		t.Fatalf("unexpected violations: %v", v)
	}
	// The same measurement misses a 2.5× demand against the snapshot.
	exp["E19"] = expectation{factor: 2.5, file: "frozen.json"}
	v := checkImprovements(got, fallback, exp, load)
	if len(v) != 1 || v[0].metric != "improve" {
		t.Fatalf("violations = %v, want one improve shortfall", v)
	}
}

func TestCheckImprovementsUnreadableFileFails(t *testing.T) {
	got := report{"E19": {NsPerOp: 1}}
	load := func(path string) (report, error) { return nil, fmt.Errorf("no such file %s", path) }
	v := checkImprovements(got, report{}, map[string]expectation{"E19": {factor: 1.5, file: "gone.json"}}, load)
	if len(v) != 1 || v[0].metric != "improve-presence" {
		t.Fatalf("violations = %v, want one improve-presence failure", v)
	}
}

func TestPctDelta(t *testing.T) {
	if d := pctDelta(900, 1200); d != -25 {
		t.Fatalf("pctDelta(900, 1200) = %v, want -25", d)
	}
	if d := pctDelta(5, 0); d != 0 {
		t.Fatalf("pctDelta(5, 0) = %v, want 0", d)
	}
}
