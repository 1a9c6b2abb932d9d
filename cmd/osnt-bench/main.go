// Command osnt-bench regenerates the paper's evaluation: every experiment
// table from DESIGN.md (E1–E8, plus the scaling sweeps E9 multi-port,
// E10 tester mesh, E11 40G ports, E12 mixed-rate fan-in, E13 multi-DUT
// chain, E14 100G multi-queue capture, E15 oversubscribed ECMP fabric,
// E16 per-hop loss attribution, E17 per-flow analytics over merged
// multi-queue capture, E18 frame-train coalescing, E19 synthesized
// fat-tree fabrics and E20 sharded conservative-lookahead execution)
// printed to stdout.
// Use -e to select a single experiment,
// -workers to bound sweep parallelism (tables are byte-identical at any
// worker count), -train to override the frame-train cap of the
// batching experiments (0 keeps each experiment's own setting) and
// -shards to cap the shard axis of the sharded experiment (rows that
// remain are byte-identical at any cap).
//
// Usage:
//
//	osnt-bench                    # run everything, sweeps parallel
//	osnt-bench -e e3              # Demo Part I only
//	osnt-bench -workers 1         # serial reference run
//	osnt-bench -losses            # per-hop/per-reason loss attribution table
//	osnt-bench -list              # list experiment ids
//	osnt-bench -write-experiments # regenerate EXPERIMENTS.md tables in place
//	osnt-bench -e e14 -cpuprofile cpu.pprof -memprofile mem.pprof
//	                              # profile one experiment (go tool pprof -top cpu.pprof)
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"osnt/internal/experiments"
	"osnt/internal/prof"
	"osnt/internal/stats"
)

var runners = []struct {
	id   string
	desc string
	run  func() *stats.Table
}{
	{"e1", "line-rate generation vs frame size", func() *stats.Table { return experiments.E1LineRate(0) }},
	{"e2", "GPS clock discipline", func() *stats.Table { return experiments.E2ClockDiscipline(0) }},
	{"e3", "legacy switch latency vs load (Demo Part I)", func() *stats.Table { return experiments.E3SwitchLatency(0) }},
	{"e4", "flow_mod control vs data plane latency (Demo Part II)", experiments.E4FlowModLatency},
	{"e5", "forwarding consistency during updates (Demo Part II)", experiments.E5Consistency},
	{"e6", "timestamp noise: hardware vs software", func() *stats.Table { return experiments.E6TimestampNoise(0) }},
	{"e7", "loss-limited capture path", func() *stats.Table { return experiments.E7CapturePath(0) }},
	{"e8", "control channel under dataplane load", experiments.E8ControlUnderLoad},
	{"e9", "multi-port scaling: 1/2/4/8 gen→mon pairs at line rate", func() *stats.Table { return experiments.E9PortScaling(0) }},
	{"e10", "tester mesh: 2/4 cards full-mesh through a DUT", func() *stats.Table { return experiments.E10TesterMesh(0) }},
	{"e11", "40G ports: gen→mon pairs at 40 Gb/s line rate", func() *stats.Table { return experiments.E11Rate40G(0) }},
	{"e12", "mixed-rate fan-in: 4×10G into a 40G uplink through a converting DUT", func() *stats.Table { return experiments.E12MixedRateFanIn(0) }},
	{"e13", "multi-DUT chain: per-hop latency decomposition over 1-4 switches", func() *stats.Table { return experiments.E13MultiDUTChain(0) }},
	{"e14", "100G capture: 1/2/4/8 DMA queues vs the loss-limited host path", func() *stats.Table { return experiments.E14Capture100G(0) }},
	{"e15", "oversubscribed fabric: 4×40G leaves ECMP-sprayed over 2×40G uplinks", func() *stats.Table { return experiments.E15Oversubscribed(0) }},
	{"e16", "per-hop loss attribution through a 4-deep converting chain", func() *stats.Table { return experiments.E16LossAttribution(0) }},
	{"e17", "per-flow analytics over merged multi-queue capture: elephants and mice through a lossy DUT", func() *stats.Table { return experiments.E17FlowAnalytics(0) }},
	{"e18", "frame-train coalescing at 100G: events per frame vs train cap, bit-exact across caps", func() *stats.Table { return experiments.E18TrainSpeedup(0) }},
	{"e19", "synthesized fat-trees: k=8/k=4 under permutation/incast/hot-spot with per-tier loss attribution", func() *stats.Table { return experiments.E19FatTree(0) }},
	{"e20", "sharded conservative-lookahead execution: k=8 matrices at 1/2/4/8 shards, digests proven identical", func() *stats.Table { return experiments.E20ShardedFabric(0) }},
}

func validIDs() string {
	ids := make([]string, len(runners))
	for i, r := range runners {
		ids[i] = r.id
	}
	return strings.Join(ids, ", ")
}

func main() {
	sel := flag.String("e", "", "experiment id to run (default: all)")
	list := flag.Bool("list", false, "list experiments and exit")
	workers := flag.Int("workers", 0, "sweep worker goroutines (0 = GOMAXPROCS, 1 = serial)")
	train := flag.Int("train", 0, "frame-train cap override for the batching experiments (0 = per-experiment default, 1 = per-frame path)")
	shards := flag.Int("shards", 0, "cap on the shard axis of the sharded experiment (0 = full 1/2/4/8 sweep; N keeps shard counts ≤ N plus the 1-shard reference)")
	losses := flag.Bool("losses", false, "print the per-hop/per-reason loss table of the canonical oversubscribed fabric (E15 at 100% load) and exit")
	writeExp := flag.String("write-experiments", "", "regenerate the generated tables section of the given markdown file (\"\" = off; CI uses EXPERIMENTS.md)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile, taken after a GC at exit, to this file")
	flag.Parse()
	experiments.Workers = *workers
	experiments.TrainCap = *train
	experiments.Shards = *shards

	stop, err := prof.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "osnt-bench: %v\n", err)
		os.Exit(1)
	}
	code := run(*sel, *list, *losses, *writeExp)
	if err := stop(); err != nil {
		fmt.Fprintf(os.Stderr, "osnt-bench: %v\n", err)
		code = max(code, 1)
	}
	os.Exit(code)
}

// run does what the flags select and returns the exit status.
func run(sel string, list, losses bool, writeExp string) int {
	if list {
		for _, r := range runners {
			fmt.Printf("%-4s %s\n", r.id, r.desc)
		}
		return 0
	}
	if losses {
		fmt.Println(experiments.E15LossMap(0).Table().String())
		return 0
	}
	if writeExp != "" {
		if err := writeExperiments(writeExp); err != nil {
			fmt.Fprintf(os.Stderr, "osnt-bench: %v\n", err)
			return 1
		}
		return 0
	}
	ran := 0
	for _, r := range runners {
		if sel != "" && !strings.EqualFold(sel, r.id) {
			continue
		}
		fmt.Println(r.run().String())
		ran++
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "osnt-bench: unknown experiment %q (valid: %s)\n", sel, validIDs())
		return 2
	}
	return 0
}

// Markers bracketing the generated section of EXPERIMENTS.md. Everything
// between them is owned by -write-experiments; CI regenerates and diffs,
// so the committed tables can never drift from the code.
const (
	tablesBegin = "<!-- tables:begin — generated by `osnt-bench -write-experiments EXPERIMENTS.md`; do not edit -->"
	tablesEnd   = "<!-- tables:end -->"
)

// writeExperiments regenerates every table and splices the result between
// the marker comments of path, leaving the surrounding prose untouched.
func writeExperiments(path string) error {
	old, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	text := string(old)
	begin := strings.Index(text, tablesBegin)
	end := strings.Index(text, tablesEnd)
	if begin < 0 || end < 0 || end < begin {
		return fmt.Errorf("%s: missing %q / %q markers", path, tablesBegin, tablesEnd)
	}

	var b strings.Builder
	b.WriteString(text[:begin])
	b.WriteString(tablesBegin)
	b.WriteString("\n\n```\n")
	for i, r := range runners {
		if i > 0 {
			b.WriteString("\n")
		}
		b.WriteString(r.run().String())
	}
	b.WriteString("```\n\n")
	b.WriteString(text[end:])
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
