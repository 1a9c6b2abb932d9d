// Command osnt-bench regenerates the paper's evaluation: every table of
// experiments.Registry (E1–E8 from the paper, E9–E20 the scaling sweeps
// beyond it) printed to stdout in registry order; -list names them.
// Use -e to select a single experiment,
// -workers to bound sweep parallelism (tables are byte-identical at any
// worker count) and -shards to cap the shard axis of the sharded
// experiment (rows that remain are byte-identical at any cap).
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
)

func validIDs() string {
	ids := make([]string, len(experiments.Registry))
	for i, x := range experiments.Registry {
		ids[i] = x.ID
	}
	return strings.Join(ids, ", ")
}

func main() {
	sel := flag.String("e", "", "experiment id to run (default: all)")
	list := flag.Bool("list", false, "list experiments and exit")
	workers := flag.Int("workers", 0, "sweep worker goroutines (0 = GOMAXPROCS, 1 = serial)")
	shards := flag.Int("shards", 0, "cap on the shard axis of the sharded experiment (0 = full 1/2/4/8 sweep; N keeps shard counts ≤ N plus the 1-shard reference)")
	losses := flag.Bool("losses", false, "print the per-hop/per-reason loss table of the canonical oversubscribed fabric (E15 at 100% load) and exit")
	writeExp := flag.String("write-experiments", "", "regenerate the generated tables section of the given markdown file (\"\" = off; CI uses EXPERIMENTS.md)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile, taken after a GC at exit, to this file")
	flag.Parse()
	experiments.Workers = *workers
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
		for _, x := range experiments.Registry {
			fmt.Printf("%-4s %s\n", x.ID, x.Desc)
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
	for _, x := range experiments.Registry {
		if sel != "" && !strings.EqualFold(sel, x.ID) {
			continue
		}
		fmt.Println(x.Table(0).String())
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
	for i, x := range experiments.Registry {
		if i > 0 {
			b.WriteString("\n")
		}
		b.WriteString(x.Table(0).String())
	}
	b.WriteString("```\n\n")
	b.WriteString(text[end:])
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
