package experiments

import (
	"errors"
	"fmt"
	"slices"
	"strings"

	"osnt/internal/sim"
	"osnt/internal/stats"
)

// Experiment is one printable table of the evaluation.
type Experiment struct {
	ID   string // the osnt-bench -e selector
	Desc string // the osnt-bench -list line
	// Table builds the table; 0 selects the full-length run that
	// EXPERIMENTS.md records. Experiments without a duration axis
	// ignore the argument.
	Table func(sim.Duration) *stats.Table
	// Check asserts the experiment's claim on a table of any length;
	// nil when the shape contract is all the table promises.
	Check func(*stats.Table) error
}

// Driver is one timed run: cmd/benchgate reports it under Name, and
// BenchmarkDrivers runs it as the sub-benchmark of that name. Run
// returns an error when the run breaks its checks.
type Driver struct {
	Name string
	Run  func() error
}

// Registry is the evaluation in paper order: E1–E8 reproduce the
// paper's claims, E9–E20 are the scaling sweeps beyond it. osnt-bench
// lists, selects, prints and writes these tables, and
// TestAllTablesWellFormed holds each full-length table to its checks.
var Registry = []Experiment{
	{"e1", "line-rate generation vs frame size", E1LineRate, every("ok", true)},
	{"e2", "GPS clock discipline", E2ClockDiscipline, nil},
	{"e3", "legacy switch latency vs load (Demo Part I)", E3SwitchLatency, nil},
	{"e4", "flow_mod control vs data plane latency (Demo Part II)",
		func(sim.Duration) *stats.Table { return E4FlowModLatency() }, nil},
	{"e5", "forwarding consistency during updates (Demo Part II)",
		func(sim.Duration) *stats.Table { return E5Consistency() }, nil},
	{"e6", "timestamp noise: hardware vs software",
		func(sim.Duration) *stats.Table { return E6TimestampNoise(0) }, rows(2)},
	{"e7", "loss-limited capture path", E7CapturePath, nil},
	{"e8", "control channel under dataplane load",
		func(sim.Duration) *stats.Table { return E8ControlUnderLoad() }, nil},
	{"e9", "multi-port scaling: 1/2/4/8 gen→mon pairs at line rate", E9PortScaling, every("ok", true)},
	{"e10", "tester mesh: 2/4 cards full-mesh through a DUT", E10TesterMesh, every("ok", true)},
	{"e11", "40G ports: gen→mon pairs at 40 Gb/s line rate", E11Rate40G, every("ok", true)},
	{"e12", "mixed-rate fan-in: 4×10G into a 40G uplink through a converting DUT",
		E12MixedRateFanIn, every("up-drops", uint64(0))},
	{"e13", "multi-DUT chain: per-hop latency decomposition over 1-4 switches",
		E13MultiDUTChain, every("loss(%)", 0.0)},
	{"e14", "100G capture: 1/2/4/8 DMA queues vs the loss-limited host path", E14Capture100G, checkE14},
	{"e15", "oversubscribed fabric: 4×40G leaves ECMP-sprayed over 2×40G uplinks",
		E15Oversubscribed, every("conserved", true)},
	{"e16", "per-hop loss attribution through a 4-deep converting chain",
		E16LossAttribution, every("conserved", true)},
	{"e17", "per-flow analytics over merged multi-queue capture: elephants and mice through a lossy DUT",
		E17FlowAnalytics, every("ok", true)},
	{"e18", "frame-train coalescing at 100G: events per frame vs train cap, bit-exact across caps",
		E18TrainSpeedup, every("ok", true)},
	{"e19", "synthesized fat-trees: k=8/k=4 under permutation/incast/hot-spot with per-tier loss attribution",
		E19FatTree, every("conserved", true)},
	{"e20", "sharded conservative-lookahead execution: k=8 matrices at 1/2/4/8 shards, digests proven identical",
		E20ShardedFabric, every("match", "ref", true)},
}

// Drivers are the timed runs. A table driver runs its experiment at a
// bench length that keeps one run within tens to a few hundred
// milliseconds of host time, with every table's shape intact, and
// holds the table to the experiment's checks; a micro driver isolates
// one hot path and rejects a degenerate result.
var Drivers = []Driver{
	// E1 needs a window long enough that losing the packet straddling
	// the window edge stays under the 0.1% line-rate tolerance.
	timed("E1LineRate", "e1", sim.Millisecond),
	timed("E2ClockDiscipline", "e2", 60*sim.Second),
	timed("E3SwitchLatency", "e3", 5*sim.Millisecond),
	timed("E4FlowModLatency", "e4", 0),
	timed("E5Consistency", "e5", 0),
	timedTable("E6TimestampNoise", func() *stats.Table { return E6TimestampNoise(500) }, experiment("e6").Check),
	timed("E7CapturePath", "e7", 5*sim.Millisecond),
	timed("E8ControlUnderLoad", "e8", 0),
	timed("E9PortScaling", "e9", sim.Millisecond),
	timed("E10TesterMesh", "e10", sim.Millisecond),
	timed("E11Rate40G", "e11", sim.Millisecond),
	timed("E12MixedRateFanIn", "e12", 2*sim.Millisecond),
	timed("E13MultiDUTChain", "e13", 2*sim.Millisecond),
	timed("E14Capture100G", "e14", sim.Millisecond),
	timed("E15Oversub", "e15", sim.Millisecond),
	timed("E16LossAttr", "e16", 2*sim.Millisecond),
	timed("E17FlowAnalytics", "e17", 2*sim.Millisecond),
	timed("E18TrainSweep", "e18", sim.Millisecond),
	timedTable("E19FatTreeK4Serial", func() *stats.Table { return E19FatTreeK4(250 * sim.Microsecond) },
		experiment("e19").Check),
	// E19FatTreeK4 is the sharded engine's headline gate: the nine
	// (matrix, load) points of E19FatTreeK4Serial, on 5 µs cables and 4
	// conservative-lookahead shards. CI holds it to ≥1.5× the frozen
	// serial figure in BENCH_PRESHARD.json, so its name and call stay
	// as they were when that snapshot was taken.
	timedTable("E19FatTreeK4", func() *stats.Table { return E19FatTreeK4Sharded(250*sim.Microsecond, 4) },
		rows(9), every("conserved", true)),
	{"E20ShardScaling", E20ShardMicroBench},
	{"FabricSynthK8", func() error {
		if n := FabricSynthMicroBench(); n != 80 {
			return fmt.Errorf("k=8 synthesis built %d switches, want 80", n)
		}
		return nil
	}},
	{"MonSteer8Q", func() error { return nonZero("steering rig delivered", SteerMicroBench(sim.Millisecond)) }},
	{"DUTSpray2W", func() error {
		if m0, m1 := SprayMicroBench(sim.Millisecond); m0 == 0 || m1 == 0 {
			return fmt.Errorf("degenerate spray: %d/%d", m0, m1)
		}
		return nil
	}},
	{"MonMerge8Q", func() error { return nonZero("merge rig emitted", MergeMicroBench(sim.Millisecond)) }},
	{"FlowTableUpsert", func() error { return nonZero("flow table tracked", FlowTableMicroBench()) }},
}

// experiment returns the Registry entry id. An unknown id is a typo in
// Drivers, so it panics while the package initialises.
func experiment(id string) Experiment {
	for _, x := range Registry {
		if x.ID == id {
			return x
		}
	}
	panic("experiments: no registry entry " + id)
}

// timed is the driver that builds the Registry entry id at duration d
// and holds the table to that entry's checks.
func timed(name, id string, d sim.Duration) Driver {
	x := experiment(id)
	return timedTable(name, func() *stats.Table { return x.Table(d) }, x.Check)
}

// timedTable is the driver that builds a table and verifies it against
// checks.
func timedTable(name string, build func() *stats.Table, checks ...func(*stats.Table) error) Driver {
	return Driver{name, func() error { return verify(build(), checks...) }}
}

// verify holds tbl to the shape contract osnt-bench and EXPERIMENTS.md
// rely on — a titled table with columns and rows, every row as wide as
// the header, every cell that holds a value rendering non-empty and
// without a fmt error under its column's verb — and then to each
// non-nil check.
func verify(tbl *stats.Table, checks ...func(*stats.Table) error) error {
	switch {
	case tbl.Title == "":
		return errors.New("table has no title")
	case len(tbl.Columns) == 0:
		return fmt.Errorf("%s: no columns", tbl.Title)
	case len(tbl.Rows) == 0:
		return fmt.Errorf("%s: no rows", tbl.Title)
	}
	for r, row := range tbl.Rows {
		if len(row) != len(tbl.Columns) {
			return fmt.Errorf("%s: row %d has %d cells, header has %d", tbl.Title, r, len(row), len(tbl.Columns))
		}
		for c := range row {
			if s := tbl.Cell(r, c); s == "" || strings.Contains(s, "%!") {
				return fmt.Errorf("%s: cell at row %d col %d (%s) renders %q", tbl.Title, r, c, tbl.Columns[c].Name, s)
			}
		}
	}
	for _, check := range checks {
		if check == nil {
			continue
		}
		if err := check(tbl); err != nil {
			return err
		}
	}
	return nil
}

// every is the Check that each row's cell in column col equals one of
// want. Cells compare as values, so a want of another type than the
// column's cells never matches.
func every(col string, want ...any) func(*stats.Table) error {
	return func(tbl *stats.Table) error {
		c := tbl.Col(col)
		if c < 0 {
			return fmt.Errorf("%s: no %q column", tbl.Title, col)
		}
		for _, row := range tbl.Rows {
			if !slices.Contains(want, row[c]) {
				return fmt.Errorf("%s: %s is %T %v, want one of %v: %v", tbl.Title, col, row[c], row[c], want, row)
			}
		}
		return nil
	}
}

// rows is the Check that the table has exactly n rows.
func rows(n int) func(*stats.Table) error {
	return func(tbl *stats.Table) error {
		if len(tbl.Rows) != n {
			return fmt.Errorf("%s: %d rows, want %d", tbl.Title, len(tbl.Rows), n)
		}
		return nil
	}
}

// checkE14 holds the 100G capture claim at the bandwidth-bound frame
// size: one DMA queue saturates, two or more restore lossless thinned
// capture.
func checkE14(tbl *stats.Table) error {
	queues, frame, lossless := tbl.Col("queues"), tbl.Col("frame(B)"), tbl.Col("lossless")
	if queues < 0 || frame < 0 || lossless < 0 {
		return fmt.Errorf("%s: want queues, frame(B) and lossless columns", tbl.Title)
	}
	seen := false
	for _, row := range tbl.Rows {
		if row[frame] != 1518 {
			continue
		}
		seen = true
		if want := row[queues] != 1; row[lossless] != want {
			return fmt.Errorf("%s: %v queues at 1518 B: lossless=%v, want %v: %v", tbl.Title, row[queues], row[lossless], want, row)
		}
	}
	if !seen {
		return fmt.Errorf("%s: no 1518 B row", tbl.Title)
	}
	return nil
}

// nonZero fails a micro rig whose count of work done is zero.
func nonZero(what string, n uint64) error {
	if n == 0 {
		return fmt.Errorf("%s nothing", what)
	}
	return nil
}
