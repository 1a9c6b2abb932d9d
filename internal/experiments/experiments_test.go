package experiments

import (
	"fmt"
	"testing"

	"osnt/internal/gen"
	"osnt/internal/netfpga"
	"osnt/internal/sim"
	"osnt/internal/stats"
	"osnt/internal/topo"
	"osnt/internal/wire"
)

// val returns row r's cell in the column named col as a T, failing the
// test when the table has no such column or the cell holds another type.
func val[T any](t *testing.T, tbl *stats.Table, r int, col string) T {
	t.Helper()
	c := tbl.Col(col)
	if c < 0 {
		t.Fatalf("%s: no %q column", tbl.Title, col)
	}
	v, ok := tbl.Rows[r][c].(T)
	if !ok {
		t.Fatalf("%s: row %d %s holds %T, want %T", tbl.Title, r, col, tbl.Rows[r][c], v)
	}
	return v
}

func TestE1EveryRowHitsLineRate(t *testing.T) {
	tbl := E1LineRate(sim.Millisecond)
	if len(tbl.Rows) != len(FrameSizes)*2 {
		t.Fatalf("rows %d", len(tbl.Rows))
	}
	for r, row := range tbl.Rows {
		if !val[bool](t, tbl, r, "ok") {
			t.Fatalf("row failed line rate: %v", row)
		}
	}
	// Wire rate must be ≈10G at the extremes.
	for _, r := range []int{0, len(tbl.Rows) - 1} {
		if g := val[float64](t, tbl, r, "rate(Gb/s)"); g < 9.98 || g > 10.02 {
			t.Fatalf("wire rate %v", tbl.Rows[r])
		}
	}
}

func TestE2DisciplinedStaysSubMicrosecond(t *testing.T) {
	tbl := E2ClockDiscipline(80 * sim.Second)
	last := len(tbl.Rows) - 1
	free := val[float64](t, tbl, last, "free-running(µs)")
	disc := val[float64](t, tbl, last, "disciplined(µs)")
	if free < 1000 {
		t.Fatalf("free-running error %vµs, expected ms-scale at 50ppm", free)
	}
	if disc >= 1.0 {
		t.Fatalf("disciplined error %vµs, paper claims sub-µs", disc)
	}
}

func TestE3LatencyHockeyStick(t *testing.T) {
	tbl := E3SwitchLatency(10 * sim.Millisecond)
	first := val[float64](t, tbl, 0, "mean(µs)")
	var at95 float64
	for r := range tbl.Rows {
		if val[float64](t, tbl, r, "load(%)") == 95 {
			at95 = val[float64](t, tbl, r, "mean(µs)")
		}
	}
	if at95 < first*1.5 {
		t.Fatalf("no latency growth: 10%% → %vµs, 95%% → %vµs", first, at95)
	}
	// Monotone-ish growth of p99 with load (allowing small noise).
	prev := 0.0
	for r := range tbl.Rows {
		p99 := val[float64](t, tbl, r, "p99(µs)")
		if r > 0 && p99 < prev*0.7 {
			t.Fatalf("p99 collapsed between loads: %v", tbl.Rows)
		}
		prev = p99
	}
}

func TestE4ControlPrecedesDataAndScales(t *testing.T) {
	tbl := E4FlowModLatency()
	var ctl1, ctl512, dmax1 float64
	for r, row := range tbl.Rows {
		n := val[int](t, tbl, r, "batch")
		switch n {
		case 1:
			ctl1 = val[float64](t, tbl, r, "control(ms)")
			dmax1 = val[float64](t, tbl, r, "data max(ms)")
		case 512:
			ctl512 = val[float64](t, tbl, r, "control(ms)")
		}
		// every batch fully confirmed on the dataplane
		if val[string](t, tbl, r, "confirmed") != fmt.Sprintf("%d/%d", n, n) {
			t.Fatalf("unconfirmed rules: %v", row)
		}
	}
	if dmax1 <= ctl1 {
		t.Fatalf("dataplane (%vms) should lag control (%vms)", dmax1, ctl1)
	}
	if ctl512 < ctl1*50 {
		t.Fatalf("batch scaling: 1→%vms, 512→%vms", ctl1, ctl512)
	}
}

func TestE5InconsistencyRequiresHWLag(t *testing.T) {
	tbl := E5Consistency()
	for r, row := range tbl.Rows {
		old := val[uint64](t, tbl, r, "old-after-barrier")
		noLag := val[any](t, tbl, r, "hw-lag") == "none"
		if noLag && old != 0 {
			t.Fatalf("inconsistency without HW lag: %v", row)
		}
		if !noLag && old == 0 {
			t.Fatalf("no inconsistency with HW lag: %v", row)
		}
	}
}

func TestE6SoftwareNoiseDominates(t *testing.T) {
	tbl := E6TimestampNoise(1000)
	if len(tbl.Rows) != 2 {
		t.Fatalf("rows %d", len(tbl.Rows))
	}
	// Hardware error must be ns-scale, software µs-scale or worse.
	if hw := val[sim.Duration](t, tbl, 0, "max"); hw >= sim.Microsecond {
		t.Fatalf("hardware max error %v not ns-scale", hw)
	}
	if sw := val[sim.Duration](t, tbl, 1, "max"); sw < sim.Microsecond {
		t.Fatalf("software max error %v implausibly small", sw)
	}
}

func TestE7ThinningRemovesLoss(t *testing.T) {
	tbl := E7CapturePath(0)
	fullAt100, thinAt100 := -1.0, -1.0
	for r := range tbl.Rows {
		if val[float64](t, tbl, r, "load(%)") != 100 {
			continue
		}
		switch val[string](t, tbl, r, "pipeline") {
		case "full packets":
			fullAt100 = val[float64](t, tbl, r, "loss(%)")
		case "thin 64B":
			thinAt100 = val[float64](t, tbl, r, "loss(%)")
		}
	}
	if fullAt100 <= 0 {
		t.Fatal("full-packet capture at line rate showed no loss")
	}
	if thinAt100 != 0 {
		t.Fatalf("thinned capture lost %v%%", thinAt100)
	}
}

func TestE8EchoInflatesWithLoad(t *testing.T) {
	tbl := E8ControlUnderLoad()
	idle := val[float64](t, tbl, 0, "rtt mean(µs)")
	loaded := val[float64](t, tbl, len(tbl.Rows)-1, "rtt mean(µs)")
	if loaded < idle*2 {
		t.Fatalf("echo RTT idle %vµs vs 90%% load %vµs", idle, loaded)
	}
}

// E12: the fan-in direction must be lossless at full aggregate load at
// every sweep point, while the 40G→10G down-conversion is lossless below
// the 25% knee and both queues (bounded delay) and tail-drops above it.
func TestE12ConversionKneeAndDropOnset(t *testing.T) {
	tbl := E12MixedRateFanIn(5 * sim.Millisecond)
	if len(tbl.Rows) != len(E12DownLoads) {
		t.Fatalf("rows %d", len(tbl.Rows))
	}
	for r, row := range tbl.Rows {
		load := E12DownLoads[r]
		if val[uint64](t, tbl, r, "up-drops") != 0 {
			t.Fatalf("fan-in direction dropped at down-load %.0f%%: %v", load*100, row)
		}
		qdrops := val[uint64](t, tbl, r, "down-qdrops")
		lossPct := val[float64](t, tbl, r, "down-loss(%)")
		if load > 0.26 {
			if qdrops == 0 || lossPct == 0 {
				t.Fatalf("down-load %.0f%% above the knee shows no tail drop: %v", load*100, row)
			}
		} else if load < 0.25 {
			if qdrops != 0 || lossPct != 0 {
				t.Fatalf("down-load %.0f%% below the knee is lossy: %v", load*100, row)
			}
		}
	}
	// Queueing delay above the knee is bounded by the egress FIFO depth:
	// p99 latency must sit near cap × the 10G serialisation slot, not
	// grow with offered load.
	slot := wire.SerializationTime(e12FrameSize, wire.Rate10G)
	bound := float64(e12EdgeQueueCap) * slot.Seconds() * 1e6 * 1.2
	for r, row := range tbl.Rows {
		if E12DownLoads[r] <= 0.26 {
			continue
		}
		if p99 := val[float64](t, tbl, r, "down-p99(µs)"); p99 > bound {
			t.Fatalf("down-p99 %vµs exceeds the bounded-FIFO ceiling %.1fµs: %v", p99, bound, row)
		}
	}
}

// E13: every chain length is lossless, hop 1 carries the most queueing
// (the raw Poisson stream), later hops see smoothed traffic, and the
// per-hop means must sum to the end-to-end mean (the decomposition is
// exact because the final hop closes on the MAC RX timestamp). A chain
// shorter than four leaves its later hop cells empty.
func TestE13DecompositionSumsToTotal(t *testing.T) {
	tbl := E13MultiDUTChain(5 * sim.Millisecond)
	if len(tbl.Rows) != len(E13ChainLengths) {
		t.Fatalf("rows %d", len(tbl.Rows))
	}
	for r, row := range tbl.Rows {
		n := E13ChainLengths[r]
		if loss := val[float64](t, tbl, r, "loss(%)"); loss != 0 {
			t.Fatalf("chain of %d lost packets: %v", n, row)
		}
		var sum float64
		for h := 1; h <= 4; h++ {
			col := fmt.Sprintf("hop%d(µs)", h)
			if h > n {
				if v := row[tbl.Col(col)]; v != nil {
					t.Fatalf("chain of %d: %s holds %v, want no value", n, col, v)
				}
				continue
			}
			sum += val[float64](t, tbl, r, col)
		}
		total := val[float64](t, tbl, r, "total(µs)")
		if diff := sum - total; diff > 0.05 || diff < -0.05 {
			t.Fatalf("chain of %d: hops sum to %.2fµs but total is %.2fµs: %v", n, sum, total, row)
		}
		if n >= 2 {
			if hop1, hop2 := val[float64](t, tbl, r, "hop1(µs)"), val[float64](t, tbl, r, "hop2(µs)"); hop1 <= hop2 {
				t.Fatalf("chain of %d: hop1 %.2fµs not above hop2 %.2fµs (queueing should concentrate at hop 1): %v",
					n, hop1, hop2, row)
			}
		}
	}
}

// E15: below the 2:1 oversubscription knee the fabric is lossless;
// above it the excess is lost, every lost frame is attributed to the
// leaf's uplink egress overflow (other-drops stays 0), and every row
// conserves exactly.
func TestE15KneeAndExactAttribution(t *testing.T) {
	tbl := E15Oversubscribed(3 * sim.Millisecond)
	if len(tbl.Rows) != len(E15Loads) {
		t.Fatalf("rows %d", len(tbl.Rows))
	}
	for r, row := range tbl.Rows {
		load := E15Loads[r]
		if !val[bool](t, tbl, r, "conserved") {
			t.Fatalf("load %.0f%% does not conserve: %v", load*100, row)
		}
		if val[uint64](t, tbl, r, "other-drops") != 0 {
			t.Fatalf("load %.0f%% attributes drops off the uplinks: %v", load*100, row)
		}
		loss := val[float64](t, tbl, r, "loss(%)")
		if load >= 0.6 && loss == 0 {
			t.Fatalf("load %.0f%% above the knee shows no loss: %v", load*100, row)
		}
		// Hash imbalance may overload one uplink slightly before the
		// aggregate knee, but well below it the fabric must be clean.
		if load <= 0.3 && loss != 0 {
			t.Fatalf("load %.0f%% below the knee is lossy: %v", load*100, row)
		}
	}
}

// E15's canonical loss map (the -losses CLI path) must conserve, and
// every cell must sit on the leaf's uplink egress.
func TestE15LossMapConserves(t *testing.T) {
	lm := E15LossMap(2 * sim.Millisecond)
	if !lm.Conserved() {
		t.Fatalf("sent %d, delivered %d, attributed %d", lm.Sent, lm.Delivered, lm.Attributed())
	}
	if lm.Attributed() == 0 {
		t.Fatal("overloaded fabric attributed no drops")
	}
	// Every row but the totals row is one loss cell, as -losses prints it.
	rows := lm.Table().Rows
	for _, row := range rows[:len(rows)-1] {
		if row[1] != "leaf" || row[2] != wire.DropEgressOverflow {
			t.Fatalf("unexpected loss cell: %v", row)
		}
	}
}

// E16: each engineered loss mechanism lands in its own (hop, reason)
// cell, nothing lands anywhere else, and every row closes exactly.
func TestE16AttributionExact(t *testing.T) {
	tbl := E16LossAttribution(5 * sim.Millisecond)
	if len(tbl.Rows) != len(E16Loads) {
		t.Fatalf("rows %d", len(tbl.Rows))
	}
	for r, row := range tbl.Rows {
		load := E16Loads[r]
		if !val[bool](t, tbl, r, "conserved") {
			t.Fatalf("load %.0f%% does not conserve: %v", load*100, row)
		}
		if val[uint64](t, tbl, r, "other") != 0 {
			t.Fatalf("load %.0f%% has unattributed reasons: %v", load*100, row)
		}
		if runts, counted := val[uint64](t, tbl, r, "runts"), val[uint64](t, tbl, r, "h1-runt"); counted != runts {
			t.Fatalf("load %.0f%%: injected runts %d but hop 1 counted %d: %v", load*100, runts, counted, row)
		}
		rateDrops := val[uint64](t, tbl, r, "h1-rate-boundary")
		if load > 0.26 && rateDrops == 0 {
			t.Fatalf("load %.0f%% above the conversion knee shows no rate-boundary drops: %v", load*100, row)
		}
		if load < 0.25 && rateDrops != 0 {
			t.Fatalf("load %.0f%% below the knee drops at the boundary: %v", load*100, row)
		}
		hairpins := val[uint64](t, tbl, r, "h2-hairpin")
		if load <= 0.25 && hairpins != val[uint64](t, tbl, r, "hairpins") {
			t.Fatalf("load %.0f%%: hairpin probes did not all reach hop 2: %v", load*100, row)
		}
		lookups := val[uint64](t, tbl, r, "h3-lookup")
		if load >= 0.25 && lookups == 0 {
			t.Fatalf("load %.0f%%: starved hop-3 lookup dropped nothing: %v", load*100, row)
		}
		if load <= 0.2 && lookups != 0 {
			t.Fatalf("load %.0f%%: hop-3 lookup dropped below its saturation point: %v", load*100, row)
		}
	}
}

// The ECMP spray micro-rig must spread a 64-flow workload across both
// members and deliver the lion's share of a line-rate second.
func TestSprayMicroBenchSpreads(t *testing.T) {
	m0, m1 := SprayMicroBench(sim.Millisecond)
	if m0 == 0 || m1 == 0 {
		t.Fatalf("degenerate spray: %d/%d", m0, m1)
	}
	total := m0 + m1
	if total < 14000 {
		t.Fatalf("spray rig delivered %d packets in a 64B line-rate millisecond, want ≈14881", total)
	}
}

// E17: the per-flow analytics must not depend on the capture-queue
// topology — every queue-count block reports the same stream digest,
// merged count and flow rows — and the inferred loss must agree with the
// schedule's exact arithmetic on a CBR workload.
func TestE17AnalyticsQueueInvariant(t *testing.T) {
	tbl := E17FlowAnalytics(2 * sim.Millisecond)
	if len(tbl.Rows) != len(E17QueueCounts)*e17TopK {
		t.Fatalf("rows %d, want %d", len(tbl.Rows), len(E17QueueCounts)*e17TopK)
	}
	ref := tbl.Rows[:e17TopK]
	for b := 1; b < len(E17QueueCounts); b++ {
		blk := tbl.Rows[b*e17TopK : (b+1)*e17TopK]
		for r := range blk {
			// Everything except the queue-count column must match the
			// 8-queue reference block cell for cell.
			for c := 1; c < len(tbl.Columns); c++ {
				if blk[r][c] != ref[r][c] {
					t.Fatalf("queue count %v diverged at rank %d col %s: %v vs %v",
						blk[r][0], r+1, tbl.Columns[c].Name, blk[r][c], ref[r][c])
				}
			}
		}
	}
	for r, row := range tbl.Rows {
		if !val[bool](t, tbl, r, "ok") {
			t.Fatalf("row failed its invariants: %v", row)
		}
		if val[uint64](t, tbl, r, "reorders") != 0 {
			t.Fatalf("store-and-forward DUT reordered a flow: %v", row)
		}
		lossEx, lossInf := val[float64](t, tbl, r, "loss-ex(%)"), val[float64](t, tbl, r, "loss-inf(%)")
		if lossEx <= 0 {
			t.Fatalf("starved lookup lost nothing — the workload no longer exercises inference: %v", row)
		}
		if d := lossInf - lossEx; d < -0.5 || d > 0.5 {
			t.Fatalf("inferred loss %v%% disagrees with exact %v%%: %v", lossInf, lossEx, row)
		}
	}
}

// The merge micro-rig deals a line-rate 64B millisecond round-robin
// across 8 queues and must re-emit every record.
func TestMergeMicroBenchEmitsLineRate(t *testing.T) {
	if got := MergeMicroBench(sim.Millisecond); got < 14000 {
		t.Fatalf("merge rig emitted %d packets in a 64B line-rate millisecond, want ≈14881", got)
	}
}

// The flow-table micro-rig tracks all of its synthetic samples.
func TestFlowTableMicroBenchTracksAll(t *testing.T) {
	if got := FlowTableMicroBench(); got != 1<<20 {
		t.Fatalf("tracked %d of %d samples", got, 1<<20)
	}
}

// drive's offered count is Sent + Dropped: a generator offering 1.5×
// line rate overruns its 64-frame TX queue, the card ledgers every
// refused frame as tx-overflow, and only that count closes the loss map
// exactly.
func TestDriveCountsRefusedFramesAsOffered(t *testing.T) {
	e := sim.NewEngine()
	tp := topo.New().
		Tester("osnt", netfpga.Config{Ports: 1, TxQueueCap: 64}).
		Sink("sink").
		Link("osnt:0", "sink").
		MustBuild(e)
	g := startGen(tp.Port("osnt:0"), gen.Config{
		Source:  &gen.UDPFlowSource{Spec: probeSpec, FrameSize: 512},
		Spacing: gen.CBRForLoad(512, wire.Rate10G, 1.5),
	})
	offered := drive(e, sim.Time(sim.Millisecond), g)
	if g.Dropped() == 0 {
		t.Fatal("1.5× line rate never overran the TX queue")
	}
	lm := stats.NewLossMap(offered, tp.Sink("sink").Received().Packets, tp.Drops())
	if !lm.Conserved() {
		t.Fatalf("offered %d, delivered %d, attributed %d", lm.Sent, lm.Delivered, lm.Attributed())
	}
}
