package experiments

import (
	"osnt/internal/fabric"
	"osnt/internal/gen"
	"osnt/internal/runner"
	"osnt/internal/sim"
	"osnt/internal/stats"
	"osnt/internal/switchsim"
	"osnt/internal/timing"
	"osnt/internal/wire"
)

// E19Loads sweeps the per-host offered load as a fraction of the 10G
// host line rate, heaviest first for the worker pool.
var E19Loads = []float64{0.9, 0.6, 0.3}

// e19Matrices is the traffic-matrix sweep: the all-to-all permutation
// baseline, a k-degree incast, and the hot-spot overload.
var e19Matrices = []string{"permutation", "incast", "hot-spot"}

// e19FrameSize keeps the embedded timestamp inside the payload and the
// per-hop service slots comfortable (512 B, as in E15).
const e19FrameSize = 512

// e19Fabric synthesizes the k-ary fat-tree every E19 point runs on:
// full bisection, single cables, and the E15 overspeed lookup so the
// only loss mechanism is queue overflow at the convergence points the
// matrix creates.
func e19Fabric(e *sim.Engine, k int) *fabric.Fabric {
	return fabric.MustBuild(e, fabric.Spec{
		K:      k,
		Switch: e15OverspeedLookup(switchsim.Config{}),
	})
}

// e19Matrix names a matrix on the fabric; the incast fan-in degree is
// the radix itself, so the senders of each group necessarily span edge
// switches.
func e19Matrix(f *fabric.Fabric, name string) fabric.TrafficMatrix {
	switch name {
	case "permutation":
		return f.Permutation()
	case "incast":
		return f.Incast(f.Spec.K)
	case "hot-spot":
		return f.HotSpot()
	}
	panic("e19: unknown matrix " + name)
}

// e19Point runs one (k, matrix, load) point on a fresh engine and
// returns the loss map, the per-tier drop totals, the delivery-latency
// histogram and the offered count.
func e19Point(duration sim.Duration, k int, matrix string, load float64, pointSeed int) (*stats.LossMap, [5]uint64, *stats.Histogram, uint64) {
	e := sim.NewEngine()
	f := e19Fabric(e, k)

	lat := stats.NewHistogram()
	for i := range f.Hosts {
		f.HostPort(i).OnReceive = func(fr *wire.Frame, _ sim.Time, ts timing.Timestamp) {
			if t0, ok := gen.ExtractTimestamp(fr.Data, gen.DefaultTimestampOffset); ok {
				lat.Record(int64(ts.Sub(t0)))
			}
		}
	}

	slot := wire.SerializationTime(e19FrameSize, f.Spec.Rate)
	srcs := f.Sources(e19Matrix(f, matrix), e19FrameSize)
	var gens []*gen.Generator
	for i, src := range srcs {
		if src == nil {
			continue
		}
		gens = append(gens, startGen(f.HostPort(i), gen.Config{
			Source:         src,
			Spacing:        gen.Poisson{Mean: sim.Duration(float64(slot) / load)},
			EmbedTimestamp: true,
			Seed:           runner.PointSeed(0xe19, pointSeed*256+i),
		}))
	}
	offered := drive(e, sim.Time(duration), gens...)
	lm := stats.NewLossMap(offered, f.Delivered(), f.Drops())
	return lm, f.TierDrops(), lat, offered
}

// e19Table sweeps the given radices × matrices × loads; every row's
// conservation column checks sent = delivered + Σ attributed exactly,
// and the tier columns split the attributed drops between the edge,
// aggregation and core layers.
func e19Table(ks []int, duration sim.Duration) *stats.Table {
	tbl := &stats.Table{
		Title: "E19: synthesized fat-tree fabrics under permutation / incast / hot-spot (512B Poisson per host)",
		Columns: []stats.Column{
			{Name: "k", Verb: "%d"}, {Name: "switches", Verb: "%d"}, {Name: "hosts", Verb: "%d"},
			{Name: "matrix", Verb: "%s"}, {Name: "load(%)", Verb: "%.0f"}, {Name: "offered(Mpps)", Verb: "%.3f"},
			{Name: "delivered(Mpps)", Verb: "%.3f"}, {Name: "loss(%)", Verb: "%.2f"}, {Name: "edge(%)", Verb: "%.1f"},
			{Name: "agg(%)", Verb: "%.1f"}, {Name: "core(%)", Verb: "%.1f"}, {Name: "p99(µs)", Verb: "%.2f"},
			{Name: "conserved", Verb: "%v"},
		},
	}
	perK := len(e19Matrices) * len(E19Loads)
	tbl.Rows = sweeper().Rows(len(ks)*perK, func(i int) [][]any {
		k := ks[i/perK]
		matrix := e19Matrices[(i%perK)/len(E19Loads)]
		load := E19Loads[i%len(E19Loads)]
		lm, tiers, lat, offered := e19Point(duration, k, matrix, load, i)

		// Tier shares of the attributed drops; a lossless point shows
		// 0.0 everywhere.
		share := func(t fabric.Tier) float64 {
			if lm.Attributed() == 0 {
				return 0
			}
			return float64(tiers[t]) / float64(lm.Attributed()) * 100
		}
		spec := fabric.Spec{K: k}
		secs := duration.Seconds()
		return [][]any{{
			k, spec.NumSwitches(), spec.NumHosts(), matrix, load * 100,
			float64(offered) / secs / 1e6, float64(lm.Delivered) / secs / 1e6, lm.LossFraction() * 100,
			share(fabric.TierEdge), share(fabric.TierAgg), share(fabric.TierCore),
			float64(lat.Percentile(99)) / 1e6, lm.Conserved(),
		}}
	})
	return tbl
}

// E19FatTree is the full sweep the fabric synthesizer unlocks: a k=8
// fat-tree (80 switches, 128 hosts) and the k=4 reference (20/16),
// each under the three canonical datacenter matrices across load. The
// permutation rows stay lossless and flat across k — full bisection
// bandwidth is what a fat-tree buys — while incast and hot-spot
// concentrate their losses on the edge tier, with the aggregation
// layer absorbing the spill, and the ledger proves it per row: the
// conservation column checks sent = delivered + Σ attributed drops
// exactly over all 80 switches.
func E19FatTree(duration sim.Duration) *stats.Table {
	if duration == 0 {
		duration = 2 * sim.Millisecond
	}
	return e19Table([]int{8, 4}, duration)
}

// E19FatTreeK4 is the k=4 slice of E19 — the shape the
// E19FatTreeK4Serial driver times (20 switches and 16 hosts
// synthesized, driven and torn down per iteration).
func E19FatTreeK4(duration sim.Duration) *stats.Table {
	if duration == 0 {
		duration = sim.Millisecond
	}
	return e19Table([]int{4}, duration)
}

// FabricSynthMicroBench isolates synthesis itself: build a k=8
// fat-tree (80 switches, 128 hosts, every FDB pre-learned) on a fresh
// engine and return the switch count. cmd/benchgate samples it to
// prove generation is cheap relative to running traffic.
func FabricSynthMicroBench() int {
	f := fabric.MustBuild(sim.NewEngine(), fabric.Spec{K: 8})
	return len(f.Edges) + len(f.Aggs) + len(f.Cores)
}
