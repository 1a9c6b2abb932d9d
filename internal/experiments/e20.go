package experiments

import (
	"errors"
	"fmt"

	"osnt/internal/fabric"
	"osnt/internal/gen"
	"osnt/internal/runner"
	"osnt/internal/shard"
	"osnt/internal/sim"
	"osnt/internal/stats"
	"osnt/internal/switchsim"
	"osnt/internal/timing"
	"osnt/internal/wire"
)

// Shards, when non-zero, caps the shard axis of the sharded experiment
// (E20): a 2-core box can run `osnt-bench -e e20 -shards 2` and sweep
// only shards ∈ {1, 2}. The default (0) runs the full 1/2/4/8 axis,
// which is what the committed EXPERIMENTS.md and the CI drift gate use.
// Unlike Workers this knob removes rows rather than changing any —
// every row that remains is byte-identical at any setting, shards=1
// included: sharding repartitions the event loop, never the simulation.
var Shards int

// e20ShardCounts is the full shard axis of E20.
var e20ShardCounts = []int{1, 2, 4, 8}

// e20LinkDelay is the per-cable propagation delay of the E20 fabric:
// every cable — host↔edge included — carries 1 µs, so any cut of the
// graph has a 1 µs conservative-lookahead budget and the pod-aligned
// partition steps in 1 µs safe windows. The delay is part of the
// physical scenario (the same fabric at every shard count), which is
// what makes the cross-shard digest comparison meaningful.
const e20LinkDelay = sim.Microsecond

// e20Load is the per-host offered load of every E20 point (the heavy
// end of the E19 sweep).
const e20Load = 0.9

// e20shardCounts returns the effective shard axis under the Shards cap.
func e20shardCounts() []int {
	if Shards <= 0 {
		return e20ShardCounts
	}
	counts := make([]int, 0, len(e20ShardCounts))
	for _, s := range e20ShardCounts {
		if s <= Shards || s == 1 {
			counts = append(counts, s)
		}
	}
	return counts
}

// e20Result is one sharded point's reduction, carried from the sweep
// to the serial formatting pass (where digests are compared across
// shard counts).
type e20Result struct {
	lm      *stats.LossMap
	lat     *stats.Histogram
	offered uint64
	digest  uint64
}

// fnvMix folds one 64-bit value into an FNV-1a digest byte by byte.
func fnvMix(h, v uint64) uint64 {
	const prime = 1099511628211
	for i := 0; i < 8; i++ {
		h = (h ^ (v & 0xff)) * prime
		v >>= 8
	}
	return h
}

const fnvOffset = 14695981039346656037

// e20Point runs one (k, matrix) point of the delayed fabric on a
// cluster of the given shard count and reduces it to loss, latency and
// a stream digest. The digest folds, per host in arrival order, each
// delivered frame's embedded send timestamp, its measured latency and
// its size, and then combines the per-host digests in host-index
// order — any reordering, retiming, loss or corruption anywhere in the
// fabric changes it. pointSeed must depend only on the scenario (not
// the shard count), so every shard count offers bit-identical traffic.
// delay is the per-cable propagation delay — the cut's lookahead
// budget, and therefore the barrier cadence of a sharded run.
func e20Point(duration sim.Duration, k int, matrix string, load float64, delay sim.Duration, pointSeed, shards int) e20Result {
	cl := shard.NewCluster(shards)
	defer cl.Close()
	spec := fabric.Spec{
		K:         k,
		LinkDelay: delay,
		Switch:    e15OverspeedLookup(switchsim.Config{}),
	}
	f := fabric.MustBuildPartitioned(cl.Partition(spec.PodShard(shards)), spec)

	// Per-host digest state and per-shard latency histograms: each is
	// written only from its owner shard's engine, so the windows run
	// race-free; the merge below happens after the final barrier.
	digests := make([]uint64, len(f.Hosts))
	lats := make([]*stats.Histogram, shards)
	for i := range lats {
		lats[i] = stats.NewHistogram()
	}
	for i := range f.Hosts {
		digests[i] = fnvOffset
		lat := lats[f.Shard(f.Hosts[i].Name)]
		d := &digests[i]
		f.HostPort(i).OnReceive = func(fr *wire.Frame, _ sim.Time, ts timing.Timestamp) {
			if t0, ok := gen.ExtractTimestamp(fr.Data, gen.DefaultTimestampOffset); ok {
				delta := ts.Sub(t0)
				lat.Record(int64(delta))
				*d = fnvMix(fnvMix(fnvMix(*d, uint64(t0)), uint64(delta)), uint64(fr.Size))
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
			Seed:           runner.PointSeed(0xe20, pointSeed*256+i),
		}))
	}
	offered := drive(cl, sim.Time(duration), gens...)

	lat := lats[0]
	for _, h := range lats[1:] {
		lat.Merge(h)
	}
	digest := uint64(fnvOffset)
	for _, d := range digests {
		digest = fnvMix(digest, d)
	}
	return e20Result{
		lm:      stats.NewLossMap(offered, f.Delivered(), f.Drops()),
		lat:     lat,
		offered: offered,
		digest:  digest,
	}
}

// e20Runner is the shards × workers composition: every E20 point spins
// up to max-shards goroutines of its own, so the auto worker count
// divides GOMAXPROCS by that instead of oversubscribing.
func e20Runner() *runner.Runner {
	inner := 1
	for _, s := range e20shardCounts() {
		if s > inner {
			inner = s
		}
	}
	return runner.NewScaled(Workers, inner)
}

// E20ShardedFabric sweeps the E19 k=8 matrices over 1/2/4/8 shards on
// the 1 µs-delay fabric and proves, row by row, that partitioning the
// engine changes nothing: the digest column is a stream digest over
// every delivered frame's send timestamp, latency and size, and the
// match column compares it against the 1-shard reference of the same
// matrix. Wall-clock speedup is deliberately not a column (tables must
// be byte-identical across machines and worker counts); the shard
// scaling is measured by TestE20ShardSpeedup and the benchgate
// E20ShardScaling driver instead.
func E20ShardedFabric(duration sim.Duration) *stats.Table {
	if duration == 0 {
		duration = 400 * sim.Microsecond
	}
	const k = 8
	counts := e20shardCounts()
	tbl := &stats.Table{
		Title: "E20: sharded conservative-lookahead execution — E19's k=8 matrices at 1/2/4/8 shards (1µs cables, load 90%)",
		Columns: []stats.Column{
			{Name: "k", Verb: "%d"}, {Name: "matrix", Verb: "%s"}, {Name: "shards", Verb: "%d"},
			{Name: "lookahead(µs)", Verb: "%.1f"}, {Name: "offered(Mpps)", Verb: "%.3f"},
			{Name: "delivered(Mpps)", Verb: "%.3f"}, {Name: "loss(%)", Verb: "%.2f"}, {Name: "p99(µs)", Verb: "%.2f"},
			{Name: "digest", Verb: "%016x"}, {Name: "match", Verb: "%v"},
		},
	}
	n := len(e19Matrices) * len(counts)
	results := runner.Sweep(e20Runner(), n, func(i int) e20Result {
		matrix := e19Matrices[i/len(counts)]
		shards := counts[i%len(counts)]
		// The point seed depends on the matrix alone: every shard count
		// replays bit-identical traffic.
		return e20Point(duration, k, matrix, e20Load, e20LinkDelay, i/len(counts), shards)
	})
	secs := duration.Seconds()
	for i, r := range results {
		matrix := e19Matrices[i/len(counts)]
		shards := counts[i%len(counts)]
		ref := results[(i/len(counts))*len(counts)] // the shards=1 point of this matrix
		var match any = "ref"
		if shards != 1 {
			match = r.digest == ref.digest
		}
		tbl.AddRow(
			k, matrix, shards, float64(e20LinkDelay)/1e6, float64(r.offered)/secs/1e6,
			float64(r.lm.Delivered)/secs/1e6, r.lm.LossFraction()*100, float64(r.lat.Percentile(99))/1e6,
			r.digest, match,
		)
	}
	return tbl
}

// e19ShardedLinkDelay is the per-cable delay of the E19-class benchgate
// workload. Wider than E20's 1 µs deliberately: the delay is the
// lookahead, so 5 µs cables mean one barrier per 5 µs of virtual time —
// the windowed run spends its time simulating, not synchronising, and
// the single-core overhead of a 4-shard run stays small enough that the
// partitioned (shallower) event heaps win outright even before a second
// core shows up.
const e19ShardedLinkDelay = 5 * sim.Microsecond

// E19FatTreeK4Sharded is the benchgate workload for the sharded engine:
// the same nine (matrix, load) points as E19FatTreeK4, on the same k=4
// fabric but with 5 µs cables, each point executed on a cluster of the
// given shard count (sweep points themselves run serially — benchgate
// pins Workers to 1 — so the measured speedup is the engine
// partitioning, not sweep parallelism). E19FatTreeK4 itself is
// untouched: its zero-delay fabric cannot be cut (a zero-delay
// cross-shard edge is a topo build error), and its table must stay
// byte-identical. As in E19, the conserved column checks sent =
// delivered + Σ attributed drops exactly per row.
func E19FatTreeK4Sharded(duration sim.Duration, shards int) *stats.Table {
	if duration == 0 {
		duration = sim.Millisecond
	}
	tbl := &stats.Table{
		Title: fmt.Sprintf("E19-class sharded benchmark: k=4, 5µs cables, %d shards", shards),
		Columns: []stats.Column{
			{Name: "k", Verb: "%d"}, {Name: "matrix", Verb: "%s"}, {Name: "load(%)", Verb: "%.0f"},
			{Name: "offered(Mpps)", Verb: "%.3f"}, {Name: "delivered(Mpps)", Verb: "%.3f"}, {Name: "loss(%)", Verb: "%.2f"},
			{Name: "p99(µs)", Verb: "%.2f"}, {Name: "digest", Verb: "%016x"}, {Name: "conserved", Verb: "%v"},
		},
	}
	perK := len(e19Matrices) * len(E19Loads)
	secs := duration.Seconds()
	tbl.Rows = sweeper().Rows(perK, func(i int) [][]any {
		matrix := e19Matrices[i/len(E19Loads)]
		load := E19Loads[i%len(E19Loads)]
		r := e20Point(duration, 4, matrix, load, e19ShardedLinkDelay, i, shards)
		return [][]any{{
			4, matrix, load * 100, float64(r.offered) / secs / 1e6, float64(r.lm.Delivered) / secs / 1e6,
			r.lm.LossFraction() * 100, float64(r.lat.Percentile(99)) / 1e6, r.digest, r.lm.Conserved(),
		}}
	})
	return tbl
}

// E20ShardMicroBench is the benchgate probe for shard scaling: one
// k=8 permutation point at 4 shards. It fails unless the stream digest
// is non-degenerate and the point conserves loss exactly.
func E20ShardMicroBench() error {
	r := e20Point(100*sim.Microsecond, 8, "permutation", e20Load, e20LinkDelay, 0, 4)
	if r.digest == 0 {
		return errors.New("degenerate digest")
	}
	if !r.lm.Conserved() {
		return fmt.Errorf("loss not conserved: sent %d, delivered %d, attributed %d",
			r.lm.Sent, r.lm.Delivered, r.lm.Attributed())
	}
	return nil
}
