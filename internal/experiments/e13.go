package experiments

import (
	"fmt"

	"osnt/internal/gen"
	"osnt/internal/mon"
	"osnt/internal/netfpga"
	"osnt/internal/runner"
	"osnt/internal/sim"
	"osnt/internal/stats"
	"osnt/internal/switchsim"
	"osnt/internal/topo"
	"osnt/internal/wire"
)

// E13ChainLengths sweeps the number of DUT switches in series, heaviest
// first for the worker pool.
var E13ChainLengths = []int{4, 3, 2, 1}

// e13Load is the offered Poisson load: high enough that the first hop
// queues visibly, low enough that the chain is lossless.
const e13Load = 0.9

// e13FrameSize is the probe size (FCS-inclusive).
const e13FrameSize = 512

// e13DUT is the per-switch configuration: the E3 switch model (lookup
// capacity just below line rate, jittered service) so queueing is real,
// with per-switch seeds so no two hops share a jitter stream.
func e13DUT(k int) switchsim.Config {
	return switchsim.Config{
		LookupPerByte: sim.Picoseconds(820),
		LookupJitter:  0.5,
		Seed:          uint64(31 + k),
	}
}

// E13MultiDUTChain is the multi-hop sweep: one tester port generates
// Poisson probes through 1–4 store-and-forward switches in series, and
// the capture side decomposes every probe's latency hop by hop from the
// per-hop egress timestamps the chain stamps into each frame
// (wire.HopTrace; hop IDs assigned by topo in declaration order).
//
// hop k is the interval from the previous device's last egress bit to
// switch k's last egress bit (hop 1 starts at the embedded TX timestamp,
// so it also includes the tester's own serialisation); the MAC RX
// timestamp closes the final hop exactly, since the chain's cables have
// zero propagation delay. The decomposition shows where the budget goes:
// hop 1 absorbs the M/D/1-style queueing of the raw Poisson stream,
// while later hops receive traffic already smoothed by the upstream
// egress serialiser and sit much closer to the unloaded forwarding
// latency — end-to-end totals alone cannot show that asymmetry.
func E13MultiDUTChain(duration sim.Duration) *stats.Table {
	if duration == 0 {
		duration = 20 * sim.Millisecond
	}
	tbl := &stats.Table{
		Title: "E13: multi-DUT chain — per-hop latency decomposition (512B Poisson at 90% load)",
		Columns: []stats.Column{
			{Name: "switches", Verb: "%d"}, {Name: "hop1(µs)", Verb: "%.2f"}, {Name: "hop2(µs)", Verb: "%.2f"},
			{Name: "hop3(µs)", Verb: "%.2f"}, {Name: "hop4(µs)", Verb: "%.2f"}, {Name: "total(µs)", Verb: "%.2f"},
			{Name: "p99(µs)", Verb: "%.2f"}, {Name: "loss(%)", Verb: "%.2f"},
		},
	}
	tbl.Rows = sweeper().Rows(len(E13ChainLengths), func(i int) [][]any {
		n := E13ChainLengths[i]
		e := sim.NewEngine()
		b := topo.New().Tester("osnt", netfpga.Config{Ports: 2})
		for k := 1; k <= n; k++ {
			b.DUT(fmt.Sprintf("sw%d", k), e13DUT(k))
		}
		b.Link("osnt:0", "sw1:0")
		for k := 1; k < n; k++ {
			b.Link(fmt.Sprintf("sw%d:1", k), fmt.Sprintf("sw%d:0", k+1))
		}
		b.Link(fmt.Sprintf("sw%d:1", n), "osnt:1")
		t := b.MustBuild(e)

		spec := probeSpec
		for k := 1; k <= n; k++ {
			t.DUT(fmt.Sprintf("sw%d", k)).Learn(spec.DstMAC, 1)
		}

		perHop := stats.NewPerHop(n)
		total := stats.NewHistogram()
		// The decomposition measures the chain, not the capture ring, so
		// no probe may be lost to DMA: the shared idealised host applies.
		m := t.AttachMonitor("osnt:1", idealCapture(func(rec mon.Record) {
			ts, ok := gen.ExtractTimestamp(rec.Data, gen.DefaultTimestampOffset)
			if !ok || rec.Trace.Len() != n {
				return
			}
			prev := ts.Sim()
			for h := 0; h < rec.Trace.Len(); h++ {
				at := rec.Trace.At(h).At
				perHop.Record(h, int64(at.Sub(prev)))
				prev = at
			}
			total.Record(int64(rec.TS.Sub(ts)))
		}))

		slot := wire.SerializationTime(e13FrameSize, wire.Rate10G)
		offered := drive(e, sim.Time(duration), startGen(t.Port(osntPorts[0]), gen.Config{
			Source:         &gen.UDPFlowSource{Spec: spec, FrameSize: e13FrameSize},
			Spacing:        gen.Poisson{Mean: sim.Duration(float64(slot) / e13Load)},
			EmbedTimestamp: true,
			Seed:           runner.PointSeed(0xe13, i),
		}))
		lossPct := 0.0
		if offered > 0 {
			lossPct = float64(offered-m.Seen().Packets) / float64(offered) * 100
		}
		// A chain shorter than four leaves its later hop cells empty.
		hops := make([]any, 4)
		for h := 0; h < n; h++ {
			hops[h] = perHop.Hist(h).Mean() / 1e6
		}
		return [][]any{{
			n, hops[0], hops[1], hops[2], hops[3],
			total.Mean() / 1e6, float64(total.Percentile(99)) / 1e6, lossPct,
		}}
	})
	return tbl
}
