package experiments

import (
	"fmt"

	"osnt/internal/gen"
	"osnt/internal/mon"
	"osnt/internal/netfpga"
	"osnt/internal/packet"
	"osnt/internal/runner"
	"osnt/internal/sim"
	"osnt/internal/stats"
	"osnt/internal/switchsim"
	"osnt/internal/topo"
	"osnt/internal/wire"
)

// E15Loads sweeps the per-leaf offered load as a fraction of 40G line
// rate. Four leaves feed two 40G uplinks, so the fabric's 2:1
// oversubscription knee sits at 0.5; the sweep brackets it. Heaviest
// first for the worker pool.
var E15Loads = []float64{1.0, 0.8, 0.6, 0.52, 0.5, 0.45, 0.3}

// e15FrameSize is the probe size; 512 B keeps the embedded timestamp
// inside a 64 B snap and the uplink service slots easy to reason about
// (106.4 ns at 40G).
const e15FrameSize = 512

// e15FlowsPerLeaf gives the ECMP hash 64 distinct flows in total —
// enough that the spray across two uplinks is close to even without
// pretending hash steering is perfect.
const e15FlowsPerLeaf = 16

// e15EdgeMAC is the station behind 40G edge port p.
func e15EdgeMAC(p int) packet.MAC {
	return packet.MAC{0x02, 0x05, 0x17, 0x15, 0, byte(p + 1)}
}

// e15ServerMAC is the station behind the spine (the traffic sink).
var e15ServerMAC = packet.MAC{0x02, 0x05, 0x17, 0x15, 0xff, 0x01}

// e15OverspeedLookup parameterises both fabric switches with a lookup
// pipeline faster than any port's arrival rate (86.8 ns for a 512 B
// frame against its 106.4 ns slot at 40G), so the only loss mechanism
// in the rig is the oversubscribed uplink group itself.
func e15OverspeedLookup(cfg switchsim.Config) switchsim.Config {
	cfg.LookupPerPacket = 10 * sim.Nanosecond
	cfg.LookupPerByte = sim.Picoseconds(150)
	return cfg
}

// e15Rig builds the oversubscribed leaf–spine fabric: a 4×40G edge
// card feeding a leaf switch whose two 40G uplinks form a topo group
// link into the spine, which converts up to a 100G server port. The
// leaf sprays flows across the uplink bundle ECMP-style (whitened
// header digest, switchsim.AddGroup over the same ports the Group edge
// wired), so offered load beyond 2×40G must overflow the uplink egress
// FIFOs — and nowhere else.
func e15Rig(e *sim.Engine) (*topo.Topology, *switchsim.Switch) {
	t := topo.New().
		Tester("osnt", netfpga.Config{Rate: wire.Rate40G}). // 4×40G edge card
		Tester("srv", netfpga.Config{Ports: 1, Rate: wire.Rate100G}).
		DUT("leaf", e15OverspeedLookup(switchsim.Config{
			Ports: 6,
			Rate:  wire.Rate40G, // 4 edge ports + 2 uplinks
		})).
		DUT("spine", e15OverspeedLookup(switchsim.Config{
			Ports:     3,
			Rate:      wire.Rate40G,
			PortRates: []wire.Rate{0, 0, wire.Rate100G}, // 2×40G down, 100G up
		})).
		Link(osntPorts[0], "leaf:0").
		Link(osntPorts[1], "leaf:1").
		Link(osntPorts[2], "leaf:2").
		Link(osntPorts[3], "leaf:3").
		Group("leaf:4", "spine:0", 2). // the 2×40G uplink bundle
		Link("spine:2", "srv:0").
		MustBuild(e)
	leaf, spine := t.DUT("leaf"), t.DUT("spine")
	gid := leaf.AddGroup(4, 5)
	leaf.LearnGroup(e15ServerMAC, gid)
	spine.Learn(e15ServerMAC, 2)
	for p := 0; p < 4; p++ {
		leaf.Learn(e15EdgeMAC(p), p)
	}
	return t, leaf
}

// e15Point runs one sweep point and returns everything the table (and
// the -losses CLI path) reads: the loss map over the scenario ledger,
// the leaf handle, the latency histogram and the offered count.
func e15Point(duration sim.Duration, load float64, pointSeed int) (*stats.LossMap, *switchsim.Switch, *stats.Histogram, uint64) {
	e := sim.NewEngine()
	t, leaf := e15Rig(e)

	lat := stats.NewHistogram()
	m := t.AttachMonitor("srv:0", idealCapture(func(rec mon.Record) {
		if ts, ok := gen.ExtractTimestamp(rec.Data, gen.DefaultTimestampOffset); ok {
			lat.Record(int64(rec.TS.Sub(ts)))
		}
	}))

	slot := wire.SerializationTime(e15FrameSize, wire.Rate40G)
	gens := make([]*gen.Generator, 4)
	for p := 0; p < 4; p++ {
		spec := probeSpec
		spec.SrcMAC = e15EdgeMAC(p)
		spec.DstMAC = e15ServerMAC
		spec.SrcPort = uint16(5000 + e15FlowsPerLeaf*p)
		gens[p] = startGen(t.Port(osntPorts[p]), gen.Config{
			Source:         &gen.UDPFlowSource{Spec: spec, NumFlows: e15FlowsPerLeaf, FrameSize: e15FrameSize},
			Spacing:        gen.Poisson{Mean: sim.Duration(float64(slot) / load)},
			EmbedTimestamp: true,
			Seed:           runner.PointSeed(0xe15, pointSeed*4+p),
		})
	}
	offered := drive(e, sim.Time(duration), gens...)
	lm := stats.NewLossMap(offered, m.Seen().Packets, t.Drops())
	return lm, leaf, lat, offered
}

// E15Oversubscribed is the oversubscribed-fabric sweep the group links
// and the loss ledger unlock: 4×40G leaves spray Poisson traffic over a
// 2×40G uplink bundle, crossing the 2:1 fan-in knee at 50% offered
// load. Below the knee the fabric is lossless and the uplink FIFOs
// bound p99; above it the excess overflows exactly there, and the
// ledger proves it: every lost frame is attributed to the leaf's uplink
// egress (same-rate fan-in, reason egress-overflow), the conservation
// column checks sent = delivered + Σ attributed drops exactly, and the
// spray column shows what ECMP hash luck costs against a perfect
// split.
func E15Oversubscribed(duration sim.Duration) *stats.Table {
	if duration == 0 {
		duration = 5 * sim.Millisecond
	}
	tbl := &stats.Table{
		Title: "E15: oversubscribed fabric — 4×40G leaves ECMP-sprayed over 2×40G uplinks (512B Poisson, knee at 50%)",
		Columns: []stats.Column{
			{Name: "load(%)", Verb: "%.0f"}, {Name: "offered(Mpps)", Verb: "%.3f"}, {Name: "delivered(Mpps)", Verb: "%.3f"},
			{Name: "spray(up0/up1 %)", Verb: "%s"}, {Name: "p99(µs)", Verb: "%.2f"}, {Name: "uplink-drops", Verb: "%d"},
			{Name: "other-drops", Verb: "%d"}, {Name: "loss(%)", Verb: "%.2f"}, {Name: "conserved", Verb: "%v"},
		},
	}
	tbl.Rows = sweeper().Rows(len(E15Loads), func(i int) [][]any {
		load := E15Loads[i]
		lm, leaf, lat, offered := e15Point(duration, load, i)

		up0 := leaf.Port(4).Egress().Packets
		up1 := leaf.Port(5).Egress().Packets
		split := [2]float64{50, 50}
		if up0+up1 > 0 {
			split[0] = float64(up0) / float64(up0+up1) * 100
			split[1] = 100 - split[0]
		}
		uplinkDrops := leaf.Port(4).Drops() + leaf.Port(5).Drops()
		secs := duration.Seconds()
		return [][]any{{
			load * 100, float64(offered) / secs / 1e6, float64(lm.Delivered) / secs / 1e6,
			fmt.Sprintf("%.1f/%.1f", split[0], split[1]), float64(lat.Percentile(99)) / 1e6,
			uplinkDrops, lm.Attributed() - uplinkDrops, lm.LossFraction() * 100, lm.Conserved(),
		}}
	})
	return tbl
}

// E15LossMap runs the canonical overloaded point (100% offered load)
// and returns its loss map — what `osnt-bench -losses` prints: the
// per-hop/per-reason attribution table for a fabric past its knee.
func E15LossMap(duration sim.Duration) *stats.LossMap {
	if duration == 0 {
		duration = 2 * sim.Millisecond
	}
	lm, _, _, _ := e15Point(duration, 1.0, 0)
	return lm
}

// SprayMicroBench drives the ECMP spray hot path in isolation: 64 B
// line-rate traffic across a two-member uplink group into a 2-port
// capture card, with an overspeed lookup so the spray decision (header
// digest + whitening + member select) dominates. cmd/benchgate samples
// it as the spray micro-benchmark; the returned counts are the packets
// received per member port, which callers assert to keep the rig (and
// the hash spread) honest.
func SprayMicroBench(duration sim.Duration) (member0, member1 uint64) {
	if duration == 0 {
		duration = sim.Millisecond
	}
	e := sim.NewEngine()
	t := topo.New().
		Tester("tx", netfpga.Config{Ports: 1}).
		Tester("rx", netfpga.Config{Ports: 2}).
		DUT("leaf", e15OverspeedLookup(switchsim.Config{Ports: 3})).
		Link("tx:0", "leaf:0").
		Group("leaf:1", "rx:0", 2).
		MustBuild(e)
	leaf := t.DUT("leaf")
	leaf.LearnGroup(probeSpec.DstMAC, leaf.AddGroup(1, 2))
	drive(e, sim.Time(duration), startGen(t.Port("tx:0"), gen.Config{
		Source:  &gen.UDPFlowSource{Spec: probeSpec, NumFlows: e14Flows, FrameSize: 64},
		Spacing: gen.CBRForLoad(64, wire.Rate10G, 1.0),
		Seed:    runner.PointSeed(0xe15, 0x5eed),
	}))
	rx := t.Tester("rx")
	return rx.Port(0).RxStats().Packets, rx.Port(1).RxStats().Packets
}
