package experiments

import (
	"fmt"

	"osnt/internal/gen"
	"osnt/internal/netfpga"
	"osnt/internal/packet"
	"osnt/internal/sim"
	"osnt/internal/stats"
	"osnt/internal/switchsim"
	"osnt/internal/topo"
	"osnt/internal/wire"
)

// E16Loads sweeps the offered load as a fraction of the 40G ingress
// line rate. The chain's conversion knee (40G → 10G inside switch 1)
// sits at 0.25; the starved lookup at switch 3 saturates fractionally
// below the same point, so the sweep turns each loss mechanism on and
// off independently. Heaviest first for the worker pool.
var E16Loads = []float64{1.0, 0.5, 0.3, 0.25, 0.2}

// e16FrameSize is the probe size (FCS-inclusive).
const e16FrameSize = 512

// e16Injections is how many runt frames and how many hairpin probes are
// injected per run, spread evenly across the measurement window.
const e16Injections = 64

// e16HairpinMAC is a station deliberately mis-learned at switch 2: it
// sits behind switch 2's *ingress* port, so every probe addressed to it
// is a hairpin drop at hop 2 and nowhere else.
var e16HairpinMAC = packet.MAC{0x02, 0x05, 0x17, 0x16, 0xaa, 0x01}

// e16HairpinSrcMAC sources the hairpin probes (distinct from the main
// flow so FDB learning stays disjoint).
var e16HairpinSrcMAC = packet.MAC{0x02, 0x05, 0x17, 0x16, 0xaa, 0x02}

// E16LossAttribution is the attribution experiment the unified ledger
// exists for: a CBR stream crosses a 4-deep chain of DUTs engineered so
// that each hop can lose frames for exactly one reason — hop 1 converts
// 40G down to 10G (rate-boundary overflow past the 25% knee) and parses
// out injected runts, hop 2 hairpin-drops probes addressed to a station
// behind its own ingress port, hop 3 runs a lookup pipeline starved to
// ~94% of line rate (lookup-overflow once the converted stream runs
// back-to-back), and hop 4 is clean. The ledger must account every
// frame to the correct (hop, reason) cell with nothing left over:
// offered = delivered-at-MAC + Σ attributed, checked exactly per row.
func E16LossAttribution(duration sim.Duration) *stats.Table {
	if duration == 0 {
		duration = 10 * sim.Millisecond
	}
	tbl := &stats.Table{
		Title: "E16: per-hop loss attribution — 4-deep converting chain (512B CBR at 40G, knee at 25%)",
		Columns: []stats.Column{
			{Name: "load(%)", Verb: "%.0f"}, {Name: "offered", Verb: "%d"}, {Name: "runts", Verb: "%d"},
			{Name: "hairpins", Verb: "%d"}, {Name: "delivered", Verb: "%d"}, {Name: "h1-rate-boundary", Verb: "%d"},
			{Name: "h1-runt", Verb: "%d"}, {Name: "h2-hairpin", Verb: "%d"}, {Name: "h3-lookup", Verb: "%d"},
			{Name: "other", Verb: "%d"}, {Name: "conserved", Verb: "%v"},
		},
	}
	tbl.Rows = sweeper().Rows(len(E16Loads), func(i int) [][]any {
		load := E16Loads[i]
		e := sim.NewEngine()
		t := topo.New().
			Tester("tx", netfpga.Config{Ports: 1, Rate: wire.Rate40G}).
			Tester("rx", netfpga.Config{Ports: 1}).
			DUT("sw1", e15OverspeedLookup(switchsim.Config{
				Ports:     2,
				PortRates: []wire.Rate{wire.Rate40G}, // 40G in, 10G out: the boundary
			})).
			DUT("sw2", switchsim.Config{Ports: 2}).
			DUT("sw3", switchsim.Config{
				Ports: 2,
				// Starved lookup: 455.2 ns service against the 428.8 ns
				// back-to-back arrival slot of a 512 B frame at 10G, so a
				// saturated upstream overflows this hop's lookup queue.
				LookupPerPacket: 20 * sim.Nanosecond,
				LookupPerByte:   sim.Picoseconds(850),
			}).
			DUT("sw4", switchsim.Config{Ports: 2}).
			Link("tx:0", "sw1:0").
			Link("sw1:1", "sw2:0").
			Link("sw2:1", "sw3:0").
			Link("sw3:1", "sw4:0").
			Link("sw4:1", "rx:0").
			MustBuild(e)

		spec := probeSpec
		for k := 1; k <= 4; k++ {
			t.DUT(fmt.Sprintf("sw%d", k)).Learn(spec.DstMAC, 1)
		}
		t.DUT("sw1").Learn(e16HairpinMAC, 1)
		t.DUT("sw2").Learn(e16HairpinMAC, 0) // behind its own ingress: hairpin

		m := t.AttachMonitor("rx:0", idealCapture(nil))

		// The generator starts before the injections are scheduled: the
		// engine fires same-instant events in the order they were armed.
		g := startGen(t.Port("tx:0"), gen.Config{
			Source:  &gen.UDPFlowSource{Spec: spec, FrameSize: e16FrameSize},
			Spacing: gen.CBRForLoad(e16FrameSize, wire.Rate40G, load),
		})

		// Inject the engineered losses on a fixed grid across the run:
		// runt frames (too short to parse at hop 1) and hairpin probes
		// (addressed behind hop 2's ingress port).
		hairpinSpec := probeSpec
		hairpinSpec.SrcMAC, hairpinSpec.DstMAC = e16HairpinSrcMAC, e16HairpinMAC
		hairpinSpec.FrameSize = 64
		hairpinData := hairpinSpec.Build()
		// Every injection counts as offered whether or not the TX queue
		// admits it: a refused Enqueue is attributed by the card as
		// tx-overflow, so conservation closes either way.
		txPort := t.Port("tx:0")
		const runts, hairpins = uint64(e16Injections), uint64(e16Injections)
		step := sim.Duration(int64(duration) / e16Injections)
		for k := 0; k < e16Injections; k++ {
			at := sim.After(step * sim.Duration(k))
			e.Schedule(at, func() { txPort.Enqueue(wire.One(wire.NewFrame(make([]byte, 8)))) })
			e.Schedule(at.Add(step/2), func() { txPort.Enqueue(wire.One(wire.NewFrame(hairpinData))) })
		}

		offered := drive(e, sim.Time(duration), g) + runts + hairpins
		ledger := t.Drops()
		lm := stats.NewLossMap(offered, m.Seen().Packets, ledger)
		h1Rate := ledger.Count(t.Hop("sw1"), wire.DropRateBoundary)
		h1Runt := ledger.Count(t.Hop("sw1"), wire.DropRunt)
		h2Hair := ledger.Count(t.Hop("sw2"), wire.DropHairpin)
		h3Look := ledger.Count(t.Hop("sw3"), wire.DropLookupOverflow)
		other := lm.Attributed() - h1Rate - h1Runt - h2Hair - h3Look
		return [][]any{{
			load * 100, offered, runts, hairpins, lm.Delivered, h1Rate, h1Runt, h2Hair, h3Look, other, lm.Conserved(),
		}}
	})
	return tbl
}
