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

// E10CardCounts sweeps the tester-mesh size. Heaviest first so the
// parallel runner starts the long pole immediately.
var E10CardCounts = []int{4, 2}

// E10FrameSizes spans the line-rate extremes plus a mid size.
var E10FrameSizes = []int{64, 512, 1518}

// e10PortsPerCard is the NetFPGA-10G port count every mesh card uses.
const e10PortsPerCard = 4

// e10MAC is the station address of mesh endpoint (card, port).
func e10MAC(card, port int) packet.MAC {
	return packet.MAC{0x02, 0x05, 0x17, 0x10, byte(card), byte(port)}
}

// e10DstCard maps mesh flow (card, port) to its destination card: always
// another card (a switch never forwards a frame back out its ingress
// port), cycling port-by-port through every peer so the N·4 flows cover
// the full card mesh while each receive port terminates exactly one flow
// (for a fixed destination (c, j) the source (c-1-(j mod (N-1))) mod N is
// unique).
func e10DstCard(card, port, cards int) int {
	return (card + 1 + port%(cards-1)) % cards
}

// E10TesterMesh is the multi-card scaling sweep the ROADMAP calls the
// next axis beyond E9: N OSNT tester cards (4 ports each) fully meshed
// through one DUT switch, every port generating at 100% of line rate.
// Flow (card i, port j) targets (card e10DstCard(i,j,N), port j), so each
// card exchanges traffic with every other card and each receive port
// terminates exactly one flow. With four cards the DUT carries 16
// line-rate flows: 160 Gb/s aggregate, twice what a single card's
// 80 Gb/s can offer. The DUT's lookup pipeline is provisioned above line
// rate and its FDB pre-learned, so any deviation from perfect scaling
// (mac-rx below N×4×line-rate, or DUT drops) is a real bottleneck, not
// warm-up noise.
func E10TesterMesh(duration sim.Duration) *stats.Table {
	if duration == 0 {
		duration = 2 * sim.Millisecond
	}
	tbl := &stats.Table{
		Title: "E10: tester mesh — N cards × 4 ports full-mesh through one DUT at line rate",
		Columns: []stats.Column{
			{Name: "cards", Verb: "%d"}, {Name: "frame(B)", Verb: "%d"}, {Name: "flows", Verb: "%d"},
			{Name: "offered(Mpps)", Verb: "%.3f"}, {Name: "mac-rx(Mpps)", Verb: "%.3f"},
			{Name: "agg(Gb/s)", Verb: "%.3f"}, {Name: "dut-drops", Verb: "%d"}, {Name: "ok", Verb: "%v"},
		},
	}
	points := len(E10CardCounts) * len(E10FrameSizes)
	tbl.Rows = sweeper().Rows(points, func(i int) [][]any {
		cards := E10CardCounts[i/len(E10FrameSizes)]
		fs := E10FrameSizes[i%len(E10FrameSizes)]
		flows := cards * e10PortsPerCard

		e := sim.NewEngine()
		b := topo.New().DUT("dut", switchsim.Config{
			Ports: flows,
			// Overspeed lookup: 26 ns for a 64 B frame against its 67.2 ns
			// arrival slot, so the fabric never limits the mesh.
			LookupPerPacket: 10 * sim.Nanosecond,
			LookupPerByte:   sim.Picoseconds(250),
		})
		// Tester port references are formatted once and reused for wiring,
		// monitor attachment and generator setup below.
		refs := make([]string, flows)
		for c := 0; c < cards; c++ {
			name := fmt.Sprintf("card%d", c)
			b.Tester(name, netfpga.Config{Ports: e10PortsPerCard})
			for p := 0; p < e10PortsPerCard; p++ {
				idx := c*e10PortsPerCard + p
				refs[idx] = fmt.Sprintf("%s:%d", name, p)
				b.Duplex(refs[idx], fmt.Sprintf("dut:%d", idx))
			}
		}
		t := b.MustBuild(e)

		// Pre-learn every station so the measurement window starts with a
		// converged FDB instead of a flood transient.
		dut := t.DUT("dut")
		for c := 0; c < cards; c++ {
			for p := 0; p < e10PortsPerCard; p++ {
				dut.Learn(e10MAC(c, p), c*e10PortsPerCard+p)
			}
		}

		var gens []*gen.Generator
		var mons []*mon.Monitor
		for c := 0; c < cards; c++ {
			for p := 0; p < e10PortsPerCard; p++ {
				port := t.Port(refs[c*e10PortsPerCard+p])
				mons = append(mons, t.AttachMonitor(refs[c*e10PortsPerCard+p], mon.Config{SnapLen: 64}))
				spec := probeSpec
				spec.SrcMAC = e10MAC(c, p)
				spec.DstMAC = e10MAC(e10DstCard(c, p, cards), p)
				spec.SrcPort = uint16(5000 + c*e10PortsPerCard + p)
				gens = append(gens, startGen(port, gen.Config{
					Source:  &gen.UDPFlowSource{Spec: spec, FrameSize: fs},
					Spacing: gen.CBRForLoad(fs, wire.Rate10G, 1.0),
					Seed:    runner.PointSeed(0xe10, i*64+c*e10PortsPerCard+p),
				}))
			}
		}
		offered := drive(e, sim.Time(duration), gens...)

		var macRx uint64
		for _, m := range mons {
			macRx += m.Seen().Packets
		}
		drops := dut.LookupDrops()
		for p := 0; p < dut.NumPorts(); p++ {
			drops += dut.Port(p).Drops()
		}
		secs := duration.Seconds()
		offMpps := float64(offered) / secs / 1e6
		rxMpps := float64(macRx) / secs / 1e6
		gbps := rxMpps * 1e6 * float64(wire.WireBytes(fs)) * 8 / 1e9
		// Linear scaling check: aggregate capture within 0.1% of
		// flows × theoretical line rate, and a lossless DUT.
		ok := drops == 0 && rxMpps*1e6 > wire.MaxPPS(fs, wire.Rate10G)*float64(flows)*0.999
		return [][]any{{cards, fs, flows, offMpps, rxMpps, gbps, drops, ok}}
	})
	return tbl
}
