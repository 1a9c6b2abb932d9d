package experiments

import (
	"osnt/internal/gen"
	"osnt/internal/mon"
	"osnt/internal/netfpga"
	"osnt/internal/runner"
	"osnt/internal/sim"
	"osnt/internal/stats"
	"osnt/internal/topo"
	"osnt/internal/wire"
)

// E9PairCounts is the port-scaling sweep: N independent generator →
// monitor port pairs, each driven at 100% of line rate. Heaviest first,
// so the parallel runner starts the long pole immediately and the sweep's
// wall time approaches the cost of the 8-pair point alone.
var E9PairCounts = []int{8, 4, 2, 1}

// E9FrameSizes spans the line-rate extremes plus a mid-size: 64 B is the
// 14.88 Mpps worst case, 1518 B the bandwidth-bound best case.
var E9FrameSizes = []int{64, 256, 1518}

// E9PortScaling is the multi-port scaling sweep: 1/2/4/8 generator–
// monitor port pairs at line rate on one card, checking that aggregate
// generation and MAC-level capture scale linearly with the port count
// (the paper's "full line-rate ... across the four card ports", pushed
// past four). Capture is counted at the RX MAC; the host(%) column shows
// how much of it the loss-limited DMA path (64 B thinning) also
// delivered, tying the scaling story back to E7.
func E9PortScaling(duration sim.Duration) *stats.Table {
	return pairScalingSweep(
		"E9: multi-port scaling — N gen→mon port pairs at line rate",
		wire.Rate10G, E9PairCounts, E9FrameSizes, 0xe9, duration)
}

// pairScalingSweep is the gen→mon pair rig shared by E9 (10G) and E11
// (40G): one card with 2N ports, N loopback pairs, every generator at
// 100% of line rate, capture thinned to 64 B. The `ok` column checks
// that aggregate MAC capture stays within 0.1% of pairs × line rate.
func pairScalingSweep(title string, rate wire.Rate, pairCounts, frameSizes []int, seedBase uint64, duration sim.Duration) *stats.Table {
	if duration == 0 {
		duration = 2 * sim.Millisecond
	}
	tbl := &stats.Table{
		Title: title,
		Columns: []stats.Column{
			{Name: "pairs", Verb: "%d"}, {Name: "frame(B)", Verb: "%d"}, {Name: "offered(Mpps)", Verb: "%.3f"},
			{Name: "mac-rx(Mpps)", Verb: "%.3f"}, {Name: "agg(Gb/s)", Verb: "%.3f"}, {Name: "host(%)", Verb: "%.1f"},
			{Name: "ok", Verb: "%v"},
		},
	}
	points := len(pairCounts) * len(frameSizes)
	tbl.Rows = sweeper().Rows(points, func(i int) [][]any {
		pairs := pairCounts[i/len(frameSizes)]
		fs := frameSizes[i%len(frameSizes)]
		e := sim.NewEngine()
		b := topo.New().Tester("osnt", netfpga.Config{Ports: 2 * pairs, Rate: rate})
		for p := 0; p < pairs; p++ {
			b.Link(osntPorts[2*p], osntPorts[2*p+1])
		}
		t := b.MustBuild(e)
		gens := make([]*gen.Generator, pairs)
		mons := make([]*mon.Monitor, pairs)
		for p := 0; p < pairs; p++ {
			mons[p] = t.AttachMonitor(osntPorts[2*p+1], mon.Config{SnapLen: 64})
			spec := probeSpec
			spec.SrcPort = uint16(5000 + p)
			gens[p] = startGen(t.Port(osntPorts[2*p]), gen.Config{
				Source:  &gen.UDPFlowSource{Spec: spec, FrameSize: fs},
				Spacing: gen.CBRForLoad(fs, rate, 1.0),
				Seed:    runner.PointSeed(seedBase, i*16+p),
			})
		}
		offered := drive(e, sim.Time(duration), gens...)

		var macRx, hostRx uint64
		for p := 0; p < pairs; p++ {
			macRx += mons[p].Seen().Packets
			hostRx += mons[p].Delivered().Packets
		}
		secs := duration.Seconds()
		offMpps := float64(offered) / secs / 1e6
		rxMpps := float64(macRx) / secs / 1e6
		gbps := rxMpps * 1e6 * float64(wire.WireBytes(fs)) * 8 / 1e9
		hostPct := 0.0
		if macRx > 0 {
			hostPct = float64(hostRx) / float64(macRx) * 100
		}
		// Linear scaling check: aggregate MAC capture within 0.1% of
		// pairs × theoretical line rate.
		ok := rxMpps*1e6 > wire.MaxPPS(fs, rate)*float64(pairs)*0.999
		return [][]any{{pairs, fs, offMpps, rxMpps, gbps, hostPct, ok}}
	})
	return tbl
}
