package experiments

import (
	"fmt"

	"osnt/internal/gen"
	"osnt/internal/mon"
	"osnt/internal/netfpga"
	"osnt/internal/runner"
	"osnt/internal/sim"
	"osnt/internal/stats"
	"osnt/internal/topo"
	"osnt/internal/wire"
)

// E14QueueCounts sweeps the number of per-port DMA capture queues,
// heaviest (most queues) first for the worker pool.
var E14QueueCounts = []int{8, 4, 2, 1}

// E14FrameSizes spans the 100G line-rate extremes plus a mid size: 64 B
// is the 148.81 Mpps worst case no host path can absorb, 1518 B the
// 8.13 Mpps case a single drain core already loses.
var E14FrameSizes = []int{64, 512, 1518}

// e14Flows is the flow count of the generator workload: enough distinct
// flows that RSS hash steering spreads them usefully across 8 queues.
const e14Flows = 64

// E14Capture100G is the 100G capture sweep the multi-queue DMA engine
// unlocks: one wire.Rate100G port generating at 100% of line rate into a
// monitor whose capture is thinned to 64 B and spread across 1/2/4/8
// per-queue descriptor rings by RSS hash steering over 64 flows.
//
// Each queue's host core drains one thinned record per
// HostPerPacket + 64·HostPerByte ≈ 171 ns, about 5.8 Mpps — so a single
// queue saturates far below even the 1518 B line rate (8.13 Mpps) and
// the loss-limited path of E7 reappears one rate tier up. Spreading the
// same capture across queues multiplies the drain: two queues restore
// lossless 1518 B capture, eight restore 512 B (23.47 Mpps), while 64 B
// line rate (148.81 Mpps) stays beyond any host path — the reason
// thinning, filtering and multi-queue DMA compose rather than compete.
// The imbal column is the hottest queue's load over the per-queue mean
// (1.0 = perfectly spread), showing what hash steering costs against
// the round-robin ideal.
func E14Capture100G(duration sim.Duration) *stats.Table {
	if duration == 0 {
		duration = 2 * sim.Millisecond
	}
	tbl := &stats.Table{
		Title:   "E14: 100G capture — per-queue DMA rings vs the loss-limited host path (snap 64, RSS hash steer, 64 flows)",
		Columns: []string{"queues", "frame(B)", "offered(Mpps)", "mac-rx(Mpps)", "host(Mpps)", "host(%)", "ring-drops", "imbal", "lossless"},
	}
	points := len(E14QueueCounts) * len(E14FrameSizes)
	tbl.Rows = sweeper().Rows(points, func(i int) [][]string {
		nq := E14QueueCounts[i/len(E14FrameSizes)]
		fs := E14FrameSizes[i%len(E14FrameSizes)]
		e := sim.NewEngine()
		t := topo.New().
			Tester("osnt", netfpga.Config{Ports: 2, Rate: wire.Rate100G}).
			Link("osnt:0", "osnt:1").
			MustBuild(e)
		m := t.AttachMonitor("osnt:1", mon.Config{
			SnapLen: 64,
			Queues:  make([]mon.QueueConfig, nq), // default ring + host core per queue
		})
		g, err := gen.New(t.Port("osnt:0"), gen.Config{
			Source:  &gen.UDPFlowSource{Spec: probeSpec, NumFlows: e14Flows, FrameSize: fs},
			Spacing: gen.CBRForLoad(fs, wire.Rate100G, 1.0),
			Pool:    wire.DefaultPool,
			Seed:    runner.PointSeed(0xe14, i),
			// Frame-train coalescing: at load 1.0 every frame abuts its
			// predecessor, so the whole hot path batches — same table,
			// a fraction of the engine events.
			MaxTrain: 64,
			Until:    sim.Time(duration),
		})
		if err != nil {
			panic(err)
		}
		g.Start(0)
		e.RunUntil(sim.Time(duration))
		g.Stop()
		e.Run() // drain in-flight frames and every capture ring

		pq := stats.NewPerQueue(m.NumQueues())
		for q := 0; q < m.NumQueues(); q++ {
			qs := m.QueueStats(q)
			pq.Set(q, qs.Seen.Packets, qs.Delivered.Packets, qs.RingDrops)
		}
		offered := g.Sent().Packets
		macRx := m.Seen().Packets
		host := pq.TotalDelivered()
		drops := pq.TotalDropped()
		secs := duration.Seconds()
		hostPct := 0.0
		if macRx > 0 {
			hostPct = float64(host) / float64(macRx) * 100
		}
		return [][]string{{
			fmt.Sprintf("%d", nq),
			fmt.Sprintf("%d", fs),
			fmt.Sprintf("%.3f", float64(offered)/secs/1e6),
			fmt.Sprintf("%.3f", float64(macRx)/secs/1e6),
			fmt.Sprintf("%.3f", float64(host)/secs/1e6),
			fmt.Sprintf("%.1f", hostPct),
			fmt.Sprintf("%d", drops),
			fmt.Sprintf("%.2f", pq.Imbalance()),
			fmt.Sprintf("%v", drops == 0),
		}}
	})
	return tbl
}

// SteerMicroBench drives the multi-queue steering hot path in
// isolation: 64 B line-rate capture at 10G spread across 8 idealised
// queues (zero-cost hosts, so nothing queues and every packet crosses
// steer → ring → drain). cmd/benchgate samples it as the steering
// micro-benchmark; the returned count is the packets delivered across
// all queues, which callers assert to keep the rig honest.
func SteerMicroBench(duration sim.Duration) uint64 {
	if duration == 0 {
		duration = sim.Millisecond
	}
	e := sim.NewEngine()
	t := topo.New().
		Tester("osnt", netfpga.Config{Ports: 2}).
		Link("osnt:0", "osnt:1").
		MustBuild(e)
	queues := make([]mon.QueueConfig, 8)
	for i := range queues {
		queues[i] = mon.QueueConfig{HostPerPacket: sim.Picosecond, HostPerByte: -1}
	}
	m := t.AttachMonitor("osnt:1", mon.Config{SnapLen: 64, Queues: queues})
	g, err := gen.New(t.Port("osnt:0"), gen.Config{
		Source:   &gen.UDPFlowSource{Spec: probeSpec, NumFlows: e14Flows, FrameSize: 64},
		Spacing:  gen.CBRForLoad(64, wire.Rate10G, 1.0),
		Pool:     wire.DefaultPool,
		Seed:     runner.PointSeed(0xe14, 0x5eed),
		MaxTrain: 64,
		Until:    sim.Time(duration),
	})
	if err != nil {
		panic(err)
	}
	g.Start(0)
	e.RunUntil(sim.Time(duration))
	g.Stop()
	e.Run()
	return m.Delivered().Packets
}
