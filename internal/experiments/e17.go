package experiments

import (
	"fmt"

	"osnt/internal/flowstats"
	"osnt/internal/gen"
	"osnt/internal/mon"
	"osnt/internal/netfpga"
	"osnt/internal/packet"
	"osnt/internal/runner"
	"osnt/internal/sim"
	"osnt/internal/stats"
	"osnt/internal/switchsim"
	"osnt/internal/timing"
	"osnt/internal/topo"
	"osnt/internal/wire"
)

// E17QueueCounts sweeps how many RSS capture queues carry the same
// workload, heaviest first for the worker pool. The flow analytics must
// come out byte-identical at every count: the merge erases the queue
// topology from the record stream.
var E17QueueCounts = []int{8, 4, 2, 1}

const (
	// e17FrameSize is the probe size (FCS-inclusive).
	e17FrameSize = 512
	// e17CycleSlots is the workload's repeating schedule length: 512
	// send slots interleaving 8 elephants (32 slots each, every even
	// slot) with 256 mice (one odd slot each), so per-flow offered
	// counts are exact arithmetic on the consumed slot count.
	e17CycleSlots = 512
	e17ElephantN  = 8
	e17MouseN     = e17CycleSlots / 2
	// e17TopK is how many flows each sweep point reports.
	e17TopK = 3
)

// e17Workload is the precomputed elephants-and-mice schedule: frame
// templates per cycle slot, the header digest each slot's flow hashes
// to, and display names. Read-only after construction, so sweep points
// share one instance across workers.
type e17Workload struct {
	frames []*wire.Frame // one template per cycle slot (flows share pointers)
	slots  []uint64      // slot → flow digest
	weight map[uint64]uint64
	names  map[uint64]string
}

var e17Flows = newE17Workload()

func newE17Workload() *e17Workload {
	w := &e17Workload{
		frames: make([]*wire.Frame, e17CycleSlots),
		slots:  make([]uint64, e17CycleSlots),
		weight: make(map[uint64]uint64, e17ElephantN+e17MouseN),
		names:  make(map[uint64]string, e17ElephantN+e17MouseN),
	}
	build := func(port uint16, name string) (*wire.Frame, uint64) {
		spec := probeSpec
		spec.SrcPort = port
		spec.FrameSize = e17FrameSize
		data := spec.Build()
		d := packet.PacketDigest(data, packet.HeaderDigestBytes)
		w.names[d] = name
		return wire.NewFrame(data), d
	}
	elephants := make([]*wire.Frame, e17ElephantN)
	elephantD := make([]uint64, e17ElephantN)
	for i := range elephants {
		elephants[i], elephantD[i] = build(uint16(5000+i), fmt.Sprintf("eleph-%d", i))
	}
	for p := 0; p < e17CycleSlots; p++ {
		if p%2 == 0 {
			i := (p / 2) % e17ElephantN
			w.frames[p], w.slots[p] = elephants[i], elephantD[i]
		} else {
			j := (p - 1) / 2
			w.frames[p], w.slots[p] = build(uint16(6000+j), fmt.Sprintf("mouse-%d", j))
		}
		w.weight[w.slots[p]]++
	}
	return w
}

// offered returns exactly how many packets of the flow the generator
// put on the wire after consuming n schedule slots.
func (w *e17Workload) offered(n, digest uint64) uint64 {
	c := (n / e17CycleSlots) * w.weight[digest]
	for p := uint64(0); p < n%e17CycleSlots; p++ {
		if w.slots[p] == digest {
			c++
		}
	}
	return c
}

// fnvFold folds one 64-bit value into a running FNV-1a stream digest,
// big-endian byte order.
func fnvFold(h, v uint64) uint64 {
	const prime = 1099511628211
	for s := 56; s >= 0; s -= 8 {
		h = (h ^ (v >> uint(s) & 0xff)) * prime
	}
	return h
}

// e17StreamSeed is the FNV-1a offset basis the stream digest starts from.
const e17StreamSeed = 14695981039346656037

// E17FlowAnalytics is the per-flow analytics experiment the cross-queue
// merge exists for: a 40G elephants-and-mice workload (8 heavy + 256
// light UDP flows on a fixed 512-slot schedule) crosses a switch whose
// lookup pipeline is starved to ~95% of line rate — so it sheds a few
// percent of a saturated stream — into an RSS-steered multi-queue
// capture. The merged record stream feeds a flowstats.FlowTable plus
// count-min and space-saving sketches, and each row reports one of the
// top flows: measured packets against the schedule's exact offered
// count (loss-ex), the loss the flow table *infers* from transmit-
// timestamp gaps alone (loss-inf), per-flow latency and reorders.
//
// The digest column is an order-sensitive FNV-1a over every merged
// record's (timestamp, flow hash) and must be identical across the
// 8/4/2/1-queue rows: the k-way merge reconstructs one canonical global
// order no matter how many rings the capture was spread over — the
// cross-queue ordering bugfix this experiment locks in. ok further
// requires zero merge order violations, zero ring drops, every elephant
// monitored by space-saving, count-min never undercounting the top
// flows, and the drop ledger conserving offered = delivered + attributed.
func E17FlowAnalytics(duration sim.Duration) *stats.Table {
	if duration == 0 {
		duration = 5 * sim.Millisecond
	}
	tbl := &stats.Table{
		Title:   "E17: per-flow analytics over merged multi-queue capture — elephants and mice through a lossy DUT (512B CBR at 40G)",
		Columns: []string{"queues", "rank", "flow", "pkts", "loss-ex(%)", "loss-inf(%)", "lat(µs)", "reorders", "merged", "digest", "ok"},
	}
	w := e17Flows
	tbl.Rows = sweeper().Rows(len(E17QueueCounts), func(i int) [][]string {
		nq := E17QueueCounts[i]
		e := sim.NewEngine()
		t := topo.New().
			Tester("tx", netfpga.Config{Ports: 1, Rate: wire.Rate40G}).
			Tester("rx", netfpga.Config{Ports: 1, Rate: wire.Rate40G}).
			DUT("sw", switchsim.Config{
				Ports:     2,
				PortRates: []wire.Rate{wire.Rate40G, wire.Rate40G},
				// Starved lookup: ~112.2 ns service against the 106.4 ns
				// back-to-back slot of a 512 B frame at 40G, so the
				// saturated stream overflows the lookup queue once it has
				// filled — a few percent steady-state loss.
				LookupPerPacket: 20 * sim.Nanosecond,
				LookupPerByte:   sim.Picoseconds(180),
			}).
			Link("tx:0", "sw:0").
			Link("sw:1", "rx:0").
			MustBuild(e)
		t.DUT("sw").Learn(probeSpec.DstMAC, 1)

		queues := make([]mon.QueueConfig, nq)
		for q := range queues {
			queues[q] = mon.QueueConfig{
				RingSize:      1 << 18,
				HostPerPacket: sim.Nanosecond,
				HostPerByte:   -1,
			}
		}
		m := t.AttachMonitor("rx:0", mon.Config{
			SnapLen:   64, // the embedded timestamp at offset 42..50 survives
			HashBytes: packet.HeaderDigestBytes,
			Steer:     mon.SteerHash,
			Queues:    queues,
		})

		ft := flowstats.NewFlowTable(1 << 10)
		ss := flowstats.NewSpaceSaving(2 * e17ElephantN)
		cm := flowstats.NewCountMin(4, 1<<12)
		streamDigest := uint64(e17StreamSeed)
		merge := mon.NewMerge(m, func(rec mon.Record) {
			streamDigest = fnvFold(fnvFold(streamDigest, uint64(rec.TS)), rec.Hash)
			s := flowstats.Sample{Digest: rec.Hash, RxTS: rec.TS, Wire: rec.WireSize, Trace: rec.Trace}
			if tx, ok := gen.ExtractTimestamp(rec.Data, gen.DefaultTimestampOffset); ok {
				s.TxTS, s.HasTx = tx, true
			}
			ft.Observe(s)
			ss.Add(rec.Hash, 1)
			cm.Add(rec.Hash, 1)
		})

		g, err := gen.New(t.Port("tx:0"), gen.Config{
			Source:         &gen.SliceSource{Frames: w.frames, Loop: true},
			Spacing:        gen.CBRForLoad(e17FrameSize, wire.Rate40G, 1.0),
			EmbedTimestamp: true,
			Pool:           wire.DefaultPool,
			Seed:           runner.PointSeed(0xe17, i),
		})
		if err != nil {
			panic(err)
		}
		g.Start(0)
		e.RunUntil(sim.Time(duration))
		g.Stop()
		e.Run() // drain the DUT and every capture ring
		merge.Flush()

		consumed := g.Sent().Packets + g.Dropped()
		lm := stats.NewLossMap(consumed, m.Seen().Packets, t.Drops())
		top := ft.Top(e17TopK)
		ok := merge.OrderViolations() == 0 && m.RingDrops() == 0 &&
			merge.Pending() == 0 && lm.Conserved()
		for k := 0; k < e17ElephantN; k++ {
			ok = ok && ss.Monitored(w.slots[2*k])
		}
		for _, f := range top {
			ok = ok && cm.Estimate(f.Digest) >= f.Packets
		}

		rows := make([][]string, 0, len(top))
		for rank, f := range top {
			off := w.offered(consumed, f.Digest)
			rows = append(rows, []string{
				fmt.Sprintf("%d", nq),
				fmt.Sprintf("%d", rank+1),
				w.names[f.Digest],
				fmt.Sprintf("%d", f.Packets),
				fmt.Sprintf("%.2f", float64(off-f.Packets)/float64(off)*100),
				fmt.Sprintf("%.2f", float64(f.Holes)/float64(off)*100),
				fmt.Sprintf("%.2f", f.LatencyMean().Seconds()*1e6),
				fmt.Sprintf("%d", f.Reorders),
				fmt.Sprintf("%d", merge.Emitted()),
				fmt.Sprintf("%016x", streamDigest),
				fmt.Sprintf("%v", ok),
			})
		}
		return rows
	})
	return tbl
}

// MergeMicroBench drives the k-way merge hot path in isolation: 64 B
// line-rate capture at 10G dealt round-robin across 8 idealised queues
// (the worst cross-queue interleave) with a Merge re-sequencing every
// record into global order. cmd/benchgate samples it as the merge
// micro-benchmark; the returned count is the merged emissions, which
// callers assert to keep the rig honest.
func MergeMicroBench(duration sim.Duration) uint64 {
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
	m := t.AttachMonitor("osnt:1", mon.Config{
		SnapLen: 64,
		Steer:   mon.SteerRoundRobin,
		Queues:  queues,
	})
	merge := mon.NewMerge(m, func(mon.Record) {})
	g, err := gen.New(t.Port("osnt:0"), gen.Config{
		Source:   &gen.UDPFlowSource{Spec: probeSpec, NumFlows: e14Flows, FrameSize: 64},
		Spacing:  gen.CBRForLoad(64, wire.Rate10G, 1.0),
		Pool:     wire.DefaultPool,
		Seed:     runner.PointSeed(0xe17, 0x5eed),
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
	merge.Flush()
	return merge.Emitted()
}

// FlowTableMicroBench drives the flow-analytics upsert hot path without
// an engine: 2^20 synthetic samples over 512 flows folded into a flow
// table, a count-min sketch and a space-saving summary — the per-record
// work the merged sink does in E17. Returns how many samples the table
// tracked (all of them, which callers assert).
func FlowTableMicroBench() uint64 {
	ft := flowstats.NewFlowTable(1 << 10)
	cm := flowstats.NewCountMin(4, 1<<12)
	ss := flowstats.NewSpaceSaving(16)
	const samples = 1 << 20
	tracked := uint64(0)
	for i := 0; i < samples; i++ {
		d := packet.Mix64(uint64(i%512) + 1)
		tx := timing.FromSim(sim.After(sim.Duration(i) * 100 * sim.Nanosecond))
		if ft.Observe(flowstats.Sample{Digest: d, TxTS: tx, HasTx: true, RxTS: tx.Add(sim.Microsecond), Wire: 64}) {
			tracked++
		}
		cm.Add(d, 1)
		ss.Add(d, 1)
	}
	return tracked
}
