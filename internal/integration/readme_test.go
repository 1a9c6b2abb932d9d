package integration_test

import (
	"testing"

	"osnt/internal/flowstats"
	"osnt/internal/gen"
	"osnt/internal/mon"
	"osnt/internal/netfpga"
	"osnt/internal/packet"
	"osnt/internal/sim"
	"osnt/internal/topo"
	"osnt/internal/wire"
)

// TestReadmeFlowSnippet mirrors the README's merged-capture flow
// analytics example so the documentation stays compile-verified and
// behaviour-verified.
func TestReadmeFlowSnippet(t *testing.T) {
	engine := sim.NewEngine()
	tp := topo.New().
		Tester("osnt", netfpga.Config{Ports: 2}).
		Link("osnt:0", "osnt:1").
		MustBuild(engine)

	m := tp.AttachMonitor("osnt:1", mon.Config{
		SnapLen:   64,
		HashBytes: packet.HeaderDigestBytes, // headers only: one digest per flow
		Steer:     mon.SteerHash,
		Queues:    make([]mon.QueueConfig, 4),
	})

	flows := flowstats.NewFlowTable(1024) // preallocated, never rehashes
	heavy := flowstats.NewSpaceSaving(8)  // top-k summary with error bounds
	sketch := flowstats.NewCountMin(4, 1<<12)
	merge := mon.NewMerge(m, func(rec mon.Record) { // records arrive in global order
		s := flowstats.Sample{Digest: rec.Hash, RxTS: rec.TS, Wire: rec.WireSize, Trace: rec.Trace}
		if tx, ok := gen.ExtractTimestamp(rec.Data, gen.DefaultTimestampOffset); ok {
			s.TxTS, s.HasTx = tx, true
		}
		flows.Observe(s)
		heavy.Add(rec.Hash, 1)
		sketch.Add(rec.Hash, 1)
	})

	// ... run traffic ...
	g, err := gen.New(tp.Port("osnt:0"), gen.Config{
		Source:         &gen.UDPFlowSource{Spec: spec, NumFlows: 16, FrameSize: 512},
		Spacing:        gen.CBRForLoad(512, wire.Rate10G, 1.0),
		EmbedTimestamp: true,
		Count:          2000,
		Pool:           wire.DefaultPool,
	})
	if err != nil {
		t.Fatal(err)
	}
	g.Start(0)
	engine.Run()
	merge.Flush() // release the tail the watermark held back

	if got, want := merge.Emitted(), m.Delivered().Packets; got != want {
		t.Fatalf("merge emitted %d of %d delivered records", got, want)
	}
	if merge.OrderViolations() != 0 {
		t.Fatalf("merge recorded %d order violations", merge.OrderViolations())
	}
	if flows.Len() != 16 {
		t.Fatalf("flow table tracks %d flows, want 16", flows.Len())
	}
	top := flows.Top(3)
	if len(top) != 3 {
		t.Fatalf("Top(3) returned %d flows", len(top))
	}
	for _, f := range top {
		if f.Packets == 0 || f.LatencyMean() == 0 {
			t.Fatalf("top flow %016x has no packets or latency samples", f.Digest)
		}
		if f.Reorders != 0 || f.Holes != 0 {
			t.Fatalf("lossless single-hop rig inferred reorders=%d holes=%d", f.Reorders, f.Holes)
		}
		if est := sketch.Estimate(f.Digest); est < f.Packets {
			t.Fatalf("count-min undercounts flow %016x: %d < %d", f.Digest, est, f.Packets)
		}
	}
	// 16 equal-rate flows churn an 8-slot summary: every slot is held,
	// and each candidate's count never undercounts its true volume.
	packets := make(map[uint64]uint64)
	flows.Flows(func(f *flowstats.Flow) { packets[f.Digest] = f.Packets })
	held := heavy.Top(8)
	if len(held) != 8 {
		t.Fatalf("space-saving monitors %d flows, want 8", len(held))
	}
	for _, h := range held {
		if n, ok := packets[h.Digest]; ok && h.Count < n {
			t.Fatalf("space-saving undercounts flow %016x: %d < %d", h.Digest, h.Count, n)
		}
	}
}
