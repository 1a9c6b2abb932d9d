package integration_test

import (
	"testing"

	"osnt/internal/flowstats"
	"osnt/internal/gen"
	"osnt/internal/mon"
	"osnt/internal/netfpga"
	"osnt/internal/ofswitch"
	"osnt/internal/openflow"
	"osnt/internal/packet"
	"osnt/internal/race"
	"osnt/internal/sim"
	"osnt/internal/switchsim"
	"osnt/internal/wire"
)

// perPacketRig wires the canonical hot path — pooled generator → TX
// queue → MAC/link → RX MAC → monitor ring → host drain — on one engine,
// driven at 64 B line rate (the 14.88 Mpps worst case).
func perPacketRig(tb testing.TB, pool *wire.Pool) (*sim.Engine, *gen.Generator, *mon.Monitor) {
	tb.Helper()
	e := sim.NewEngine()
	card := netfpga.New(e, netfpga.Config{Ports: 2})
	card.Port(0).SetLink(wire.NewLink(e, wire.Rate10G, 0, card.Port(1)))
	m := mon.Attach(card.Port(1), mon.Config{SnapLen: 64}) // nil Sink → buffers recycle
	g, err := gen.New(card.Port(0), gen.Config{
		Source:  &gen.UDPFlowSource{Spec: spec, FrameSize: 64},
		Spacing: gen.CBRForLoad(64, wire.Rate10G, 1.0),
		Pool:    pool,
	})
	if err != nil {
		tb.Fatal(err)
	}
	g.Start(0)
	return e, g, m
}

// TestPerPacketPathZeroAlloc pins the tentpole's win: once warmed, the
// gen→port→mon per-packet path must stay at ~0 allocations per packet.
// The bound is deliberately tiny but nonzero — a stray GC cycle may cool
// the sync.Pool mid-measurement — and still fails loudly if any per-packet
// allocation (frame, event, closure, ring copy) creeps back in.
func TestPerPacketPathZeroAlloc(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops Puts under -race; strict alloc bound only holds in normal builds")
	}
	pool := wire.NewPool()
	e, _, m := perPacketRig(t, pool)

	// Warm-up: populate the pool, queue capacity, and register file.
	e.RunUntil(e.Now().Add(200 * sim.Microsecond))

	const span = sim.Millisecond
	interval := gen.CBRForLoad(64, wire.Rate10G, 1.0).Interval
	pktPerSpan := float64(span) / float64(interval) // ≈ 14881

	avg := testing.AllocsPerRun(5, func() {
		e.RunUntil(e.Now().Add(span))
	})
	perPacket := avg / pktPerSpan
	t.Logf("allocs: %.1f per %0.f-packet span = %.4f/packet", avg, pktPerSpan, perPacket)
	if perPacket > 0.01 {
		t.Errorf("per-packet path allocates %.4f/packet, want ~0 (pooled path rotted?)", perPacket)
	}

	if seen := m.Seen().Packets; seen == 0 {
		t.Fatal("monitor saw no packets — rig is miswired")
	}
	gets, _, fresh := pool.Stats()
	if fresh >= gets {
		t.Errorf("pool never recycled: %d gets, %d fresh", gets, fresh)
	}
}

// TestMultiQueuePathZeroAlloc extends the zero-alloc bound to the
// multi-queue capture engine: 64 B line rate hash-steered across four
// per-queue DMA rings (8 flows so the RSS spread is real). The rings run
// over capacity, so the drop path, the per-queue drain events and the
// per-queue buffer recycling are all on the measured path.
func TestMultiQueuePathZeroAlloc(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops Puts under -race; strict alloc bound only holds in normal builds")
	}
	pool := wire.NewPool()
	e := sim.NewEngine()
	card := netfpga.New(e, netfpga.Config{Ports: 2})
	card.Port(0).SetLink(wire.NewLink(e, wire.Rate10G, 0, card.Port(1)))
	m := mon.Attach(card.Port(1), mon.Config{
		SnapLen: 64,
		Queues:  make([]mon.QueueConfig, 4), // nil sinks → buffers recycle
	})
	g, err := gen.New(card.Port(0), gen.Config{
		Source:  &gen.UDPFlowSource{Spec: spec, NumFlows: 8, FrameSize: 64},
		Spacing: gen.CBRForLoad(64, wire.Rate10G, 1.0),
		Pool:    pool,
	})
	if err != nil {
		t.Fatal(err)
	}
	g.Start(0)

	e.RunUntil(e.Now().Add(200 * sim.Microsecond)) // warm-up

	const span = sim.Millisecond
	interval := gen.CBRForLoad(64, wire.Rate10G, 1.0).Interval
	pktPerSpan := float64(span) / float64(interval)
	avg := testing.AllocsPerRun(5, func() {
		e.RunUntil(e.Now().Add(span))
	})
	perPacket := avg / pktPerSpan
	t.Logf("allocs: %.1f per %0.f-packet span = %.4f/packet", avg, pktPerSpan, perPacket)
	if perPacket > 0.01 {
		t.Errorf("multi-queue path allocates %.4f/packet, want ~0", perPacket)
	}
	for q := 0; q < m.NumQueues(); q++ {
		if m.QueueStats(q).Seen.Packets == 0 {
			t.Errorf("queue %d was never steered to — hash spread is degenerate", q)
		}
	}
}

// TestOFSwitchDataplaneZeroAlloc pins the dataplane satellite: pooled
// generator → OpenFlow switch (single-output rule, E8-style per-packet
// CPU tax) → capture port must stay at ~0 allocations per packet once
// warmed — no per-packet Clone, egress event, or queue churn.
func TestOFSwitchDataplaneZeroAlloc(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops Puts under -race; strict alloc bound only holds in normal builds")
	}
	pool := wire.NewPool()
	e := sim.NewEngine()
	card := netfpga.New(e, netfpga.Config{Ports: 2})
	sw := ofswitch.New(e, ofswitch.Config{DataplaneCPUTax: 150 * sim.Nanosecond})
	card.Port(0).SetLink(wire.NewLink(e, wire.Rate10G, 0, sw.Port(0)))
	sw.Port(1).SetLink(wire.NewLink(e, wire.Rate10G, 0, card.Port(1)))
	m := mon.Attach(card.Port(1), mon.Config{SnapLen: 64}) // nil sink → recycle
	sw.Table().Add(&ofswitch.Entry{
		Match: openflow.MatchAll(), Priority: 1,
		Actions: []openflow.Action{&openflow.ActionOutput{Port: 2}},
	})
	g, err := gen.New(card.Port(0), gen.Config{
		Source:  &gen.UDPFlowSource{Spec: spec, FrameSize: 64},
		Spacing: gen.CBRForLoad(64, wire.Rate10G, 1.0),
		Pool:    pool,
	})
	if err != nil {
		t.Fatal(err)
	}
	g.Start(0)

	e.RunUntil(e.Now().Add(200 * sim.Microsecond)) // warm-up

	const span = sim.Millisecond
	interval := gen.CBRForLoad(64, wire.Rate10G, 1.0).Interval
	pktPerSpan := float64(span) / float64(interval)
	avg := testing.AllocsPerRun(5, func() {
		e.RunUntil(e.Now().Add(span))
	})
	perPacket := avg / pktPerSpan
	t.Logf("allocs: %.1f per %0.f-packet span = %.4f/packet", avg, pktPerSpan, perPacket)
	if perPacket > 0.01 {
		t.Errorf("ofswitch dataplane allocates %.4f/packet, want ~0 (per-packet Clone/event back?)", perPacket)
	}
	if m.Seen().Packets == 0 {
		t.Fatal("monitor saw no packets — rig is miswired")
	}
	if sw.Port(1).TxStats().Packets == 0 {
		t.Fatal("switch forwarded nothing")
	}
}

// TestTrainPathZeroAlloc pins the frame-train tentpole: the coalesced
// hot path — gen emitting 64-frame trains at 100G line rate, one train
// event through the link, one bulk admission into an idealised capture
// queue — must stay at 0.0 allocations per packet once warmed, and must
// actually be coalescing: far fewer than one engine event per packet.
func TestTrainPathZeroAlloc(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops Puts under -race; strict alloc bound only holds in normal builds")
	}
	pool := wire.NewPool()
	e := sim.NewEngine()
	card := netfpga.New(e, netfpga.Config{Ports: 2, Rate: wire.Rate100G})
	card.Port(0).SetLink(wire.NewLink(e, wire.Rate100G, 0, card.Port(1)))
	m := mon.Attach(card.Port(1), mon.Config{
		SnapLen: 64,
		Queues: []mon.QueueConfig{{
			RingSize:      1 << 16,
			HostPerPacket: sim.Picosecond,
			HostPerByte:   -1,
		}}, // idealised drain, nil sink → buffers recycle
	})
	g, err := gen.New(card.Port(0), gen.Config{
		Source:   &gen.UDPFlowSource{Spec: spec, FrameSize: 64},
		Spacing:  gen.CBRForLoad(64, wire.Rate100G, 1.0),
		Pool:     pool,
		MaxTrain: 64,
		Until:    sim.Time(sim.Second),
	})
	if err != nil {
		t.Fatal(err)
	}
	g.Start(0)

	e.RunUntil(e.Now().Add(200 * sim.Microsecond)) // warm-up

	const span = sim.Millisecond
	interval := gen.CBRForLoad(64, wire.Rate100G, 1.0).Interval
	pktPerSpan := float64(span) / float64(interval) // ≈ 148810
	firedBefore, sentBefore := e.Fired(), g.Sent().Packets
	avg := testing.AllocsPerRun(5, func() {
		e.RunUntil(e.Now().Add(span))
	})
	perPacket := avg / pktPerSpan
	t.Logf("allocs: %.1f per %0.f-packet span = %.4f/packet", avg, pktPerSpan, perPacket)
	if perPacket > 0.001 {
		t.Errorf("train path allocates %.4f/packet, want 0.0 (coalesced path rotted?)", perPacket)
	}
	evPerPkt := float64(e.Fired()-firedBefore) / float64(g.Sent().Packets-sentBefore)
	t.Logf("events: %.3f/packet", evPerPkt)
	if evPerPkt > 1 {
		t.Errorf("train path fired %.3f events/packet, want ≪1 — trains are not forming", evPerPkt)
	}
	if m.Seen().Packets == 0 {
		t.Fatal("monitor saw no packets — rig is miswired")
	}
}

// TestUnpooledPathStillWorks locks the fallback: without a Pool the same
// rig runs correctly (allocating per packet), so pooling stays an
// optimisation, not a requirement.
func TestUnpooledPathStillWorks(t *testing.T) {
	e, g, m := perPacketRig(t, nil)
	e.RunUntil(e.Now().Add(100 * sim.Microsecond))
	g.Stop()
	e.Run()
	if m.Seen().Packets != g.Sent().Packets {
		t.Fatalf("sent %d, monitor saw %d", g.Sent().Packets, m.Seen().Packets)
	}
}

// TestPooledAndUnpooledAgree runs the rig both ways for the same virtual
// time and demands identical packet counts and MAC byte counters: the
// pool must be invisible to the simulation's arithmetic.
func TestPooledAndUnpooledAgree(t *testing.T) {
	run := func(pool *wire.Pool) (sent, seen, delivered uint64, bytes uint64) {
		e, g, m := perPacketRig(t, pool)
		e.RunUntil(e.Now().Add(500 * sim.Microsecond))
		g.Stop()
		e.Run()
		return g.Sent().Packets, m.Seen().Packets, m.Delivered().Packets, m.Seen().Bytes
	}
	ps, pSeen, pDel, pBytes := run(wire.NewPool())
	us, uSeen, uDel, uBytes := run(nil)
	if ps != us || pSeen != uSeen || pDel != uDel || pBytes != uBytes {
		t.Fatalf("pooled (%d/%d/%d/%dB) != unpooled (%d/%d/%d/%dB)",
			ps, pSeen, pDel, pBytes, us, uSeen, uDel, uBytes)
	}
}

// TestDropLedgerPathZeroAlloc pins the loss-attribution satellite: a
// 2:1 same-rate fan-in whose egress FIFO overflows on every other
// packet, with the scenario ledger attached, must stay at ~0
// allocations per packet — attribution is an array increment, and the
// dropped frames go straight back to the pool.
func TestDropLedgerPathZeroAlloc(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops Puts under -race; strict alloc bound only holds in normal builds")
	}
	pool := wire.NewPool()
	e := sim.NewEngine()
	card := netfpga.New(e, netfpga.Config{Ports: 3})
	sw := switchsim.New(e, switchsim.Config{
		Ports:          3,
		EgressQueueCap: 16,
		// Overspeed lookup so the egress FIFO is the only drop point.
		LookupPerPacket: sim.Nanosecond,
		LookupPerByte:   sim.Picoseconds(10),
	})
	ledger := &wire.DropLedger{}
	sw.SetDropSite(ledger, ledger.Add("sw"))
	for p := 0; p < 2; p++ {
		card.Port(p).SetLink(wire.NewLink(e, wire.Rate10G, 0, sw.Port(p)))
	}
	sw.Port(2).SetLink(wire.NewLink(e, wire.Rate10G, 0, card.Port(2)))
	m := mon.Attach(card.Port(2), mon.Config{SnapLen: 64}) // nil sink → recycle
	sw.Learn(spec.DstMAC, 2)
	for p := 0; p < 2; p++ {
		src := spec
		src.SrcMAC[5] = byte(0x10 + p)
		src.SrcPort = uint16(5000 + p)
		g, err := gen.New(card.Port(p), gen.Config{
			Source:  &gen.UDPFlowSource{Spec: src, FrameSize: 64},
			Spacing: gen.CBRForLoad(64, wire.Rate10G, 1.0),
			Pool:    pool,
		})
		if err != nil {
			t.Fatal(err)
		}
		g.Start(0)
	}

	e.RunUntil(e.Now().Add(200 * sim.Microsecond)) // warm-up

	const span = sim.Millisecond
	interval := gen.CBRForLoad(64, wire.Rate10G, 1.0).Interval
	pktPerSpan := 2 * float64(span) / float64(interval) // both generators
	avg := testing.AllocsPerRun(5, func() {
		e.RunUntil(e.Now().Add(span))
	})
	perPacket := avg / pktPerSpan
	t.Logf("allocs: %.1f per %0.f-packet span = %.4f/packet", avg, pktPerSpan, perPacket)
	if perPacket > 0.01 {
		t.Errorf("ledger drop path allocates %.4f/packet, want ~0", perPacket)
	}
	if ledger.Count(1, wire.DropEgressOverflow) == 0 {
		t.Fatal("fan-in overload never hit the ledger — rig is miswired")
	}
	if m.Seen().Packets == 0 {
		t.Fatal("monitor saw no packets — rig is miswired")
	}
}

// TestMergedFlowPathZeroAlloc pins the flow-analytics satellite: 64 B
// line rate hash-steered across four DMA rings, re-sequenced by the
// k-way merge into global (TS, Queue, Seq) order and folded into the
// flow table plus both sketches — the full E17 sink — must stay at ~0
// allocations per packet once warmed. The merge's buffer free list and
// the analytics structures are all preallocated or steady-state
// recycled, so nothing on this path should touch the heap per record.
func TestMergedFlowPathZeroAlloc(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops Puts under -race; strict alloc bound only holds in normal builds")
	}
	pool := wire.NewPool()
	e := sim.NewEngine()
	card := netfpga.New(e, netfpga.Config{Ports: 2})
	card.Port(0).SetLink(wire.NewLink(e, wire.Rate10G, 0, card.Port(1)))
	m := mon.Attach(card.Port(1), mon.Config{
		SnapLen:   64,
		HashBytes: packet.HeaderDigestBytes, // headers only: one digest per flow
		Queues:    make([]mon.QueueConfig, 4),
	})
	ft := flowstats.NewFlowTable(64)
	ss := flowstats.NewSpaceSaving(8)
	cm := flowstats.NewCountMin(4, 1<<10)
	merge := mon.NewMerge(m, func(rec mon.Record) {
		s := flowstats.Sample{Digest: rec.Hash, RxTS: rec.TS, Wire: rec.WireSize, Trace: rec.Trace}
		if tx, ok := gen.ExtractTimestamp(rec.Data, gen.DefaultTimestampOffset); ok {
			s.TxTS, s.HasTx = tx, true
		}
		ft.Observe(s)
		ss.Add(rec.Hash, 1)
		cm.Add(rec.Hash, 1)
	})
	g, err := gen.New(card.Port(0), gen.Config{
		Source:         &gen.UDPFlowSource{Spec: spec, NumFlows: 32, FrameSize: 64},
		Spacing:        gen.CBRForLoad(64, wire.Rate10G, 1.0),
		EmbedTimestamp: true,
		Pool:           pool,
	})
	if err != nil {
		t.Fatal(err)
	}
	g.Start(0)

	e.RunUntil(e.Now().Add(200 * sim.Microsecond)) // warm-up

	const span = sim.Millisecond
	interval := gen.CBRForLoad(64, wire.Rate10G, 1.0).Interval
	pktPerSpan := float64(span) / float64(interval)
	avg := testing.AllocsPerRun(5, func() {
		e.RunUntil(e.Now().Add(span))
	})
	perPacket := avg / pktPerSpan
	t.Logf("allocs: %.1f per %0.f-packet span = %.4f/packet", avg, pktPerSpan, perPacket)
	if perPacket > 0.01 {
		t.Errorf("merged flow path allocates %.4f/packet, want ~0", perPacket)
	}
	if merge.Emitted() == 0 {
		t.Fatal("merge emitted nothing — rig is miswired")
	}
	if merge.OrderViolations() != 0 {
		t.Fatalf("merge recorded %d order violations", merge.OrderViolations())
	}
	if ft.Len() != 32 {
		t.Fatalf("flow table tracks %d flows, want 32", ft.Len())
	}
	for q := 0; q < m.NumQueues(); q++ {
		if m.QueueStats(q).Seen.Packets == 0 {
			t.Errorf("queue %d was never steered to — hash spread is degenerate", q)
		}
	}
}
