package mon

import (
	"testing"

	"osnt/internal/filter"
	"osnt/internal/gen"
	"osnt/internal/netfpga"
	"osnt/internal/packet"
	"osnt/internal/sim"
	"osnt/internal/stats"
	"osnt/internal/wire"
)

var spec = packet.UDPSpec{
	SrcMAC:  packet.MAC{2, 0, 0, 0, 0, 1},
	DstMAC:  packet.MAC{2, 0, 0, 0, 0, 2},
	SrcIP:   packet.IP4{10, 0, 0, 1},
	DstIP:   packet.IP4{10, 0, 0, 2},
	SrcPort: 5000, DstPort: 7000,
}

// rig wires generator card port 0 -> monitor card port 0.
type rig struct {
	e    *sim.Engine
	tx   *netfpga.Card
	rx   *netfpga.Card
	mon  *Monitor
	recs []Record
}

func newRig(t *testing.T, cfg Config, frameSize int, load float64) (*rig, *gen.Generator) {
	t.Helper()
	r := &rig{e: sim.NewEngine()}
	r.tx = netfpga.New(r.e, netfpga.Config{})
	r.rx = netfpga.New(r.e, netfpga.Config{})
	r.tx.Port(0).SetLink(wire.NewLink(r.e, wire.Rate10G, 0, r.rx.Port(0)))
	if cfg.Sink == nil {
		cfg.Sink = func(rec Record) { r.recs = append(r.recs, rec) }
	}
	r.mon = Attach(r.rx.Port(0), cfg)
	g, err := gen.New(r.tx.Port(0), gen.Config{
		Source:  &gen.UDPFlowSource{Spec: spec, FrameSize: frameSize},
		Spacing: gen.CBRForLoad(frameSize, wire.Rate10G, load),
	})
	if err != nil {
		t.Fatal(err)
	}
	return r, g
}

func TestCaptureBasics(t *testing.T) {
	r, g := newRig(t, Config{}, 512, 0.01)
	g.Start(0)
	r.e.RunUntil(sim.Time(sim.Millisecond))
	g.Stop()
	r.e.Run() // let the ring drain

	if r.mon.Seen().Packets == 0 {
		t.Fatal("monitor saw nothing")
	}
	if r.mon.RingDrops() != 0 {
		t.Fatalf("low-rate capture dropped %d", r.mon.RingDrops())
	}
	if uint64(len(r.recs)) != r.mon.Seen().Packets {
		t.Fatalf("delivered %d of %d", len(r.recs), r.mon.Seen().Packets)
	}
	rec := r.recs[0]
	if rec.WireSize != 512 || len(rec.Data) != 508 {
		t.Fatalf("record size %d/%d", rec.WireSize, len(rec.Data))
	}
	if rec.Port != 0 || rec.Rule != -1 {
		t.Fatalf("record meta %+v", rec)
	}
	// MAC timestamp within one quantum below true arrival.
	errPs := rec.Arrival.Sub(rec.TS.Sim())
	if errPs < 0 || errPs >= sim.Duration(6250) {
		t.Fatalf("timestamp error %v", errPs)
	}
	if rec.Delivered <= rec.Arrival {
		t.Fatal("delivery must be after arrival")
	}
}

func TestThinning(t *testing.T) {
	r, g := newRig(t, Config{SnapLen: 64}, 1518, 0.01)
	g.Start(0)
	r.e.RunUntil(sim.Time(sim.Millisecond))
	g.Stop()
	r.e.Run()
	if len(r.recs) == 0 {
		t.Fatal("no records")
	}
	for _, rec := range r.recs {
		if len(rec.Data) != 64 {
			t.Fatalf("thinned record len %d", len(rec.Data))
		}
		if rec.WireSize != 1518 {
			t.Fatalf("wire size lost: %d", rec.WireSize)
		}
	}
}

func TestFilterDropAndCounters(t *testing.T) {
	tbl := filter.NewTable(filter.Capture)
	// Drop everything UDP from the generator's first flow port.
	_ = tbl.Append(&filter.Rule{
		Action: filter.Drop, Proto: packet.ProtoUDP,
		SrcPortMin: 5000, SrcPortMax: 5000,
	})
	r, g := newRig(t, Config{Filters: tbl}, 256, 0.01)
	g.Start(0)
	r.e.RunUntil(sim.Time(sim.Millisecond))
	g.Stop()
	r.e.Run()
	if len(r.recs) != 0 {
		t.Fatalf("filter leak: %d records", len(r.recs))
	}
	if r.mon.Filtered() != r.mon.Seen().Packets {
		t.Fatalf("filtered %d of %d", r.mon.Filtered(), r.mon.Seen().Packets)
	}
	if r.mon.Accepted().Packets != 0 {
		t.Fatal("accepted counter should be zero")
	}
}

func TestPerRuleSnapLenOverride(t *testing.T) {
	tbl := filter.NewTable(filter.Capture)
	_ = tbl.Append(&filter.Rule{
		Action: filter.Capture, Proto: packet.ProtoUDP, SnapLen: 96,
	})
	r, g := newRig(t, Config{Filters: tbl, SnapLen: 1500}, 1024, 0.01)
	g.Start(0)
	r.e.RunUntil(200 * sim.Time(sim.Microsecond))
	g.Stop()
	r.e.Run()
	if len(r.recs) == 0 {
		t.Fatal("no records")
	}
	for _, rec := range r.recs {
		if len(rec.Data) != 96 {
			t.Fatalf("rule snap override: len %d, want 96", len(rec.Data))
		}
		if rec.Rule != 0 {
			t.Fatalf("rule index %d", rec.Rule)
		}
	}
}

func TestHashing(t *testing.T) {
	r, g := newRig(t, Config{HashBytes: 64}, 512, 0.01)
	g.Start(0)
	r.e.RunUntil(100 * sim.Time(sim.Microsecond))
	g.Stop()
	r.e.Run()
	if len(r.recs) < 2 {
		t.Fatal("need records")
	}
	// Same template packet → same digest.
	if r.recs[0].Hash == 0 || r.recs[0].Hash != r.recs[1].Hash {
		t.Fatalf("hashes %x %x", r.recs[0].Hash, r.recs[1].Hash)
	}
	want := packet.PacketDigest(r.recs[0].Data, 64)
	if r.recs[0].Hash != want {
		t.Fatal("hash mismatch with PacketDigest")
	}
}

func TestLossLimitedPathOverflows(t *testing.T) {
	// E7 in miniature: full-size frames at line rate far exceed the host
	// drain (~1.25GB/s effective) → ring overflow.
	r, g := newRig(t, Config{Queues: []QueueConfig{{RingSize: 64}}}, 1518, 1.0)
	g.Start(0)
	r.e.RunUntil(5 * sim.Time(sim.Millisecond))
	g.Stop()
	r.e.Run()
	if r.mon.RingDrops() == 0 {
		t.Fatal("line-rate full-size capture did not overflow the ring")
	}
	if r.mon.LossFraction() <= 0 {
		t.Fatal("loss fraction")
	}
}

func TestThinningRestoresLosslessness(t *testing.T) {
	// Same offered load, thinned to 64B: per-packet host cost dominates
	// but at 812kpps (1518B frames) the host keeps up.
	r, g := newRig(t, Config{Queues: []QueueConfig{{RingSize: 64}}, SnapLen: 64}, 1518, 1.0)
	g.Start(0)
	r.e.RunUntil(5 * sim.Time(sim.Millisecond))
	g.Stop()
	r.e.Run()
	if r.mon.RingDrops() != 0 {
		t.Fatalf("thinned capture dropped %d", r.mon.RingDrops())
	}
}

func TestFilterBeforeThinning(t *testing.T) {
	// The filter stage sees the whole packet: a rule on the UDP
	// destination port matches even when the snap length cuts the
	// capture to 20 bytes, short of the UDP header.
	tbl := filter.NewTable(filter.Drop)
	_ = tbl.Append(&filter.Rule{
		Action: filter.Capture, Proto: packet.ProtoUDP,
		DstPortMin: 7000, DstPortMax: 7000,
	})
	r, g := newRig(t, Config{Filters: tbl, SnapLen: 20}, 256, 0.01)
	g.Start(0)
	r.e.RunUntil(100 * sim.Time(sim.Microsecond))
	g.Stop()
	r.e.Run()
	if r.mon.Accepted().Packets == 0 || len(r.recs) == 0 {
		t.Fatal("a port rule did not match behind a 20-byte snap length")
	}
	for _, rec := range r.recs {
		if len(rec.Data) != 20 || rec.Rule != 0 {
			t.Fatalf("record len %d rule %d, want 20 bytes from rule 0", len(rec.Data), rec.Rule)
		}
	}
}

func TestRingDepthBounded(t *testing.T) {
	r, g := newRig(t, Config{Queues: []QueueConfig{{RingSize: 16}}}, 1518, 1.0)
	maxDepth := 0
	r.e.ScheduleEvery(0, 10*sim.Microsecond, func() {
		if d := r.mon.RingDepth(); d > maxDepth {
			maxDepth = d
		}
	})
	g.Start(0)
	r.e.RunUntil(2 * sim.Time(sim.Millisecond))
	g.Stop()
	if maxDepth > 16 {
		t.Fatalf("ring depth %d exceeded capacity 16", maxDepth)
	}
}

func TestNilSinkStillCounts(t *testing.T) {
	r := &rig{e: sim.NewEngine()}
	r.tx = netfpga.New(r.e, netfpga.Config{})
	r.rx = netfpga.New(r.e, netfpga.Config{})
	r.tx.Port(0).SetLink(wire.NewLink(r.e, wire.Rate10G, 0, r.rx.Port(0)))
	m := Attach(r.rx.Port(0), Config{Sink: nil})
	g, _ := gen.New(r.tx.Port(0), gen.Config{
		Source:  &gen.UDPFlowSource{Spec: spec, FrameSize: 64},
		Spacing: gen.CBR{Interval: 10 * sim.Microsecond},
		Count:   10,
	})
	g.Start(0)
	r.e.Run()
	if m.Delivered().Packets != 10 {
		t.Fatalf("delivered %d", m.Delivered().Packets)
	}
}

func TestRecordDataIsCopied(t *testing.T) {
	// The record's bytes must survive datapath buffer reuse.
	r, g := newRig(t, Config{}, 128, 0.01)
	g.Start(0)
	r.e.RunUntil(50 * sim.Time(sim.Microsecond))
	g.Stop()
	r.e.Run()
	if len(r.recs) < 2 {
		t.Fatal("need records")
	}
	d0 := append([]byte(nil), r.recs[0].Data...)
	// Mutate a later record's buffer; the first must be unaffected.
	r.recs[1].Data[0] = ^r.recs[1].Data[0]
	for i := range d0 {
		if r.recs[0].Data[i] != d0[i] {
			t.Fatal("record buffers alias")
		}
	}
}

func TestConfigValidation(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"zero config", Config{}, true},
		{"empty queues slice", Config{Queues: []QueueConfig{}}, false},
		{"one default queue", Config{Queues: []QueueConfig{{}}}, true},
		{"queue negative ring", Config{Queues: []QueueConfig{{}, {RingSize: -5}}}, false},
		{"queue negative host per packet", Config{Queues: []QueueConfig{{HostPerPacket: -1}}}, false},
		{"queue negative host per byte is zero-cost", Config{Queues: []QueueConfig{{HostPerByte: -1}}}, true},
		{"eight queues", Config{Queues: make([]QueueConfig, 8)}, true},
		{"unknown steer policy", Config{Steer: Steer(9), Queues: make([]QueueConfig, 2)}, false},
		{"round robin", Config{Steer: SteerRoundRobin, Queues: make([]QueueConfig, 2)}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.cfg.Validate()
			if tc.ok && err != nil {
				t.Fatalf("Validate() = %v, want nil", err)
			}
			if !tc.ok && err == nil {
				t.Fatal("Validate() accepted an invalid config")
			}
			// New must agree with Validate on a real port.
			e := sim.NewEngine()
			card := netfpga.New(e, netfpga.Config{})
			_, err = New(card.Port(0), tc.cfg)
			if tc.ok != (err == nil) {
				t.Fatalf("New() error = %v, want ok=%v", err, tc.ok)
			}
		})
	}
}

func TestNewRejectsQueueBudgetAndBadPins(t *testing.T) {
	e := sim.NewEngine()
	card := netfpga.New(e, netfpga.Config{}) // CaptureQueues default 8
	if _, err := New(card.Port(0), Config{Queues: make([]QueueConfig, 9)}); err == nil {
		t.Fatal("nine queues accepted against a budget of eight")
	}
	// Raising the card's budget legalises the same config.
	big := netfpga.New(e, netfpga.Config{CaptureQueues: 16})
	if _, err := New(big.Port(0), Config{Queues: make([]QueueConfig, 9)}); err != nil {
		t.Fatalf("nine queues rejected under a budget of sixteen: %v", err)
	}
	// A filter rule pinning a queue the monitor lacks is a config error.
	tbl := filter.NewTable(filter.Capture)
	if err := tbl.Append(&filter.Rule{Action: filter.Capture, PinQueue: 3}); err != nil {
		t.Fatal(err)
	}
	if _, err := New(card.Port(1), Config{Filters: tbl, Queues: make([]QueueConfig, 2)}); err == nil {
		t.Fatal("pin to queue 3 accepted on a 2-queue monitor")
	}
	if _, err := New(card.Port(1), Config{Filters: tbl, Queues: make([]QueueConfig, 4)}); err != nil {
		t.Fatalf("valid pin rejected: %v", err)
	}
}

func TestAttachPanicsOnInvalidConfig(t *testing.T) {
	e := sim.NewEngine()
	card := netfpga.New(e, netfpga.Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("Attach accepted a negative ring size")
		}
	}()
	Attach(card.Port(0), Config{Queues: []QueueConfig{{RingSize: -1}}})
}

// multiQueueRig wires the gen→mon loopback with an N-queue monitor and a
// multi-flow workload, recording every record per queue.
func multiQueueRig(t *testing.T, cfg Config, flows, frameSize int, load float64) (*rig, *gen.Generator, *[][]Record) {
	t.Helper()
	r := &rig{e: sim.NewEngine()}
	r.tx = netfpga.New(r.e, netfpga.Config{})
	r.rx = netfpga.New(r.e, netfpga.Config{})
	r.tx.Port(0).SetLink(wire.NewLink(r.e, wire.Rate10G, 0, r.rx.Port(0)))
	byQueue := make([][]Record, len(cfg.Queues))
	if cfg.Sink == nil {
		cfg.Sink = func(rec Record) { byQueue[rec.Queue] = append(byQueue[rec.Queue], rec) }
	}
	r.mon = Attach(r.rx.Port(0), cfg)
	g, err := gen.New(r.tx.Port(0), gen.Config{
		Source:  &gen.UDPFlowSource{Spec: spec, NumFlows: flows, FrameSize: frameSize},
		Spacing: gen.CBRForLoad(frameSize, wire.Rate10G, load),
	})
	if err != nil {
		t.Fatal(err)
	}
	return r, g, &byQueue
}

func TestHashSteeringPerFlowAffinity(t *testing.T) {
	cfg := Config{Queues: make([]QueueConfig, 4), SnapLen: 64}
	r, g, byQueue := multiQueueRig(t, cfg, 16, 256, 0.2)
	g.Start(0)
	r.e.RunUntil(2 * sim.Time(sim.Millisecond))
	g.Stop()
	r.e.Run()

	// Every flow's records must land on exactly one queue (RSS affinity),
	// and with 16 flows over 4 queues every queue should see traffic.
	flowQueue := map[uint16]int{}
	total := 0
	for q, recs := range *byQueue {
		if len(recs) == 0 {
			t.Errorf("queue %d never steered to", q)
		}
		for _, rec := range recs {
			total++
			if rec.Queue != q {
				t.Fatalf("record carries Queue=%d but arrived on sink view %d", rec.Queue, q)
			}
			srcPort := uint16(rec.Data[34])<<8 | uint16(rec.Data[35])
			if prev, seen := flowQueue[srcPort]; seen && prev != q {
				t.Fatalf("flow %d split across queues %d and %d", srcPort, prev, q)
			}
			flowQueue[srcPort] = q
		}
	}
	if total == 0 || uint64(total) != r.mon.Delivered().Packets {
		t.Fatalf("sinks saw %d records, monitor delivered %d", total, r.mon.Delivered().Packets)
	}
	if len(flowQueue) != 16 {
		t.Fatalf("saw %d flows, want 16", len(flowQueue))
	}
}

func TestRoundRobinSteeringBalanced(t *testing.T) {
	cfg := Config{Queues: make([]QueueConfig, 4), Steer: SteerRoundRobin, SnapLen: 64}
	r, g, byQueue := multiQueueRig(t, cfg, 1, 256, 0.2)
	g.Start(0)
	r.e.RunUntil(sim.Time(sim.Millisecond))
	g.Stop()
	r.e.Run()
	if r.mon.RingDrops() != 0 {
		t.Fatalf("low-rate capture dropped %d", r.mon.RingDrops())
	}
	min, max := -1, 0
	for q := range *byQueue {
		n := len((*byQueue)[q])
		if min < 0 || n < min {
			min = n
		}
		if n > max {
			max = n
		}
	}
	if max-min > 1 {
		t.Fatalf("round-robin imbalance: min %d max %d", min, max)
	}
}

func TestRulePinnedSteeringOverridesPolicy(t *testing.T) {
	tbl := filter.NewTable(filter.Capture)
	// Pin the generator's first flow to queue 2 (1-based); everything
	// else falls through to the default action and hash steering.
	_ = tbl.Append(&filter.Rule{
		Action: filter.Capture, Proto: packet.ProtoUDP,
		SrcPortMin: 5000, SrcPortMax: 5000,
		PinQueue: 2,
	})
	cfg := Config{Filters: tbl, Queues: make([]QueueConfig, 4), SnapLen: 64}
	r, g, byQueue := multiQueueRig(t, cfg, 8, 256, 0.2)
	g.Start(0)
	r.e.RunUntil(2 * sim.Time(sim.Millisecond))
	g.Stop()
	r.e.Run()

	pinned := 0
	for q, recs := range *byQueue {
		for _, rec := range recs {
			srcPort := uint16(rec.Data[34])<<8 | uint16(rec.Data[35])
			if srcPort == 5000 {
				pinned++
				if q != 1 {
					t.Fatalf("pinned flow landed on queue %d, want 1", q)
				}
				if rec.Rule != 0 {
					t.Fatalf("pinned record rule %d", rec.Rule)
				}
			}
		}
	}
	if pinned == 0 {
		t.Fatal("pinned flow never captured")
	}
	qs := r.mon.QueueStats(1)
	if qs.Seen.Packets < uint64(pinned) {
		t.Fatalf("queue 1 stats %+v, want at least the %d pinned records", qs, pinned)
	}
}

func TestLateAppendedOutOfRangePinWraps(t *testing.T) {
	// The filter table stays live after Attach; a rule appended later
	// with a pin beyond the queue count must steer deterministically
	// in range, not panic the capture path.
	tbl := filter.NewTable(filter.Capture)
	cfg := Config{Filters: tbl, Queues: make([]QueueConfig, 2), SnapLen: 64}
	r, g, _ := multiQueueRig(t, cfg, 1, 256, 0.1)
	if err := tbl.Append(&filter.Rule{Action: filter.Capture, Proto: packet.ProtoUDP, PinQueue: 7}); err != nil {
		t.Fatal(err)
	}
	g.Start(0)
	r.e.RunUntil(200 * sim.Time(sim.Microsecond))
	g.Stop()
	r.e.Run()
	if r.mon.Delivered().Packets == 0 {
		t.Fatal("nothing captured")
	}
	// pin 7 on 2 queues wraps to (7-1)%2 = queue 0.
	if got := r.mon.QueueStats(0).Delivered.Packets; got != r.mon.Delivered().Packets {
		t.Fatalf("wrapped pin delivered %d of %d to queue 0", got, r.mon.Delivered().Packets)
	}
}

func TestPerQueueSinksAndStats(t *testing.T) {
	// Per-queue sinks see exactly their queue's records, and the
	// QueueStats sum matches the monitor-level aggregates.
	var q0, q1 int
	cfg := Config{
		Queues: []QueueConfig{
			{Sink: func(rec Record) {
				q0++
				if rec.Queue != 0 {
					panic("queue 0 sink got a foreign record")
				}
			}},
			{Sink: func(rec Record) {
				q1++
				if rec.Queue != 1 {
					panic("queue 1 sink got a foreign record")
				}
			}},
		},
		Steer:   SteerRoundRobin,
		SnapLen: 64,
	}
	r, g, _ := multiQueueRig(t, cfg, 1, 512, 0.1)
	g.Start(0)
	r.e.RunUntil(sim.Time(sim.Millisecond))
	g.Stop()
	r.e.Run()
	if q0 == 0 || q1 == 0 {
		t.Fatalf("per-queue sinks saw %d/%d", q0, q1)
	}
	var sumSeen, sumDel stats.Counter
	var sumDrops uint64
	for q := 0; q < r.mon.NumQueues(); q++ {
		qs := r.mon.QueueStats(q)
		sumSeen.Packets += qs.Seen.Packets
		sumSeen.Bytes += qs.Seen.Bytes
		sumDel.Packets += qs.Delivered.Packets
		sumDel.Bytes += qs.Delivered.Bytes
		sumDrops += qs.RingDrops
	}
	if sumSeen != r.mon.Accepted() {
		t.Fatalf("steered sum %+v != accepted %+v", sumSeen, r.mon.Accepted())
	}
	if sumDel != r.mon.Delivered() {
		t.Fatalf("delivered sum %+v != aggregate %+v", sumDel, r.mon.Delivered())
	}
	if sumDrops != r.mon.RingDrops() {
		t.Fatalf("drop sum %d != aggregate %d", sumDrops, r.mon.RingDrops())
	}
	if uint64(q0+q1) != sumDel.Packets {
		t.Fatalf("sinks saw %d, stats say %d", q0+q1, sumDel.Packets)
	}
}

func TestRingCompactionAcrossThreshold(t *testing.T) {
	// Sustained overload walks the ring head far past the 256-record
	// compaction threshold while live records sit behind it. Compaction
	// must neither lose nor corrupt records, and the backing array must
	// stay proportional to the ring capacity instead of the packet
	// count.
	r, g := newRig(t, Config{Queues: []QueueConfig{{RingSize: 512}}}, 1518, 1.0)
	g.Start(0)
	r.e.RunUntil(20 * sim.Time(sim.Millisecond))
	g.Stop()
	r.e.Run()

	q := &r.mon.queues[0]
	if r.mon.RingDrops() == 0 {
		t.Fatal("rig under-loaded: the ring never overflowed")
	}
	if got := r.mon.QueueStats(0); got.Depth != 0 {
		t.Fatalf("ring not drained: depth %d", got.Depth)
	}
	if delivered := uint64(len(r.recs)); delivered != r.mon.Delivered().Packets {
		t.Fatalf("sink saw %d, monitor delivered %d", len(r.recs), r.mon.Delivered().Packets)
	}
	if acc := r.mon.QueueStats(0).Accepted.Packets; acc != r.mon.Delivered().Packets {
		t.Fatalf("accepted %d != delivered %d after drain", acc, r.mon.Delivered().Packets)
	}
	// Thousands of records flowed through; a leak of the dead prefix
	// would leave cap(ring) proportional to that count.
	if c := cap(q.ring); c > 4*512 {
		t.Fatalf("ring backing array grew to %d slots for a 512-deep ring (compaction rotted?)", c)
	}
	last := sim.Time(0)
	for i, rec := range r.recs {
		if rec.WireSize != 1518 {
			t.Fatalf("record %d corrupted: wire size %d", i, rec.WireSize)
		}
		if rec.Delivered < last {
			t.Fatalf("record %d delivered out of order", i)
		}
		last = rec.Delivered
	}
}

func TestRecycleRecordsSinkMustCopy(t *testing.T) {
	// With RecycleRecords on, a sink that retains rec.Data sees the
	// buffer rewritten by later captures — the documented contract that
	// retained bytes must be copied out. The flows cycle, so a reused
	// buffer's content provably changes.
	var retained []byte
	var original []byte
	cfg := Config{
		RecycleRecords: true,
		SnapLen:        64,
		Queues: []QueueConfig{{
			Sink: func(rec Record) {
				if retained == nil {
					retained = rec.Data
					original = append([]byte(nil), rec.Data...)
				}
			},
		}},
	}
	r, g, _ := multiQueueRig(t, cfg, 4, 256, 0.2)
	g.Start(0)
	r.e.RunUntil(sim.Time(sim.Millisecond))
	g.Stop()
	r.e.Run()
	if retained == nil {
		t.Fatal("no records")
	}
	if r.mon.Delivered().Packets < 4 {
		t.Fatal("need several records to observe reuse")
	}
	if string(retained) == string(original) {
		t.Fatal("retained buffer unchanged: RecycleRecords never reused it")
	}
	// The internal free list is actually in rotation.
	if len(r.mon.queues[0].bufFree) == 0 && r.mon.QueueStats(0).Depth == 0 {
		t.Fatal("free list empty after drain: recycling is not happening")
	}
}

func TestNilSinkRecyclesBuffers(t *testing.T) {
	// A nil sink forces recycling regardless of the flag: the steady
	// state must rotate a bounded buffer set, not allocate per record.
	r := &rig{e: sim.NewEngine()}
	r.tx = netfpga.New(r.e, netfpga.Config{})
	r.rx = netfpga.New(r.e, netfpga.Config{})
	r.tx.Port(0).SetLink(wire.NewLink(r.e, wire.Rate10G, 0, r.rx.Port(0)))
	m := Attach(r.rx.Port(0), Config{SnapLen: 64})
	g, err := gen.New(r.tx.Port(0), gen.Config{
		Source:  &gen.UDPFlowSource{Spec: spec, FrameSize: 256},
		Spacing: gen.CBR{Interval: 5 * sim.Microsecond},
		Count:   500,
	})
	if err != nil {
		t.Fatal(err)
	}
	g.Start(0)
	r.e.Run()
	if m.Delivered().Packets != 500 {
		t.Fatalf("delivered %d", m.Delivered().Packets)
	}
	q := &m.queues[0]
	if len(q.bufFree) == 0 {
		t.Fatal("nil-sink monitor kept no free buffers")
	}
	// One record in flight at a time → one buffer in rotation.
	if len(q.bufFree) > 2 {
		t.Fatalf("free list holds %d buffers for a 1-deep steady state", len(q.bufFree))
	}
}

func BenchmarkMonitorPipeline(b *testing.B) {
	e := sim.NewEngine()
	tx := netfpga.New(e, netfpga.Config{})
	rx := netfpga.New(e, netfpga.Config{})
	tx.Port(0).SetLink(wire.NewLink(e, wire.Rate10G, 0, rx.Port(0)))
	tbl := filter.NewTable(filter.Capture)
	_ = tbl.Append(&filter.Rule{Action: filter.Capture, Proto: packet.ProtoUDP})
	Attach(rx.Port(0), Config{Filters: tbl, SnapLen: 64, HashBytes: 64})
	g, _ := gen.New(tx.Port(0), gen.Config{
		Source:  &gen.UDPFlowSource{Spec: spec, FrameSize: 256},
		Spacing: gen.CBRForLoad(256, wire.Rate10G, 0.5),
	})
	g.Start(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.RunUntil(e.Now().Add(sim.Microsecond))
	}
	g.Stop()
}

// The capture engine reports its two loss mechanisms — ring overflow
// and filter rejects — into an attached drop ledger, and the ledger
// counts agree with the engine's own views.
func TestMonitorReportsIntoDropLedger(t *testing.T) {
	filters := filter.NewTable(filter.Capture)
	if err := filters.Append(&filter.Rule{
		Name: "no-dns", Action: filter.Drop,
		Proto:      packet.ProtoUDP,
		DstPortMin: 7000, DstPortMax: 7000,
	}); err != nil {
		t.Fatal(err)
	}
	// The rule rejects the workload's only flow, so every frame is a
	// filter-reject and the (tiny) ring never even fills.
	r := &rig{e: sim.NewEngine()}
	r.tx = netfpga.New(r.e, netfpga.Config{})
	r.rx = netfpga.New(r.e, netfpga.Config{})
	r.tx.Port(0).SetLink(wire.NewLink(r.e, wire.Rate10G, 0, r.rx.Port(0)))
	r.mon = Attach(r.rx.Port(0), Config{Filters: filters, Queues: []QueueConfig{{RingSize: 4}}})
	ledger := &wire.DropLedger{}
	hop := ledger.Add("mon")
	r.mon.SetDropSite(ledger, hop)

	g, err := gen.New(r.tx.Port(0), gen.Config{
		Source:  &gen.UDPFlowSource{Spec: spec, NumFlows: 1, FrameSize: 1518},
		Spacing: gen.CBRForLoad(1518, wire.Rate10G, 1.0),
	})
	if err != nil {
		t.Fatal(err)
	}
	g.Start(0)
	r.e.RunUntil(sim.Time(2 * sim.Millisecond))
	g.Stop()
	r.e.Run()

	if got := ledger.Count(hop, wire.DropFilterReject); got == 0 || got != r.mon.Filtered() {
		t.Fatalf("ledger filter rejects %d, monitor filtered %d", got, r.mon.Filtered())
	}
	if got := ledger.Count(hop, wire.DropFilterReject); got != filters.Hits(0) {
		t.Fatalf("ledger %d != the drop rule's hits %d", got, filters.Hits(0))
	}
	if r.mon.RingDrops() != 0 {
		t.Fatalf("everything was rejected, yet the ring dropped %d", r.mon.RingDrops())
	}
}

// Ring overflow reports ring-full per lost packet, per queue, summed at
// the monitor's hop.
func TestRingOverflowReportsIntoLedger(t *testing.T) {
	r, g := newRig(t, Config{Queues: []QueueConfig{{RingSize: 4}}, Sink: func(Record) {}}, 1518, 1.0)
	ledger := &wire.DropLedger{}
	hop := ledger.Add("mon")
	r.mon.SetDropSite(ledger, hop)
	g.Start(0)
	r.e.RunUntil(sim.Time(2 * sim.Millisecond))
	g.Stop()
	r.e.Run()
	if r.mon.RingDrops() == 0 {
		t.Fatal("full-size line-rate capture into a 4-slot ring did not overflow")
	}
	if got := ledger.Count(hop, wire.DropRingFull); got != r.mon.RingDrops() {
		t.Fatalf("ledger ring-full %d != RingDrops %d", got, r.mon.RingDrops())
	}
	// Conservation across the capture pipeline: seen = filtered +
	// ring drops + delivered once the rings have drained.
	if seen := r.mon.Seen().Packets; seen != r.mon.Filtered()+r.mon.RingDrops()+r.mon.Delivered().Packets {
		t.Fatalf("capture pipeline does not conserve: seen %d", seen)
	}
}
