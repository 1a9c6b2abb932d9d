package mon

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"osnt/internal/gen"
	"osnt/internal/netfpga"
	"osnt/internal/packet"
	"osnt/internal/sim"
	"osnt/internal/timing"
	"osnt/internal/wire"
)

// mergeRig wires gen → link → multi-queue monitor with a Merge on top,
// collecting every emitted record (with a private copy of its data,
// honouring the recycle contract).
func mergeRig(t *testing.T, queues []QueueConfig, steer Steer, numFlows int, spacing gen.Spacing, seed uint64) (*sim.Engine, *gen.Generator, *Monitor, *Merge, *[]Record) {
	t.Helper()
	e := sim.NewEngine()
	card := netfpga.New(e, netfpga.Config{Ports: 2})
	card.Port(0).SetLink(wire.NewLink(e, wire.Rate10G, 0, card.Port(1)))
	m := Attach(card.Port(1), Config{
		SnapLen:   64,
		HashBytes: packet.HeaderDigestBytes, // headers only: one digest per flow
		Queues:    queues,
		Steer:     steer,
	})
	var out []Record
	g := NewMerge(m, func(rec Record) {
		rec.Data = append([]byte(nil), rec.Data...)
		out = append(out, rec)
	})
	gn, err := gen.New(card.Port(0), gen.Config{
		Source:  &gen.UDPFlowSource{Spec: spec, NumFlows: numFlows, FrameSize: 64},
		Spacing: spacing,
		Seed:    seed,
		Pool:    wire.DefaultPool,
	})
	if err != nil {
		t.Fatal(err)
	}
	gn.Start(0)
	return e, gn, m, g, &out
}

func assertKeySorted(t *testing.T, recs []Record) {
	t.Helper()
	for i := 1; i < len(recs); i++ {
		a, b := &recs[i-1], &recs[i]
		if !keyLess(a, b) {
			t.Fatalf("record %d key (ts=%v q=%d seq=%d) not above record %d (ts=%v q=%d seq=%d)",
				i, b.TS, b.Queue, b.Seq, i-1, a.TS, a.Queue, a.Seq)
		}
	}
}

// TestMergeSingleQueuePassThrough: with one queue the merge must be an
// ordered pass-through — every delivered record emitted, data intact.
func TestMergeSingleQueuePassThrough(t *testing.T) {
	e, gn, m, g, out := mergeRig(t, nil, SteerHash, 1,
		gen.CBRForLoad(64, wire.Rate10G, 0.5), 1)
	e.RunUntil(sim.Time(200 * sim.Microsecond))
	gn.Stop()
	e.Run()
	g.Flush()
	if got, want := g.Emitted(), m.Delivered().Packets; got != want {
		t.Fatalf("emitted %d of %d delivered", got, want)
	}
	if g.Pending() != 0 {
		t.Fatalf("%d records stuck after Flush", g.Pending())
	}
	assertKeySorted(t, *out)
	sp := spec
	sp.FrameSize = 64
	want := sp.Build()
	for i := range *out {
		if !bytes.Equal((*out)[i].Data, want) {
			t.Fatalf("record %d data corrupted by buffer recycling", i)
		}
	}
}

// TestMergeRoundRobinRestoresOrder: round-robin steering interleaves one
// flow across every queue — the worst case for cross-queue ordering —
// and the merged stream must come back globally timestamp-sorted with
// per-queue drains at different speeds.
func TestMergeRoundRobinRestoresOrder(t *testing.T) {
	queues := []QueueConfig{
		{HostPerPacket: 100 * sim.Nanosecond, RingSize: 1 << 14},
		{HostPerPacket: 1 * sim.Microsecond, RingSize: 1 << 14},
		{HostPerPacket: 3 * sim.Microsecond, RingSize: 1 << 14},
		{HostPerPacket: 300 * sim.Nanosecond, RingSize: 1 << 14},
	}
	e, gn, m, g, out := mergeRig(t, queues, SteerRoundRobin, 1,
		gen.CBRForLoad(64, wire.Rate10G, 1.0), 2)
	e.RunUntil(sim.Time(500 * sim.Microsecond))
	gn.Stop()
	e.Run()
	g.Flush()
	if got, want := g.Emitted(), m.Delivered().Packets; got != want {
		t.Fatalf("emitted %d of %d delivered", got, want)
	}
	if len(*out) < 1000 {
		t.Fatalf("only %d records — rig is miswired", len(*out))
	}
	assertKeySorted(t, *out)
	if g.OrderViolations() != 0 {
		t.Fatalf("merge recorded %d order violations", g.OrderViolations())
	}
	// Round-robin across 4 queues: the merged sequence must rotate
	// through queues in steering order wherever nothing was dropped.
	if m.RingDrops() == 0 {
		for i := 1; i < len(*out); i++ {
			if got, want := (*out)[i].Queue, ((*out)[i-1].Queue+1)%4; got != want {
				t.Fatalf("record %d on queue %d, want %d (steering order lost)", i, got, want)
			}
		}
	}
}

// TestMergeEqualTimestampTieBreak locks the deterministic tie-break
// satellite: equal hardware timestamps across queues must emerge in
// (queue index, per-queue sequence) order. Real MACs cannot latch two
// arrivals into one 6.25 ns quantum on a single port, so the collision
// is injected directly through the port's receive hook.
func TestMergeEqualTimestampTieBreak(t *testing.T) {
	e := sim.NewEngine()
	card := netfpga.New(e, netfpga.Config{Ports: 1})
	m := Attach(card.Port(0), Config{
		SnapLen: 64,
		Queues:  make([]QueueConfig, 4),
		Steer:   SteerRoundRobin,
	})
	var out []Record
	g := NewMerge(m, func(rec Record) { out = append(out, rec) })

	data := spec.Build()
	frame := wire.NewFrame(data)
	at1 := sim.Time(10 * sim.Microsecond)
	ts1 := card.Clock.Now(at1)
	// Eight same-instant arrivals deal round-robin onto queues
	// 0,1,2,3,0,1,2,3 — two per queue, all latching ts1.
	for i := 0; i < 8; i++ {
		card.Port(0).OnReceiveRun(wire.One(frame), at1)
	}
	e.Run() // drain every queue
	g.Flush()

	if len(out) != 8 {
		t.Fatalf("emitted %d records, want 8", len(out))
	}
	// (TS, Queue, Seq) with all-equal TS: queue-major, then sequence.
	wantQ := []int{0, 0, 1, 1, 2, 2, 3, 3}
	for i, rec := range out {
		if rec.TS != ts1 {
			t.Fatalf("record %d ts %v, want %v", i, rec.TS, ts1)
		}
		if rec.Queue != wantQ[i] {
			t.Fatalf("record %d on queue %d, want %d (tie-break broken)", i, rec.Queue, wantQ[i])
		}
		if rec.Seq != uint64(i%2) {
			t.Fatalf("record %d seq %d, want %d", i, rec.Seq, i%2)
		}
	}
	if g.OrderViolations() != 0 {
		t.Fatalf("merge recorded %d order violations", g.OrderViolations())
	}

	// A later timestamp releases the tied batch even mid-run: emit four
	// more at ts2 and confirm nothing reordered across the boundary.
	at2 := e.Now().Add(100 * sim.Nanosecond)
	for i := 0; i < 4; i++ {
		card.Port(0).OnReceiveRun(wire.One(frame), at2)
	}
	e.Run()
	g.Flush()
	if len(out) != 12 {
		t.Fatalf("emitted %d records, want 12", len(out))
	}
	assertKeySorted(t, out)
}

// TestMergePropertyRandomTraffic is the merge's property test: random
// RSS-steered traffic across 1–8 queues with randomised per-queue drain
// rates and Poisson arrivals. The merged stream must be globally
// (TS, Queue, Seq)-sorted, complete, and per-flow order-preserving
// (each flow pinned to one queue with strictly increasing sequence).
func TestMergePropertyRandomTraffic(t *testing.T) {
	rnd := sim.NewRand(0x0517e17)
	for trial := 0; trial < 8; trial++ {
		nq := 1 + rnd.Intn(8)
		queues := make([]QueueConfig, nq)
		for i := range queues {
			// 50 ns – 3.2 µs per record: some queues race ahead, some lag
			// far behind line rate, so deliveries interleave chaotically.
			queues[i] = QueueConfig{
				HostPerPacket: sim.Duration(50+rnd.Intn(3150)) * sim.Nanosecond,
				RingSize:      1 << 14,
			}
		}
		numFlows := 1 + rnd.Intn(32)
		load := 0.3 + 0.6*rnd.Float64()
		slot := wire.SerializationTime(64, wire.Rate10G)
		e, gn, m, g, out := mergeRig(t, queues, SteerHash, numFlows,
			gen.Poisson{Mean: sim.Duration(float64(slot) / load)}, uint64(trial)+100)
		e.RunUntil(sim.Time(300 * sim.Microsecond))
		gn.Stop()
		e.Run()
		g.Flush()

		recs := *out
		if got, want := g.Emitted(), m.Delivered().Packets; got != want {
			t.Fatalf("trial %d: emitted %d of %d delivered", trial, got, want)
		}
		if g.Pending() != 0 {
			t.Fatalf("trial %d: %d records stuck after Flush", trial, g.Pending())
		}
		if len(recs) == 0 {
			t.Fatalf("trial %d: no records", trial)
		}
		assertKeySorted(t, recs)
		if g.OrderViolations() != 0 {
			t.Fatalf("trial %d: %d order violations", trial, g.OrderViolations())
		}
		// Per-flow order: RSS pins each digest to one queue, so each
		// flow's records must stay in strictly increasing Seq (= its
		// arrival order) on a single queue.
		flowQueue := make(map[uint64]int)
		flowSeq := make(map[uint64]uint64)
		flowTS := make(map[uint64]timing.Timestamp)
		for i, rec := range recs {
			if q, ok := flowQueue[rec.Hash]; ok && q != rec.Queue {
				t.Fatalf("trial %d: flow %x hops queues %d → %d", trial, rec.Hash, q, rec.Queue)
			}
			flowQueue[rec.Hash] = rec.Queue
			if s, ok := flowSeq[rec.Hash]; ok && rec.Seq <= s {
				t.Fatalf("trial %d: flow %x seq %d after %d at record %d (per-flow order lost)",
					trial, rec.Hash, rec.Seq, s, i)
			}
			flowSeq[rec.Hash] = rec.Seq
			if ts, ok := flowTS[rec.Hash]; ok && rec.TS < ts {
				t.Fatalf("trial %d: flow %x timestamp went backwards", trial, rec.Hash)
			}
			flowTS[rec.Hash] = rec.TS
		}
	}
}

// equivRun drives one seeded 10G capture of 64 B frames carrying
// embedded TX timestamps and returns every record its consumer saw, with
// the data copied at delivery. With merged set the records come through
// NewMerge, whose sink also checks that each record's bytes still hash
// to its digest (a buffer recycled under an unmerged record would not);
// otherwise they come straight from per-queue sinks, in delivery order.
func equivRun(t *testing.T, queues []QueueConfig, steer Steer, train int, merged bool) (recs []Record, maxPending int, drops uint64) {
	t.Helper()
	e := sim.NewEngine()
	card := netfpga.New(e, netfpga.Config{Ports: 2})
	card.Port(0).SetLink(wire.NewLink(e, wire.Rate10G, 0, card.Port(1)))
	keep := func(rec Record) {
		rec.Data = append([]byte(nil), rec.Data...)
		recs = append(recs, rec)
	}
	cfg := Config{
		SnapLen:   64,
		HashBytes: packet.HeaderDigestBytes,
		Queues:    append([]QueueConfig(nil), queues...),
		Steer:     steer,
	}
	if !merged {
		for i := range cfg.Queues {
			cfg.Queues[i].Sink = keep
		}
	}
	m := Attach(card.Port(1), cfg)
	var g *Merge
	if merged {
		g = NewMerge(m, func(rec Record) {
			if d := packet.PacketDigest(rec.Data, packet.HeaderDigestBytes); d != rec.Hash {
				t.Fatalf("record q=%d seq=%d: data digest %x, want %x (buffer recycled under it?)", rec.Queue, rec.Seq, d, rec.Hash)
			}
			maxPending = max(maxPending, g.Pending())
			keep(rec)
		})
	}
	const end = sim.Time(200 * sim.Microsecond)
	gn, err := gen.New(card.Port(0), gen.Config{
		Source:         &gen.UDPFlowSource{Spec: spec, NumFlows: 16, FrameSize: 64},
		Spacing:        gen.CBRForLoad(64, wire.Rate10G, 1.0),
		EmbedTimestamp: true,
		Pool:           wire.DefaultPool,
		Seed:           7,
		MaxTrain:       train,
		Until:          end,
	})
	if err != nil {
		t.Fatal(err)
	}
	gn.Start(0)
	e.RunUntil(end)
	gn.Stop()
	e.Run()
	if merged {
		g.Flush()
		if g.Pending() != 0 || g.OrderViolations() != 0 {
			t.Fatalf("after Flush: %d pending, %d order violations", g.Pending(), g.OrderViolations())
		}
	}
	return recs, maxPending, m.RingDrops()
}

// TestMergeEquivalentToSortedPerQueueStreams: the merged stream of a
// seeded capture must equal the same capture's per-queue records stably
// sorted by (TS, Queue, Seq), field for field — Delivered, Seq and the
// Data bytes included — over 1/2/4/8 queues, both steering policies,
// per-frame and train delivery, a ring small enough to drop and a
// host cost skewed enough to hold a merge backlog.
func TestMergeEquivalentToSortedPerQueueStreams(t *testing.T) {
	shapes := []struct {
		name  string
		queue func(i int) QueueConfig
	}{
		// Every host core far below line rate behind an 8-deep ring.
		{"drop", func(int) QueueConfig { return QueueConfig{RingSize: 8, HostPerPacket: sim.Microsecond} }},
		// Queue 0 lags behind deep rings: the others' records wait in
		// their slots until its keys pass them.
		{"backlog", func(i int) QueueConfig {
			if i == 0 {
				return QueueConfig{RingSize: 1 << 14, HostPerPacket: 3 * sim.Microsecond}
			}
			return QueueConfig{RingSize: 1 << 14, HostPerPacket: 100 * sim.Nanosecond}
		}},
	}
	for _, nq := range []int{1, 2, 4, 8} {
		for _, steer := range []Steer{SteerHash, SteerRoundRobin} {
			for _, sh := range shapes {
				for _, train := range []int{1, 64} {
					queues := make([]QueueConfig, nq)
					for i := range queues {
						queues[i] = sh.queue(i)
					}
					ref, _, refDrops := equivRun(t, queues, steer, train, false)
					got, maxPending, drops := equivRun(t, queues, steer, train, true)
					where := fmt.Sprintf("%dq steer=%d %s train=%d", nq, steer, sh.name, train)
					if sh.name == "drop" && drops == 0 {
						t.Fatalf("%s: ring never dropped", where)
					}
					if sh.name == "backlog" && nq > 1 && maxPending < 100 {
						t.Fatalf("%s: merge backlog peaked at %d records", where, maxPending)
					}
					if drops != refDrops {
						t.Fatalf("%s: merge run dropped %d, per-queue run %d", where, drops, refDrops)
					}
					slices.SortStableFunc(ref, func(a, b Record) int {
						switch {
						case keyLess(&a, &b):
							return -1
						case keyLess(&b, &a):
							return 1
						}
						return 0
					})
					if len(got) != len(ref) || len(got) == 0 {
						t.Fatalf("%s: merged %d records, per-queue %d", where, len(got), len(ref))
					}
					for i := range ref {
						if !reflect.DeepEqual(got[i], ref[i]) {
							t.Fatalf("%s: record %d differs:\nmerged    %+v\nper-queue %+v", where, i, got[i], ref[i])
						}
					}
				}
			}
		}
	}
}
