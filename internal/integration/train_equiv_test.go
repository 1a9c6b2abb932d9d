package integration_test

import (
	"fmt"
	"math/rand"
	"testing"

	"osnt/internal/filter"
	"osnt/internal/gen"
	"osnt/internal/mon"
	"osnt/internal/netfpga"
	"osnt/internal/packet"
	"osnt/internal/sim"
	"osnt/internal/stats"
	"osnt/internal/switchsim"
	"osnt/internal/topo"
	"osnt/internal/wire"
)

// Frame-train coalescing must be pure bookkeeping: a scenario run with
// any train cap has to produce bit-for-bit the same observable state as
// the per-frame (cap 1) reference — every record's timestamp, digest
// and bytes, every counter, every drop attribution. These tests run
// randomized single-source scenarios across the three hot spots the
// batching fast paths split at (rate conversion, ECMP spray, capture
// filters), plus a capture ring whose DMA completions tie with frame
// arrivals, on zero-delay and on keyed 1 µs cables, and compare complete
// run summaries across caps 1/4/64.

const equivDur = 300 * sim.Microsecond

// equivFold folds v into an order-sensitive FNV-1a stream digest.
func equivFold(h, v uint64) uint64 {
	const prime = 1099511628211
	for s := 56; s >= 0; s -= 8 {
		h = (h ^ (v >> uint(s) & 0xff)) * prime
	}
	return h
}

// equivSink returns a per-queue record sink folding every delivered
// record — timestamp, hardware digest, wire size, the full (possibly
// thinned) bytes and the hop trace — into *h. Any retimed, reordered,
// re-thinned, corrupted or differently stamped record changes the digest.
func equivSink(h *uint64) func(mon.Record) {
	const prime = 1099511628211
	return func(rec mon.Record) {
		d := equivFold(*h, uint64(rec.TS))
		d = equivFold(d, rec.Hash)
		d = equivFold(d, uint64(rec.WireSize))
		for _, b := range rec.Data {
			d = (d ^ uint64(b)) * prime
		}
		d = equivFold(d, uint64(rec.Trace.Len()))
		for i := 0; i < rec.Trace.Len(); i++ {
			hop := rec.Trace.At(i)
			d = equivFold(equivFold(d, uint64(hop.Node)), uint64(hop.At))
		}
		*h = d
	}
}

// equivQueues builds nq sink-equipped capture queues plus the slice of
// their digest accumulators.
func equivQueues(nq int) ([]mon.QueueConfig, []uint64) {
	digests := make([]uint64, nq)
	queues := make([]mon.QueueConfig, nq)
	for i := range queues {
		queues[i] = mon.QueueConfig{
			RingSize:      1 << 14,
			HostPerPacket: sim.Nanosecond,
			HostPerByte:   -1,
			Sink:          equivSink(&digests[i]),
		}
	}
	return queues, digests
}

// equivSummary renders everything a run produced into one comparable
// string: traffic counters, per-queue stream digests, monitor filter and
// ring-drop counts, and the full rendered LossMap table (per-hop,
// per-reason drop attribution against conservation).
func equivSummary(g *gen.Generator, ms []*mon.Monitor, digests [][]uint64, top *topo.Topology) string {
	consumed := g.Sent().Packets + g.Dropped()
	var seen, delivered uint64
	s := fmt.Sprintf("sent=%d", consumed)
	for i, m := range ms {
		seen += m.Seen().Packets
		delivered += m.Delivered().Packets
		s += fmt.Sprintf("\nmon%d: seen=%d/%dB delivered=%d/%dB filtered=%d ringDrops=%d digests=%x",
			i, m.Seen().Packets, m.Seen().Bytes, m.Delivered().Packets, m.Delivered().Bytes,
			m.Filtered(), m.RingDrops(), digests[i])
	}
	lm := stats.NewLossMap(consumed, seen, top.Drops())
	s += fmt.Sprintf("\nconserved=%v\n%s", lm.Conserved(), lm.Table().String())
	return s
}

// equivScenario is one randomized rig: mk draws its parameters from rng
// once, then the returned run function replays the identical scenario at
// a given train cap. Every cable carries the given propagation delay; a
// positive one gives it a structural delivery key (topo), which orders
// its deliveries before same-instant PrioDefault events.
type equivScenario struct {
	name string
	mk   func(rng *rand.Rand, delay sim.Duration) func(cap int) string
}

// mixedRateScenario saturates a 40G→10G down-converting DUT whose
// shallow egress FIFO overflows continuously: trains must split at the
// rate-conversion boundary and attribute exactly the same drops.
func mixedRateScenario(rng *rand.Rand, delay sim.Duration) func(cap int) string {
	fs := []int{64, 128, 512, 1518}[rng.Intn(4)]
	nflows := []int{1, 4, 64}[rng.Intn(3)]
	qcap := []int{16, 64}[rng.Intn(2)]
	return func(cap int) string {
		e := sim.NewEngine()
		top := topo.New().
			Tester("tx", netfpga.Config{Ports: 1, Rate: wire.Rate40G}).
			Tester("rx", netfpga.Config{Ports: 1}).
			DUT("sw", switchsim.Config{
				Ports:           2,
				PortRates:       []wire.Rate{wire.Rate40G, wire.Rate10G},
				EgressQueueCap:  qcap,
				LookupPerPacket: sim.Nanosecond,
				LookupPerByte:   sim.Picoseconds(10),
			}).
			LinkAt("tx:0", "sw:0", 0, delay).
			LinkAt("sw:1", "rx:0", 0, delay).
			MustBuild(e)
		top.DUT("sw").Learn(spec.DstMAC, 1)
		queues, digests := equivQueues(1)
		m := top.AttachMonitor("rx:0", mon.Config{
			SnapLen:   64,
			HashBytes: packet.HeaderDigestBytes,
			Queues:    queues,
		})
		g := equivGen(top, "tx:0", fs, nflows, wire.Rate40G, cap)
		g.Start(0)
		e.RunUntil(sim.Time(equivDur))
		g.Stop()
		e.Run()
		return equivSummary(g, []*mon.Monitor{m}, [][]uint64{digests}, top)
	}
}

// sprayScenario drives an ECMP group of two same-rate uplinks, each with
// its own capture: spray decisions must land every frame on the same
// member with and without trains (uniform trains spray whole, mixed
// flows fall back per frame).
func sprayScenario(rng *rand.Rand, delay sim.Duration) func(cap int) string {
	fs := []int{64, 256, 1518}[rng.Intn(3)]
	nflows := []int{1, 8, 64}[rng.Intn(3)]
	return func(cap int) string {
		e := sim.NewEngine()
		top := topo.New().
			Tester("tx", netfpga.Config{Ports: 1, Rate: wire.Rate40G}).
			Tester("rx0", netfpga.Config{Ports: 1, Rate: wire.Rate40G}).
			Tester("rx1", netfpga.Config{Ports: 1, Rate: wire.Rate40G}).
			DUT("sw", switchsim.Config{
				Ports:           3,
				Rate:            wire.Rate40G,
				LookupPerPacket: sim.Nanosecond,
				LookupPerByte:   sim.Picoseconds(10),
			}).
			LinkAt("tx:0", "sw:0", 0, delay).
			LinkAt("sw:1", "rx0:0", 0, delay).
			LinkAt("sw:2", "rx1:0", 0, delay).
			MustBuild(e)
		sw := top.DUT("sw")
		sw.LearnGroup(spec.DstMAC, sw.AddGroup(1, 2))
		var ms []*mon.Monitor
		var digests [][]uint64
		for _, ref := range []string{"rx0:0", "rx1:0"} {
			queues, d := equivQueues(1)
			ms = append(ms, top.AttachMonitor(ref, mon.Config{
				SnapLen:   64,
				HashBytes: packet.HeaderDigestBytes,
				Queues:    queues,
			}))
			digests = append(digests, d)
		}
		g := equivGen(top, "tx:0", fs, nflows, wire.Rate40G, cap)
		g.Start(0)
		e.RunUntil(sim.Time(equivDur))
		g.Stop()
		e.Run()
		return equivSummary(g, ms, digests, top)
	}
}

// filterScenario exercises the capture-side split points: a hardware
// filter table that drops one flow, pins a port range to a fixed queue
// with its own snap length, and hash-steers the rest across four rings —
// train admission must classify every frame exactly as the per-frame
// path does, thinning included.
func filterScenario(rng *rand.Rand, delay sim.Duration) func(cap int) string {
	fs := []int{64, 128, 512}[rng.Intn(3)]
	nflows := []int{8, 64}[rng.Intn(2)]
	return func(cap int) string {
		e := sim.NewEngine()
		top := topo.New().
			Tester("osnt", netfpga.Config{Ports: 2}).
			LinkAt("osnt:0", "osnt:1", 0, delay).
			MustBuild(e)
		filters := filter.NewTable(filter.Capture)
		// Flow 0 is rejected in hardware.
		if err := filters.Append(&filter.Rule{
			Name: "drop-first-flow", Action: filter.Drop,
			SrcPortMin: spec.SrcPort, SrcPortMax: spec.SrcPort,
		}); err != nil {
			panic(err)
		}
		// Flows 1–2 bypass steering into queue 3, cut to 48 B.
		if err := filters.Append(&filter.Rule{
			Name: "pin-early-flows", Action: filter.Capture,
			SrcPortMin: spec.SrcPort + 1, SrcPortMax: spec.SrcPort + 2,
			PinQueue: 3, SnapLen: 48,
		}); err != nil {
			panic(err)
		}
		queues, digests := equivQueues(4)
		m := top.AttachMonitor("osnt:1", mon.Config{
			SnapLen:   64,
			HashBytes: packet.HeaderDigestBytes,
			Filters:   filters,
			Steer:     mon.SteerHash,
			Queues:    queues,
		})
		g := equivGen(top, "osnt:0", fs, nflows, wire.Rate10G, cap)
		g.Start(0)
		e.RunUntil(sim.Time(equivDur))
		g.Stop()
		e.Run()
		return equivSummary(g, []*mon.Monitor{m}, [][]uint64{digests}, top)
	}
}

// dmaTieScenario pins capture admission at a keyed tie: a 10G tester
// port saturated with one 64 B flow for 20 µs (298 frames) into
// four-slot capture rings whose host cost is a whole number of frame
// slots, so DMA completions fall due at the instants frames arrive — one
// ring at two, then three slots, then four round-robin rings at five. A
// completion due at an arrival must be applied before that frame is
// admitted, whatever the engine's same-instant order between the
// completion event and the cable's keyed delivery, and however frames are
// grouped into trains. The rig is fixed; the seed does not enter it.
func dmaTieScenario(_ *rand.Rand, delay sim.Duration) func(cap int) string {
	const dur = 20 * sim.Microsecond
	slot := wire.SerializationTime(64, wire.Rate10G)
	return func(cap int) string {
		var s string
		for _, rig := range []struct {
			queues int
			slots  sim.Duration
		}{{1, 2}, {1, 3}, {4, 5}} {
			e := sim.NewEngine()
			top := topo.New().
				Tester("osnt", netfpga.Config{Ports: 2}).
				LinkAt("osnt:0", "osnt:1", 0, delay).
				MustBuild(e)
			digests := make([]uint64, rig.queues)
			queues := make([]mon.QueueConfig, rig.queues)
			for i := range queues {
				queues[i] = mon.QueueConfig{
					RingSize:      4,
					HostPerPacket: rig.slots * slot,
					HostPerByte:   -1,
					Sink:          equivSink(&digests[i]),
				}
			}
			m := top.AttachMonitor("osnt:1", mon.Config{
				SnapLen: 64,
				Steer:   mon.SteerRoundRobin,
				Queues:  queues,
			})
			g, err := gen.New(top.Port("osnt:0"), gen.Config{
				Source:   &gen.UDPFlowSource{Spec: spec, FrameSize: 64},
				Spacing:  gen.CBRForLoad(64, wire.Rate10G, 1.0),
				Pool:     wire.DefaultPool,
				MaxTrain: cap,
				Until:    sim.Time(dur),
			})
			if err != nil {
				panic(err)
			}
			g.Start(0)
			e.RunUntil(sim.Time(dur))
			g.Stop()
			e.Run()
			s += fmt.Sprintf("%d queue(s), host cost %d slots: %s\n", rig.queues, rig.slots, equivSummary(g, []*mon.Monitor{m}, [][]uint64{digests}, top))
		}
		return s
	}
}

// equivGen builds the scenario's single saturating source: load 1.0 so
// consecutive frames abut and trains actually form at every cap > 1.
func equivGen(top *topo.Topology, port string, fs, nflows int, rate wire.Rate, cap int) *gen.Generator {
	g, err := gen.New(top.Port(port), gen.Config{
		Source:   &gen.UDPFlowSource{Spec: spec, NumFlows: nflows, FrameSize: fs},
		Spacing:  gen.CBRForLoad(fs, rate, 1.0),
		Pool:     wire.DefaultPool,
		MaxTrain: cap,
		Until:    sim.Time(equivDur),
	})
	if err != nil {
		panic(err)
	}
	return g
}

// TestTrainEquivalence is the batching correctness property test: for
// every randomized scenario, at zero and at 1 µs cable delay, runs with
// train caps 4 and 64 must produce summaries identical to the per-frame
// cap-1 reference.
func TestTrainEquivalence(t *testing.T) {
	scenarios := []equivScenario{
		{"mixed-rate", mixedRateScenario},
		{"ecmp-spray", sprayScenario},
		{"filters", filterScenario},
		{"dma-tie", dmaTieScenario},
	}
	for _, sc := range scenarios {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", sc.name, seed), func(t *testing.T) {
				for _, delay := range []sim.Duration{0, sim.Microsecond} {
					run := sc.mk(rand.New(rand.NewSource(seed)), delay)
					ref := run(1)
					for _, cap := range []int{4, 64} {
						if got := run(cap); got != ref {
							t.Errorf("delay %v: cap %d diverges from per-frame reference:\n--- cap 1 ---\n%s\n--- cap %d ---\n%s",
								delay, cap, ref, cap, got)
						}
					}
				}
			})
		}
	}
}
