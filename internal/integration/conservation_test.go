package integration_test

import (
	"fmt"
	"testing"

	"osnt/internal/gen"
	"osnt/internal/netfpga"
	"osnt/internal/packet"
	"osnt/internal/sim"
	"osnt/internal/stats"
	"osnt/internal/switchsim"
	"osnt/internal/topo"
	"osnt/internal/wire"
)

// conservationRates are the rate tiers the randomized topologies mix.
var conservationRates = []wire.Rate{wire.Rate10G, wire.Rate40G}

// TestPropertyLossConservationRandomChains is the fuzz-style invariant
// behind the whole loss-attribution subsystem: on a randomized
// mixed-rate chain — random per-segment rates (conversions inside the
// DUTs), random queue and lookup capacities, random service costs,
// jitter, load, frame size, plus injected runts — every frame offered
// to the scenario must be either delivered to the terminal sink or
// attributed to exactly one (hop, reason) ledger cell. Exactly: not
// within tolerance, to the packet.
func TestPropertyLossConservationRandomChains(t *testing.T) {
	for seed := 0; seed < 12; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rnd := sim.NewRand(uint64(seed)*7919 + 1)
			nSwitches := 1 + rnd.Intn(3)
			segRates := make([]wire.Rate, nSwitches+1)
			for i := range segRates {
				segRates[i] = conservationRates[rnd.Intn(len(conservationRates))]
			}

			e := sim.NewEngine()
			b := topo.New().
				Tester("tx", netfpga.Config{Ports: 1, Rate: segRates[0]}).
				Sink("end")
			for k := 1; k <= nSwitches; k++ {
				b.DUT(fmt.Sprintf("sw%d", k), switchsim.Config{
					Ports:          2,
					PortRates:      []wire.Rate{segRates[k-1], segRates[k]},
					EgressQueueCap: 4 + rnd.Intn(60),
					LookupQueueCap: 4 + rnd.Intn(28),
					LookupPerByte:  sim.Picoseconds(int64(300 + rnd.Intn(600))),
					LookupJitter:   rnd.Float64() * 0.5,
					Seed:           uint64(seed*16 + k),
				})
			}
			b.Link("tx:0", "sw1:0")
			for k := 1; k < nSwitches; k++ {
				b.Link(fmt.Sprintf("sw%d:1", k), fmt.Sprintf("sw%d:0", k+1))
			}
			b.Link(fmt.Sprintf("sw%d:1", nSwitches), "end")
			tp := b.MustBuild(e)

			spec := probeTopoSpec()
			for k := 1; k <= nSwitches; k++ {
				tp.DUT(fmt.Sprintf("sw%d", k)).Learn(spec.DstMAC, 1)
			}

			frameSize := []int{64, 256, 512, 1518}[rnd.Intn(4)]
			load := 0.3 + 0.7*rnd.Float64()
			slot := wire.SerializationTime(frameSize, segRates[0])
			g, err := gen.New(tp.Port("tx:0"), gen.Config{
				Source:  &gen.UDPFlowSource{Spec: spec, NumFlows: 1 + rnd.Intn(8), FrameSize: frameSize},
				Spacing: gen.Poisson{Mean: sim.Duration(float64(slot) / load)},
				Pool:    wire.DefaultPool,
				Seed:    uint64(seed)*31 + 7,
			})
			if err != nil {
				t.Fatal(err)
			}
			g.Start(0)

			const duration = 2 * sim.Millisecond
			runts := rnd.Intn(20)
			txPort := tp.Port("tx:0")
			for r := 0; r < runts; r++ {
				at := sim.Time(rnd.Intn(int(duration)))
				e.Schedule(at, func() { txPort.Enqueue(wire.One(wire.NewFrame(make([]byte, 6)))) })
			}

			e.RunUntil(sim.Time(duration))
			g.Stop()
			e.Run() // drain every queue and in-flight frame

			// Offered counts every frame that entered the scenario,
			// including the ones the TX queue itself refused — those are
			// attributed as tx-overflow at the tester's hop.
			offered := g.Sent().Packets + g.Dropped() + uint64(runts)
			delivered := tp.Sink("end").Received().Packets
			lm := stats.NewLossMap(offered, delivered, tp.Drops())
			if !lm.Conserved() {
				t.Fatalf("chain of %d (rates %v, frame %d, load %.2f) leaks frames:\n%s",
					nSwitches, segRates, frameSize, load, lm.Table().String())
			}
		})
	}
}

// TestPropertyLossConservationSprayFabric repeats the invariant on the
// ECMP shape: two edge flows spraying over a 2-member uplink group with
// deliberately tiny queues. Hash imbalance, group spraying and the
// conversion to a sink must not open any unaccounted loss path.
func TestPropertyLossConservationSprayFabric(t *testing.T) {
	for seed := 0; seed < 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rnd := sim.NewRand(uint64(seed)*104729 + 3)
			rate := conservationRates[rnd.Intn(len(conservationRates))]

			e := sim.NewEngine()
			tp := topo.New().
				Tester("tx", netfpga.Config{Ports: 2, Rate: rate}).
				DUT("leaf", switchsim.Config{
					Ports:          4,
					Rate:           rate,
					EgressQueueCap: 4 + rnd.Intn(28),
				}).
				DUT("spine", switchsim.Config{
					Ports:          3,
					Rate:           rate,
					EgressQueueCap: 4 + rnd.Intn(28),
				}).
				Sink("end").
				Link("tx:0", "leaf:0").
				Link("tx:1", "leaf:1").
				Group("leaf:2", "spine:0", 2).
				Link("spine:2", "end").
				MustBuild(e)

			spec := probeTopoSpec()
			leaf := tp.DUT("leaf")
			leaf.LearnGroup(spec.DstMAC, leaf.AddGroup(2, 3))
			tp.DUT("spine").Learn(spec.DstMAC, 2)

			gens := make([]*gen.Generator, 2)
			for p := 0; p < 2; p++ {
				src := spec
				src.SrcMAC[5] = byte(0x20 + p)
				src.SrcPort = uint16(5000 + 16*p)
				load := 0.5 + 0.5*rnd.Float64()
				slot := wire.SerializationTime(512, rate)
				g, err := gen.New(tp.Port(fmt.Sprintf("tx:%d", p)), gen.Config{
					Source:  &gen.UDPFlowSource{Spec: src, NumFlows: 16, FrameSize: 512},
					Spacing: gen.Poisson{Mean: sim.Duration(float64(slot) / load)},
					Pool:    wire.DefaultPool,
					Seed:    uint64(seed)*67 + uint64(p),
				})
				if err != nil {
					t.Fatal(err)
				}
				g.Start(0)
				gens[p] = g
			}
			e.RunUntil(sim.Time(2 * sim.Millisecond))
			var offered uint64
			for _, g := range gens {
				g.Stop()
				offered += g.Sent().Packets + g.Dropped()
			}
			e.Run()

			lm := stats.NewLossMap(offered, tp.Sink("end").Received().Packets, tp.Drops())
			if !lm.Conserved() {
				t.Fatalf("spray fabric at %v leaks frames:\n%s", rate, lm.Table().String())
			}
			if lm.Attributed() == 0 {
				t.Fatalf("tiny queues at ≥50%% fan-in load dropped nothing — rig too gentle to test attribution")
			}
		})
	}
}

// probeTopoSpec is the shared conservation workload (unicast, so the
// pre-learned FDBs never flood).
func probeTopoSpec() packet.UDPSpec { return spec }
