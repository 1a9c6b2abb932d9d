package integration_test

import (
	"testing"

	"osnt/internal/fabric"
	"osnt/internal/gen"
	"osnt/internal/sim"
	"osnt/internal/stats"
	"osnt/internal/wire"
)

// TestReadmeFabricSnippet mirrors the README's fabric-synthesis example
// so the documentation stays compile-verified and behaviour-verified: a
// k=4 fat-tree under a half-load permutation matrix is lossless, floods
// nothing, and conserves exactly.
func TestReadmeFabricSnippet(t *testing.T) {
	engine := sim.NewEngine()
	f := fabric.MustBuild(engine, fabric.Spec{K: 4}) // 20 switches, 16 hosts
	srcs := f.Sources(f.Permutation(), 512)          // all-to-all, 512 B frames

	var gens []*gen.Generator
	for i, src := range srcs {
		g, err := gen.New(f.HostPort(i), gen.Config{
			Source:  src,
			Spacing: gen.CBRForLoad(512, wire.Rate10G, 0.5), // half line rate
			Pool:    wire.DefaultPool,                       // zero-alloc replay
		})
		if err != nil {
			panic(err)
		}
		g.Start(0)
		gens = append(gens, g)
	}
	engine.RunUntil(sim.Time(sim.Millisecond))
	var offered uint64
	for _, g := range gens {
		g.Stop()
		offered += g.Sent().Packets + g.Dropped()
	}
	engine.Run() // drain the fabric

	lm := stats.NewLossMap(offered, f.Delivered(), f.Drops())
	tiers := f.TierDrops() // indexed by fabric.TierEdge / TierAgg / TierCore

	// The README's claims, verified.
	if f.Spec.NumSwitches() != 20 || len(f.Hosts) != 16 {
		t.Fatalf("k=4 expanded to %d switches / %d hosts", f.Spec.NumSwitches(), len(f.Hosts))
	}
	if offered == 0 {
		t.Fatal("nothing offered")
	}
	if !lm.Conserved() {
		t.Fatalf("loss not conserved: sent %d delivered %d attributed %d",
			lm.Sent, lm.Delivered, lm.Attributed())
	}
	if lm.Delivered != offered || tiers[fabric.TierEdge] != 0 {
		t.Fatalf("half-load permutation lost frames: offered %d delivered %d edge drops %d",
			offered, lm.Delivered, tiers[fabric.TierEdge])
	}
}
