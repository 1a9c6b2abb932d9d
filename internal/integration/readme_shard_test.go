package integration_test

import (
	"testing"

	"osnt/internal/fabric"
	"osnt/internal/gen"
	"osnt/internal/shard"
	"osnt/internal/sim"
	"osnt/internal/stats"
	"osnt/internal/timing"
	"osnt/internal/wire"
)

// runReadmeShard runs the README's sharded-execution example on a
// cluster of the given shard count and returns its loss map plus a
// per-host stream digest (an FNV-1a fold over every delivered frame's
// arrival instant and size, combined in host order).
func runReadmeShard(shards int) (*stats.LossMap, uint64) {
	cl := shard.NewCluster(shards) // one engine per shard
	defer cl.Close()

	// Delayed cables make every pod-aligned cut legal; the 1 µs delay is
	// the lookahead budget (and the barrier cadence).
	spec := fabric.Spec{K: 4, LinkDelay: sim.Microsecond}
	f := fabric.MustBuildPartitioned(cl.Partition(spec.PodShard(shards)), spec)

	const fnvOffset, fnvPrime = 14695981039346656037, 1099511628211
	mix := func(h, v uint64) uint64 {
		for i := 0; i < 8; i++ {
			h = (h ^ (v & 0xff)) * fnvPrime
			v >>= 8
		}
		return h
	}
	digests := make([]uint64, len(f.Hosts))
	for i := range f.Hosts {
		digests[i] = fnvOffset
		d := &digests[i]
		f.HostPort(i).OnReceive = func(fr *wire.Frame, at sim.Time, _ timing.Timestamp) {
			*d = mix(mix(*d, uint64(at)), uint64(fr.Size))
		}
	}

	srcs := f.Sources(f.Permutation(), 512)
	var gens []*gen.Generator
	for i, src := range srcs {
		g, err := gen.New(f.HostPort(i), gen.Config{
			Source:  src,
			Spacing: gen.CBRForLoad(512, wire.Rate10G, 0.5),
			Pool:    wire.DefaultPool,
		})
		if err != nil {
			panic(err)
		}
		g.Start(0)
		gens = append(gens, g)
	}
	cl.RunUntil(sim.Time(sim.Millisecond)) // windows + barriers, shard 0 inline
	var offered uint64
	for _, g := range gens {
		g.Stop()
		offered += g.Sent().Packets + g.Dropped()
	}
	cl.Run() // drain in-flight traffic to empty

	lm := stats.NewLossMap(offered, f.Delivered(), f.Drops()) // ledgers merge across shards
	digest := uint64(fnvOffset)
	for _, d := range digests {
		digest = mix(digest, d)
	}
	return lm, digest
}

// TestReadmeShardSnippet mirrors the README's sharded-execution example
// so the documentation stays compile-verified and behaviour-verified:
// the 4-shard run of a k=4 delayed fat-tree conserves exactly, loses
// nothing at half load, and is byte-identical — same counters, same
// stream digest — to the 1-shard run of the same spec.
func TestReadmeShardSnippet(t *testing.T) {
	lm4, digest4 := runReadmeShard(4)
	if lm4.Sent == 0 {
		t.Fatal("nothing offered")
	}
	if !lm4.Conserved() {
		t.Fatalf("loss not conserved: sent %d delivered %d attributed %d",
			lm4.Sent, lm4.Delivered, lm4.Attributed())
	}
	if lm4.Delivered != lm4.Sent {
		t.Fatalf("half-load permutation lost frames: sent %d delivered %d",
			lm4.Sent, lm4.Delivered)
	}

	lm1, digest1 := runReadmeShard(1)
	if lm1.Sent != lm4.Sent || lm1.Delivered != lm4.Delivered {
		t.Fatalf("shard counts disagree on counters: 1-shard %d/%d, 4-shard %d/%d",
			lm1.Sent, lm1.Delivered, lm4.Sent, lm4.Delivered)
	}
	if digest1 != digest4 {
		t.Fatalf("stream digests diverge: 1-shard %016x, 4-shard %016x", digest1, digest4)
	}
}
