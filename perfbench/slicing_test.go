package main

import (
	"testing"

	"osnt/internal/sim"
)

func workloadNamed(t *testing.T, name string) workload {
	t.Helper()
	for _, w := range workloads {
		if w.name == name {
			return *w
		}
	}
	t.Fatalf("no workload %q", name)
	return workload{}
}

// TestSlicingKeepsDigest proves that the traced run's measurement
// slicing does not change the simulation: advancing the run phase in
// fixed virtual-time slices gives the digest of one RunUntil call, on a
// plain Engine and on a 2-shard Cluster. The slice widths are chosen not
// to divide the 1 µs lookahead, so cluster windows lose their alignment.
func TestSlicingKeepsDigest(t *testing.T) {
	cases := []struct {
		workload string
		shards   int
		virtual  sim.Duration
		slice    sim.Duration
	}{
		{"capture100g", 0, 500 * sim.Microsecond, 7 * sim.Microsecond},
		{"fattree_k8", 0, 50 * sim.Microsecond, 3300 * sim.Nanosecond},
		{"fattree_k8_sharded", 2, 200 * sim.Microsecond, 3300 * sim.Nanosecond},
	}
	for _, c := range cases {
		t.Run(c.workload, func(t *testing.T) {
			w := workloadNamed(t, c.workload)
			w.virtual, w.slice = c.virtual, c.slice
			seed := w.input(goldenSeed, 0)
			whole := w.repeat(seed, c.shards, nil)
			sliced := w.repeat(seed, c.shards, &tracer{})
			if whole.err != nil || sliced.err != nil {
				t.Fatalf("repetition failed: whole %v, sliced %v", whole.err, sliced.err)
			}
			if want := int(c.virtual / c.slice); len(sliced.slicesUS) < want {
				t.Fatalf("%d slices, want at least %d", len(sliced.slicesUS), want)
			}
			if sliced.digest != whole.digest {
				t.Errorf("sliced digest %016x, one RunUntil %016x", sliced.digest, whole.digest)
			}
			if sliced.events() != whole.events() || sliced.offered != whole.offered {
				t.Errorf("sliced run fired %d events for %d frames, one RunUntil %d for %d",
					sliced.events(), sliced.offered, whole.events(), whole.offered)
			}
			if c.shards > 1 {
				ref := w.repeat(seed, 1, nil)
				if ref.err != nil || ref.digest != whole.digest {
					t.Errorf("1-shard digest %016x (%v), %d-shard %016x", ref.digest, ref.err, c.shards, whole.digest)
				}
			}
		})
	}
}
