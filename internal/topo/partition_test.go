package topo

import (
	"strings"
	"testing"

	"osnt/internal/netfpga"
	"osnt/internal/sim"
	"osnt/internal/stats"
	"osnt/internal/switchsim"
	"osnt/internal/wire"
)

// passLink is a CrossLink stub for build-structure tests: it satisfies
// the Partition contract shape without a shard runtime (nothing here
// runs events across the cut).
func passLink(src, dst int, e *sim.Engine, rate wire.Rate, delay sim.Duration, peer wire.Endpoint) *wire.Link {
	return wire.NewLink(e, rate, delay, peer)
}

// attributed is every drop in the ledger, as the loss map reports it.
func attributed(l *wire.DropLedger) uint64 { return stats.NewLossMap(0, 0, l).Attributed() }

// twoShards maps t0/sw0 to shard 0 and everything else to shard 1.
func twoShards(name string) int {
	if name == "t0" || name == "sw0" {
		return 0
	}
	return 1
}

func twoEnginePartition() Partition {
	return Partition{
		Engines:   []*sim.Engine{sim.NewEngine(), sim.NewEngine()},
		ShardOf:   twoShards,
		CrossLink: passLink,
	}
}

// wantPartitionError asserts BuildPartitioned fails mentioning every
// fragment.
func wantPartitionError(t *testing.T, b *Builder, p Partition, fragments ...string) {
	t.Helper()
	_, err := b.BuildPartitioned(p)
	if err == nil {
		t.Fatal("BuildPartitioned succeeded, want validation error")
	}
	for _, frag := range fragments {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("error %q does not mention %q", err, frag)
		}
	}
}

func TestPartitionRejectsZeroDelayCutEdge(t *testing.T) {
	wantPartitionError(t,
		New().Tester("t0", netfpga.Config{}).Tester("t1", netfpga.Config{}).
			Link("t0:0", "t1:0"), // zero delay across the cut
		twoEnginePartition(),
		"cross-shard edge", "zero propagation delay", "lookahead")
}

func TestPartitionIntraShardZeroDelayStaysLegal(t *testing.T) {
	// The same zero-delay edge is fine when both endpoints share a shard.
	p := twoEnginePartition()
	tp, err := New().
		Tester("t0", netfpga.Config{Ports: 2}).
		Tester("t1", netfpga.Config{}).
		Link("t0:0", "t0:1").
		LinkAt("t0:1", "t1:0", 0, sim.Microsecond).
		BuildPartitioned(p)
	if err != nil {
		t.Fatal(err)
	}
	if tp.Shard("t0") != 0 || tp.Shard("t1") != 1 {
		t.Fatalf("Shard(t0)=%d Shard(t1)=%d, want 0/1", tp.Shard("t0"), tp.Shard("t1"))
	}
}

func TestPartitionValidatesItsOwnFields(t *testing.T) {
	wantPartitionError(t,
		New().Tester("t0", netfpga.Config{}),
		Partition{},
		"no engines")
	wantPartitionError(t,
		New().Tester("t0", netfpga.Config{}),
		Partition{Engines: []*sim.Engine{sim.NewEngine(), sim.NewEngine()}},
		"needs ShardOf and CrossLink")
	p := twoEnginePartition()
	p.ShardOf = func(string) int { return 7 }
	wantPartitionError(t,
		New().Tester("t0", netfpga.Config{}),
		p,
		`ShardOf("t0") = 7`, "outside [0, 2)")
}

func TestShardAccessorDefaultsToZero(t *testing.T) {
	tp := New().Tester("t0", netfpga.Config{}).MustBuild(sim.NewEngine())
	if tp.Shard("t0") != 0 {
		t.Fatalf("single-engine Shard(t0) = %d", tp.Shard("t0"))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Shard on an unknown node did not panic")
		}
	}()
	tp.Shard("ghost")
}

// TestPartitionedDropsMerge exercises the per-shard ledger split: each
// DUT reports into its own shard's private ledger under the global hop
// numbering, and Topology.Drops merges the shards back into the
// single-engine view.
func TestPartitionedDropsMerge(t *testing.T) {
	tp, err := New().
		Tester("t0", netfpga.Config{}).
		DUT("sw0", switchsim.Config{}).
		DUT("sw1", switchsim.Config{}).
		Tester("t1", netfpga.Config{}).
		LinkAt("t0:0", "sw0:0", 0, sim.Microsecond).
		LinkAt("sw0:1", "sw1:0", 0, sim.Microsecond).
		LinkAt("sw1:1", "t1:0", 0, sim.Microsecond).
		BuildPartitioned(twoEnginePartition())
	if err != nil {
		t.Fatal(err)
	}
	if len(tp.ledgers) != 2 {
		t.Fatalf("partitioned build holds %d shard ledgers, want 2", len(tp.ledgers))
	}
	// Global numbering: both DUTs are registered on both the authority
	// ledger and their own shard's.
	h0, h1 := tp.Hop("sw0"), tp.Hop("sw1")
	if tp.ledgers[0].Label(h0) != "sw0" || tp.ledgers[1].Label(h1) != "sw1" {
		t.Fatalf("shard ledgers mislabel hops: %q / %q",
			tp.ledgers[0].Label(h0), tp.ledgers[1].Label(h1))
	}
	// Report drops on each shard's private ledger — the way the devices
	// do from the hot path — and check the merged snapshot.
	tp.ledgers[0].Report(h0, wire.DropEgressOverflow, 3)
	tp.ledgers[1].Report(h1, wire.DropEgressOverflow, 5)
	m := tp.Drops()
	if got := m.Count(h0, wire.DropEgressOverflow); got != 3 {
		t.Fatalf("merged count for sw0 = %d, want 3", got)
	}
	if got := m.Count(h1, wire.DropEgressOverflow); got != 5 {
		t.Fatalf("merged count for sw1 = %d, want 5", got)
	}
	if got := attributed(m); got != 8 {
		t.Fatalf("merged total = %d, want 8", got)
	}
	// Drops snapshots are fresh: reporting more afterwards shows up in a
	// re-taken snapshot, not the old one.
	tp.ledgers[0].Report(h0, wire.DropEgressOverflow, 1)
	if attributed(m) != 8 {
		t.Fatal("snapshot mutated after the fact")
	}
	if got := attributed(tp.Drops()); got != 9 {
		t.Fatalf("fresh snapshot total = %d, want 9", got)
	}
}

// keyRecorder is an Exporter that records the delivery key each
// exported run carries.
type keyRecorder struct{ keys []uint64 }

func (k *keyRecorder) Export(r wire.Run, _, _ sim.Time, key uint64) {
	k.keys = append(k.keys, key)
	r.Release()
}

// TestDeliveryKeysArePartitionIndependent pins the structural-priority
// contract at the topo layer: positive-delay links are keyed in
// edge-declaration order before any partition concern, so a cut edge
// exports under the key a single-engine build gives the same edge. The
// zero-delay link is declared first and takes no key.
func TestDeliveryKeysArePartitionIndependent(t *testing.T) {
	rec := &keyRecorder{}
	p := twoEnginePartition()
	p.CrossLink = func(_, _ int, e *sim.Engine, rate wire.Rate, delay sim.Duration, _ wire.Endpoint) *wire.Link {
		return wire.NewExportLink(e, rate, delay, rec)
	}
	tp, err := New().
		Tester("t0", netfpga.Config{Ports: 2}).
		Tester("t1", netfpga.Config{Ports: 2}).
		Link("t0:1", "t0:0"). // zero delay: no key
		LinkAt("t0:0", "t1:0", 0, sim.Microsecond).
		LinkAt("t1:0", "t0:1", 0, 2*sim.Microsecond).
		BuildPartitioned(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, ref := range []string{"t0:0", "t1:0"} {
		tp.Port(ref).Link().Transmit(wire.One(wire.NewFrame(make([]byte, 60))), 0)
	}
	if len(rec.keys) != 2 || rec.keys[0] != 1 || rec.keys[1] != 2 {
		t.Fatalf("cut links exported under keys %v, want declaration order 1, 2", rec.keys)
	}
}
