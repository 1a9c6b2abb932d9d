package fabric

import (
	"strings"
	"testing"

	"osnt/internal/gen"
	"osnt/internal/runner"
	"osnt/internal/sim"
	"osnt/internal/stats"
	"osnt/internal/wire"
)

// The canonical counts: k=4 → 20 switches / 16 hosts, k=8 → 80 / 128,
// and oversubscription thins the agg and core layers, not the hosts.
func TestSpecCounts(t *testing.T) {
	cases := []struct {
		spec             Spec
		switches, hosts  int
		edges, aggs, cor int
	}{
		{Spec{K: 4}, 20, 16, 8, 8, 4},
		{Spec{K: 8}, 80, 128, 32, 32, 16},
		{Spec{K: 8, Oversub: 2}, 56, 128, 32, 16, 8},
		{Spec{K: 4, Oversub: 2}, 14, 16, 8, 4, 2},
	}
	for _, c := range cases {
		if got := c.spec.NumSwitches(); got != c.switches {
			t.Errorf("K=%d o=%d: %d switches, want %d", c.spec.K, c.spec.Oversub, got, c.switches)
		}
		if got := c.spec.NumHosts(); got != c.hosts {
			t.Errorf("K=%d o=%d: %d hosts, want %d", c.spec.K, c.spec.Oversub, got, c.hosts)
		}
		f := MustBuild(sim.NewEngine(), c.spec)
		if len(f.Edges) != c.edges || len(f.Aggs) != c.aggs || len(f.Cores) != c.cor {
			t.Errorf("K=%d o=%d: tiers %d/%d/%d, want %d/%d/%d", c.spec.K, c.spec.Oversub,
				len(f.Edges), len(f.Aggs), len(f.Cores), c.edges, c.aggs, c.cor)
		}
		if len(f.Hosts) != c.hosts {
			t.Errorf("K=%d o=%d: %d placed hosts, want %d", c.spec.K, c.spec.Oversub, len(f.Hosts), c.hosts)
		}
	}
}

func TestSpecValidation(t *testing.T) {
	for _, c := range []struct {
		spec Spec
		frag string
	}{
		{Spec{K: 3}, "even and ≥ 4"},
		{Spec{K: 2}, "even and ≥ 4"},
		{Spec{K: 8, Oversub: 3}, "must divide"},
		{Spec{K: 4, Trunk: -1}, "trunk width"},
	} {
		_, err := Build(sim.NewEngine(), c.spec)
		if err == nil || !strings.Contains(err.Error(), c.frag) {
			t.Errorf("spec %+v: error %v, want %q", c.spec, err, c.frag)
		}
	}
}

// Placement is a pure function of the spec: coordinates, names, MACs
// and IPs derive from (pod, edge, slot) alone, and the tier map covers
// every switch hop.
func TestDeterministicPlacement(t *testing.T) {
	f := MustBuild(sim.NewEngine(), Spec{K: 4})
	g := MustBuild(sim.NewEngine(), Spec{K: 4})
	for i := range f.Hosts {
		if f.Hosts[i] != g.Hosts[i] {
			t.Fatalf("host %d placement differs across builds: %+v vs %+v", i, f.Hosts[i], g.Hosts[i])
		}
	}
	h := f.Hosts[7] // pod 1, edge 1, slot 1 in a k=4 tree
	if h.Pod != 1 || h.Edge != 1 || h.Slot != 1 {
		t.Fatalf("host 7 placed at (%d,%d,%d), want (1,1,1)", h.Pod, h.Edge, h.Slot)
	}
	for _, name := range f.Edges {
		if f.TierOf(f.Hop(name)) != TierEdge {
			t.Errorf("%s not mapped to edge tier", name)
		}
	}
	for _, name := range f.Aggs {
		if f.TierOf(f.Hop(name)) != TierAgg {
			t.Errorf("%s not mapped to agg tier", name)
		}
	}
	for _, name := range f.Cores {
		if f.TierOf(f.Hop(name)) != TierCore {
			t.Errorf("%s not mapped to core tier", name)
		}
	}
}

// drive runs a matrix over the fabric at the given per-host load for
// the duration and returns the loss map over the scenario ledger.
func drive(t *testing.T, f *Fabric, m TrafficMatrix, load float64, d sim.Duration) *stats.LossMap {
	t.Helper()
	const frameSize = 512
	e := f.Topology.DUT(f.Edges[0]).Engine
	slot := wire.SerializationTime(frameSize, f.Spec.Rate)
	srcs := f.Sources(m, frameSize)
	var gens []*gen.Generator
	for i, src := range srcs {
		if src == nil {
			continue
		}
		g, err := gen.New(f.HostPort(i), gen.Config{
			Source:         src,
			Spacing:        gen.Poisson{Mean: sim.Duration(float64(slot) / load)},
			EmbedTimestamp: true,
			Pool:           wire.DefaultPool,
			Seed:           runner.PointSeed(0xfab, i),
		})
		if err != nil {
			t.Fatal(err)
		}
		g.Start(0)
		gens = append(gens, g)
	}
	e.RunUntil(sim.Time(d))
	var offered uint64
	for _, g := range gens {
		g.Stop()
		offered += g.Sent().Packets + g.Dropped()
	}
	e.Run()
	return stats.NewLossMap(offered, f.Delivered(), f.Drops())
}

// Pre-learned FDBs mean the very first frame forwards by lookup: after
// a full permutation run at moderate load every offered frame is
// accounted for, and a lossless fabric delivered exactly all of them — a
// flood would have delivered copies to other hosts as well.
func TestPermutationNoFloodsConserved(t *testing.T) {
	e := sim.NewEngine()
	f := MustBuild(e, Spec{K: 4})
	lm := drive(t, f, f.Permutation(), 0.5, sim.Millisecond)
	if lm.Sent == 0 {
		t.Fatal("nothing offered")
	}
	if !lm.Conserved() {
		t.Fatalf("loss not conserved: sent %d delivered %d attributed %d", lm.Sent, lm.Delivered, lm.Attributed())
	}
	if lm.Delivered != lm.Sent {
		t.Fatalf("permutation at 0.5 load lost frames: sent %d delivered %d", lm.Sent, lm.Delivered)
	}
}

// Incast past the fan-in knee must lose frames, and every loss must
// land on the receivers' edge switches: the tier reduction attributes
// all of it to the edge tier and Σ tiers equals the ledger total.
func TestIncastDropsAtEdgeTier(t *testing.T) {
	e := sim.NewEngine()
	f := MustBuild(e, Spec{K: 4})
	lm := drive(t, f, f.Incast(4), 0.9, sim.Millisecond)
	if !lm.Conserved() {
		t.Fatalf("loss not conserved: sent %d delivered %d attributed %d", lm.Sent, lm.Delivered, lm.Attributed())
	}
	if lm.Attributed() == 0 {
		t.Fatal("4:1 incast at 0.9 load dropped nothing")
	}
	tiers := f.TierDrops()
	var sum uint64
	for _, n := range tiers {
		sum += n
	}
	if sum != lm.Attributed() {
		t.Fatalf("tier reduction lost drops: Σ %d, ledger %d", sum, lm.Attributed())
	}
	// Convergence pressure lands mostly on the receivers' edge downlinks
	// (the aggs' own downlinks to those edges absorb the rest; nothing
	// reaches the cores of a 4:1 in-tree incast).
	if tiers[TierEdge] <= tiers[TierAgg] || tiers[TierCore] != 0 {
		t.Fatalf("incast drop profile: edge %d, agg %d, core %d, host %d (attributed %d)",
			tiers[TierEdge], tiers[TierAgg], tiers[TierCore], tiers[TierHost], lm.Attributed())
	}
}

// A trunked fabric (every inter-switch link a 2-cable LAG) builds
// through topo group links and still conserves under permutation load.
func TestTrunkedFabric(t *testing.T) {
	e := sim.NewEngine()
	f := MustBuild(e, Spec{K: 4, Trunk: 2})
	lm := drive(t, f, f.Permutation(), 0.5, sim.Millisecond)
	if !lm.Conserved() || lm.Delivered == 0 {
		t.Fatalf("trunked fabric: sent %d delivered %d attributed %d", lm.Sent, lm.Delivered, lm.Attributed())
	}
}

// senders counts hosts with a non-empty schedule.
func senders(m TrafficMatrix) int {
	n := 0
	for _, d := range m.Dests {
		if len(d) > 0 {
			n++
		}
	}
	return n
}

// Matrix shapes: permutation is a full derangement, incast groups are
// silent-receiver fan-ins, hot-spot aims a quarter of every sender's
// load at host 0.
func TestMatrixShapes(t *testing.T) {
	f := MustBuild(sim.NewEngine(), Spec{K: 4})
	perm := f.Permutation()
	if got := senders(perm); got != len(f.Hosts) {
		t.Fatalf("permutation senders %d, want %d", got, len(f.Hosts))
	}
	for i, d := range perm.Dests {
		if len(d) != 1 || d[0] == i {
			t.Fatalf("permutation host %d → %v", i, d)
		}
		if f.Hosts[i].Pod == f.Hosts[d[0]].Pod {
			t.Fatalf("permutation pair %d→%d stays in pod %d", i, d[0], f.Hosts[i].Pod)
		}
	}
	in := f.Incast(4)
	if got := senders(in); got != 12 {
		t.Fatalf("incast(4) on 16 hosts: %d senders, want 12", got)
	}
	if len(in.Dests[0]) != 0 || len(in.Dests[5]) != 0 {
		t.Fatal("incast receivers must be silent")
	}
	hs := f.HotSpot()
	for i, d := range hs.Dests {
		if i == 0 {
			continue
		}
		hot := 0
		for _, dst := range d {
			if dst == 0 {
				hot++
			}
		}
		want := 1
		if perm.Dests[i][0] == 0 {
			want = hotSpotSlots // host 0 already is its permutation partner
		}
		if len(d) != hotSpotSlots || hot != want {
			t.Fatalf("hot-spot host %d schedule %v", i, d)
		}
	}
}

// Sources compiles a schedule into looping, pool-friendly templates:
// per sender, slots × flowsPerSlot frames, silent hosts nil.
func TestSourcesCompile(t *testing.T) {
	f := MustBuild(sim.NewEngine(), Spec{K: 4})
	srcs := f.Sources(f.Incast(4), 256)
	silent, sending := 0, 0
	for _, s := range srcs {
		if s == nil {
			silent++
			continue
		}
		sending++
		if len(s.Frames) != flowsPerSlot || !s.Loop {
			t.Fatalf("source shape: %d frames, loop %v", len(s.Frames), s.Loop)
		}
		for _, fr := range s.Frames {
			if fr.Size != 256 {
				t.Fatalf("frame size %d, want 256", fr.Size)
			}
		}
	}
	if sending != 12 || silent != 4 {
		t.Fatalf("sources: %d sending / %d silent, want 12/4", sending, silent)
	}
}
