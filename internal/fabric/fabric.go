// Package fabric synthesizes parameterized k-ary fat-tree / folded-Clos
// fabrics into validated topo graphs: a one-line Spec (radix k,
// oversubscription ratio, trunk width) expands into pods of edge and
// aggregation switches under a core layer, with deterministic host
// placement and addressing, every FDB pre-learned (zero flood warm-up),
// ECMP spray groups over the uplink fans, and trunked bundles declared
// as topo group links. Because synthesis goes through topo.Builder, the
// scenario DropLedger, HopTrace stamping and LossMap conservation work
// unchanged on an 80-switch fabric, and the package's tier map reduces
// per-hop drop attribution to the edge/aggregation/core question an
// operator actually asks. Synthesis is pure construction — no traffic,
// no randomness — so two Builds of the same Spec are identical.
package fabric

import (
	"fmt"
	"strings"

	"osnt/internal/netfpga"
	"osnt/internal/packet"
	"osnt/internal/sim"
	"osnt/internal/switchsim"
	"osnt/internal/topo"
	"osnt/internal/wire"
)

// Spec parameterises a k-ary fat-tree. The zero value of every knob
// except K selects the canonical fabric: full bisection (Oversub 1),
// single-cable links (Trunk 1), 10G everywhere.
type Spec struct {
	// K is the switch radix. Must be even and ≥ 4. A k-ary fat-tree has
	// k pods of k/2 edge and (k/2)/Oversub aggregation switches, k²/4
	// hosts per pod (k³/4 total), and (k/2)·(k/2)/Oversub cores:
	// k=4 → 20 switches / 16 hosts, k=8 → 80 switches / 128 hosts.
	K int
	// Oversub is the edge-uplink oversubscription ratio: each edge
	// switch serves k/2 hosts over (k/2)/Oversub uplinks. Must divide
	// k/2. Default 1 (full bisection bandwidth).
	Oversub int
	// Trunk widens every inter-switch link into a w-cable bundle
	// declared as a topo group link (LAG). Default 1.
	Trunk int
	// Rate is the uniform port/link rate. Default 10 Gb/s.
	Rate wire.Rate
	// LinkDelay is the per-cable propagation delay. Default 0.
	LinkDelay sim.Duration
	// Switch is the template for every synthesized switch: lookup and
	// queue knobs are copied verbatim, while Ports, Rate, PortRates and
	// HopID are owned by the synthesizer (topo assigns hop IDs).
	Switch switchsim.Config
}

// Tier classifies a ledger hop for per-tier drop attribution.
type Tier uint8

// The tiers of a synthesized fabric, in drop-table order.
const (
	TierOther Tier = iota // monitors and anything post-Build
	TierEdge
	TierAgg
	TierCore
	TierHost // the host NICs (TX-overflow drops)
	tierCount
)

// String names the tier.
func (t Tier) String() string {
	switch t {
	case TierEdge:
		return "edge"
	case TierAgg:
		return "agg"
	case TierCore:
		return "core"
	case TierHost:
		return "host"
	}
	return "other"
}

// Host is one deterministically placed end station: host (pod, edge,
// slot) is port slot of edge switch (pod, edge), with a MAC and IP
// derived from the coordinates alone.
type Host struct {
	Index, Pod, Edge, Slot int
	Name                   string // tester node name ("h0", "h1", …)
	MAC                    packet.MAC
	IP                     packet.IP4
}

// Fabric is a synthesized fat-tree: the built topology plus the
// placement and tier metadata synthesis derived from the Spec.
type Fabric struct {
	*topo.Topology
	Spec  Spec
	Hosts []Host
	// Switch names by tier, declaration order (= hop-ID order).
	Edges, Aggs, Cores []string

	tierOf []Tier // ledger hop ID → tier
}

func (s *Spec) fill() error {
	if s.K < 4 || s.K%2 != 0 {
		return fmt.Errorf("fabric: radix K must be even and ≥ 4, got %d", s.K)
	}
	if s.K/2 > 255 {
		return fmt.Errorf("fabric: radix %d overflows the addressing plan", s.K)
	}
	if s.Oversub == 0 {
		s.Oversub = 1
	}
	if s.Oversub < 1 || (s.K/2)%s.Oversub != 0 {
		return fmt.Errorf("fabric: oversubscription %d must divide K/2 = %d", s.Oversub, s.K/2)
	}
	if s.Trunk == 0 {
		s.Trunk = 1
	}
	if s.Trunk < 1 {
		return fmt.Errorf("fabric: trunk width %d must be ≥ 1", s.Trunk)
	}
	if s.Rate == 0 {
		s.Rate = wire.Rate10G
	}
	return nil
}

// NumSwitches returns the switch count the spec expands to.
func (s Spec) NumSwitches() int {
	if err := s.fill(); err != nil {
		return 0
	}
	h := s.K / 2
	u := h / s.Oversub
	return s.K*h + s.K*u + u*h
}

// NumHosts returns the host count the spec expands to (K³/4 / Oversub-
// independent).
func (s Spec) NumHosts() int {
	if err := s.fill(); err != nil {
		return 0
	}
	return s.K * s.K / 2 * s.K / 2
}

func edgeName(p, e int) string { return fmt.Sprintf("edge%d.%d", p, e) }
func aggName(p, a int) string  { return fmt.Sprintf("agg%d.%d", p, a) }
func coreName(j, c int) string { return fmt.Sprintf("core%d.%d", j, c) }

// hostMAC derives the station MAC from placement coordinates: locally
// administered, collision-free for any legal radix.
func hostMAC(p, e, s int) packet.MAC {
	return packet.MAC{0x02, 0xfa, 0x00, byte(p), byte(e), byte(s)}
}

// hostIP derives the station address 10.pod.edge.slot+1.
func hostIP(p, e, s int) packet.IP4 {
	return packet.IP4{10, byte(p), byte(e), byte(s + 1)}
}

// Build synthesizes the fat-tree on the engine. The returned Fabric
// embeds the validated topology: every switch is a DUT with a ledger
// hop ID, every host a 1-port tester, every FDB pre-learned so the
// first frame already ECMP-sprays instead of flooding.
func Build(e *sim.Engine, spec Spec) (*Fabric, error) {
	return synth(spec, func(b *topo.Builder) (*topo.Topology, error) { return b.Build(e) })
}

// BuildPartitioned synthesizes the fat-tree across a topo.Partition —
// the sharded-execution spelling of Build. The partition's ShardOf is
// normally Spec.PodShard, which keeps each pod (and its hosts) on one
// shard so only the agg↔core cables cross the cut; those cables carry
// Spec.LinkDelay, which must then be positive (topo rejects zero-delay
// cut edges). A 1-engine partition is exactly Build.
func BuildPartitioned(p topo.Partition, spec Spec) (*Fabric, error) {
	return synth(spec, func(b *topo.Builder) (*topo.Topology, error) { return b.BuildPartitioned(p) })
}

// synth expands the spec into a topo graph, builds it through the given
// terminal operation, and derives the placement/tier metadata.
func synth(spec Spec, build func(*topo.Builder) (*topo.Topology, error)) (*Fabric, error) {
	if err := spec.fill(); err != nil {
		return nil, err
	}
	k := spec.K
	h := k / 2            // hosts per edge, edges per pod, cores per plane
	u := h / spec.Oversub // aggs per pod = uplink fan of an edge = planes
	w := spec.Trunk

	f := &Fabric{Spec: spec}
	b := topo.New()

	// Switch template: the synthesizer owns the shape fields, and every
	// switch gets its own spray salt — correlated ECMP hashes across
	// stages would collapse each agg's spray onto the one core its own
	// ordinal selects (see switchsim.Config.SpraySeed).
	ordinal := uint64(0)
	sw := func(ports int) switchsim.Config {
		cfg := spec.Switch
		cfg.Ports = ports
		cfg.Rate = spec.Rate
		cfg.PortRates = nil
		cfg.HopID = 0
		ordinal++
		cfg.SpraySeed = packet.Mix64(0xfab<<16 | ordinal)
		return cfg
	}

	// Declaration order fixes hop-ID order: edges, then aggs, then
	// cores — so per-tier ledger reductions cover contiguous ID runs —
	// then the host testers.
	for p := 0; p < k; p++ {
		for ed := 0; ed < h; ed++ {
			name := edgeName(p, ed)
			f.Edges = append(f.Edges, name)
			b.DUT(name, sw(h+u*w))
		}
	}
	for p := 0; p < k; p++ {
		for a := 0; a < u; a++ {
			name := aggName(p, a)
			f.Aggs = append(f.Aggs, name)
			b.DUT(name, sw(k*w))
		}
	}
	for j := 0; j < u; j++ {
		for c := 0; c < h; c++ {
			name := coreName(j, c)
			f.Cores = append(f.Cores, name)
			b.DUT(name, sw(k*w))
		}
	}
	for p := 0; p < k; p++ {
		for ed := 0; ed < h; ed++ {
			for s := 0; s < h; s++ {
				host := Host{
					Index: len(f.Hosts), Pod: p, Edge: ed, Slot: s,
					Name: fmt.Sprintf("h%d", len(f.Hosts)),
					MAC:  hostMAC(p, ed, s), IP: hostIP(p, ed, s),
				}
				f.Hosts = append(f.Hosts, host)
				b.Tester(host.Name, netfpga.Config{Ports: 1, Rate: spec.Rate})
			}
		}
	}

	// trunk declares one inter-switch bundle: a plain duplex cable at
	// width 1, a topo group link otherwise.
	trunk := func(from, to string) {
		if w == 1 {
			b.DuplexAt(from, to, spec.Rate, spec.LinkDelay)
		} else {
			b.GroupDuplexAt(from, to, w, spec.Rate, spec.LinkDelay)
		}
	}
	port := func(name string, p int) string { return fmt.Sprintf("%s:%d", name, p) }

	for p := 0; p < k; p++ {
		for ed := 0; ed < h; ed++ {
			edge := edgeName(p, ed)
			// Edge ports [0,h): hosts; [h, h+u·w): uplink a at h+a·w.
			for s := 0; s < h; s++ {
				hostIdx := p*h*h + ed*h + s
				b.DuplexAt(port(f.Hosts[hostIdx].Name, 0), port(edge, s), spec.Rate, spec.LinkDelay)
			}
			// Agg ports [0,h·w): edge ed at ed·w; [h·w, k·w): core uplinks.
			for a := 0; a < u; a++ {
				trunk(port(edge, h+a*w), port(aggName(p, a), ed*w))
			}
		}
		for a := 0; a < u; a++ {
			// Agg a peers with plane a's h cores; core (a,c) gives pod p
			// its port window at p·w.
			for c := 0; c < h; c++ {
				trunk(port(aggName(p, a), h*w+c*w), port(coreName(a, c), p*w))
			}
		}
	}

	tp, err := build(b)
	if err != nil {
		return nil, err
	}
	f.Topology = tp

	// Pre-learn every FDB. learnSpan maps a MAC to a port window of
	// width n: a plain Learn for a single port, an ECMP/LAG group
	// otherwise. Group IDs are cached per (switch, first-port) so each
	// window allocates its group once.
	type span struct {
		sw    *switchsim.Switch
		first int
	}
	gids := make(map[span]int)
	learnSpan := func(dut *switchsim.Switch, mac packet.MAC, first, n int) {
		if n == 1 {
			dut.Learn(mac, first)
			return
		}
		key := span{dut, first}
		gid, ok := gids[key]
		if !ok {
			ports := make([]int, n)
			for i := range ports {
				ports[i] = first + i
			}
			gid = dut.AddGroup(ports...)
			gids[key] = gid
		}
		dut.LearnGroup(mac, gid)
	}

	for p := 0; p < k; p++ {
		for ed := 0; ed < h; ed++ {
			edge := tp.DUT(edgeName(p, ed))
			for _, host := range f.Hosts {
				if host.Pod == p && host.Edge == ed {
					edge.Learn(host.MAC, host.Slot) // local: host port
				} else {
					learnSpan(edge, host.MAC, h, u*w) // remote: spray up
				}
			}
		}
		for a := 0; a < u; a++ {
			agg := tp.DUT(aggName(p, a))
			for _, host := range f.Hosts {
				if host.Pod == p {
					learnSpan(agg, host.MAC, host.Edge*w, w) // down to its edge
				} else {
					learnSpan(agg, host.MAC, h*w, h*w) // spray across cores
				}
			}
		}
	}
	for j := 0; j < u; j++ {
		for c := 0; c < h; c++ {
			core := tp.DUT(coreName(j, c))
			for _, host := range f.Hosts {
				learnSpan(core, host.MAC, host.Pod*w, w) // down to its pod
			}
		}
	}

	// Tier map over the ledger: hop 0 is the unattributed slot, DUT and
	// tester hops carry the node names synthesis chose.
	f.tierOf = make([]Tier, tp.Drops().Hops())
	tag := func(names []string, t Tier) {
		for _, n := range names {
			f.tierOf[tp.Hop(n)] = t
		}
	}
	tag(f.Edges, TierEdge)
	tag(f.Aggs, TierAgg)
	tag(f.Cores, TierCore)
	for _, host := range f.Hosts {
		f.tierOf[tp.Hop(host.Name)] = TierHost
	}
	return f, nil
}

// MustBuild is Build, panicking on a spec or validation error.
func MustBuild(e *sim.Engine, spec Spec) *Fabric {
	f, err := Build(e, spec)
	if err != nil {
		panic(err)
	}
	return f
}

// MustBuildPartitioned is BuildPartitioned, panicking on a spec or
// validation error.
func MustBuildPartitioned(p topo.Partition, spec Spec) *Fabric {
	f, err := BuildPartitioned(p, spec)
	if err != nil {
		panic(err)
	}
	return f
}

// PodShard returns the pod-aligned shard map for an n-shard partition:
// pod p — its edge and aggregation switches and all of its hosts — lands
// on shard p mod n, and core j.c (the c-th core of plane j) on shard
// (j·(k/2) + c) mod n. Host↔edge and edge↔agg cables are therefore
// always intra-shard; only the agg↔core cables cross the cut, and every
// one of them carries Spec.LinkDelay — the structure the synthesizer
// knows is exactly the lookahead-friendly cut. Balanced whenever n
// divides the pod count k (and the core count k²/(4·Oversub)).
//
// The map answers by node name, so it plugs straight into
// shard.Cluster.Partition. Unknown names (there are none in a
// synthesized fabric) map to shard 0.
func (s Spec) PodShard(n int) func(name string) int {
	if err := s.fill(); err != nil {
		panic(err)
	}
	if n < 1 {
		panic(fmt.Sprintf("fabric: PodShard over %d shards", n))
	}
	h := s.K / 2 // hosts per edge, edges per pod, cores per plane
	return func(name string) int {
		var a, b int
		switch {
		case len(name) > 1 && name[0] == 'h' && name[1] != 'o': // "h<i>" but not "host..."
			if _, err := fmt.Sscanf(name, "h%d", &a); err == nil {
				return a / (h * h) % n // host index → pod
			}
		case strings.HasPrefix(name, "edge"):
			if _, err := fmt.Sscanf(name, "edge%d.%d", &a, &b); err == nil {
				return a % n
			}
		case strings.HasPrefix(name, "agg"):
			if _, err := fmt.Sscanf(name, "agg%d.%d", &a, &b); err == nil {
				return a % n
			}
		case strings.HasPrefix(name, "core"):
			if _, err := fmt.Sscanf(name, "core%d.%d", &a, &b); err == nil {
				return (a*h + b) % n
			}
		}
		return 0
	}
}

// HostPort returns host i's single NIC port (generators transmit on it,
// its RxStats/OnReceive are the delivery side).
func (f *Fabric) HostPort(i int) *netfpga.Port {
	return f.Tester(f.Hosts[i].Name).Port(0)
}

// TierOf classifies a ledger hop ID.
func (f *Fabric) TierOf(hop int) Tier {
	if hop < 0 || hop >= len(f.tierOf) {
		return TierOther
	}
	return f.tierOf[hop]
}

// TierDrops reduces the scenario ledger to per-tier totals, indexed by
// Tier. Σ TierDrops == ledger.Total(): the reduction loses nothing, so
// LossMap conservation carries over to the tier view.
func (f *Fabric) TierDrops() [tierCount]uint64 {
	var out [tierCount]uint64
	l := f.Drops()
	for hop := 0; hop < l.Hops(); hop++ {
		out[f.TierOf(hop)] += l.HopTotal(hop)
	}
	return out
}

// Delivered sums the packets every host NIC received.
func (f *Fabric) Delivered() uint64 {
	var n uint64
	for i := range f.Hosts {
		n += f.HostPort(i).RxStats().Packets
	}
	return n
}
