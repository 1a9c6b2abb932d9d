// Package topo is the declarative topology layer: experiments describe a
// measurement scenario as a graph of named nodes and port-to-port edges,
// and the validating builder instantiates every device on one sim.Engine
// and hands back named handles. Separating topology *description* from
// device *construction* (the EvalNet split) turns each new scenario from
// a bespoke page of SetLink calls into a few lines of graph:
//
//	t := topo.New().
//		Tester("osnt", netfpga.Config{}).
//		DUT("sw", switchsim.Config{}).
//		Link("osnt:0", "sw:0").
//		Duplex("osnt:1", "sw:1").
//		MustBuild(engine)
//	card, sw := t.Tester("osnt"), t.DUT("sw")
//
// Node kinds are the vocabulary of the paper's rigs: a Tester is one OSNT
// device (a simulated NetFPGA card, netfpga.Card), a DUT
// is a legacy switch under test (switchsim.Switch), an OFSwitch is an
// OpenFlow switch (ofswitch.Switch), and a Sink is a terminal endpoint
// that counts and releases whatever reaches it. Edges are unidirectional
// "node:port" → "node:port" links with a wire.Rate and propagation delay;
// Duplex declares the two directions of one cable at once.
//
// Build validates the graph before touching the engine: unknown or
// duplicate node names, dangling edge endpoints, out-of-range ports,
// transmit/receive port reuse (a port can head exactly one cable in each
// direction), transmitting sinks, and rate mismatches between an edge and
// the native port rate of either endpoint are all construction-time
// errors, not silent miswirings.
//
// Rates are resolved per port, not per device: a DUT whose switchsim
// config carries PortRates can expose a 40G uplink next to 10G edge
// ports, and each edge must match the rate of the specific ports it
// joins; a cable between ports at different rates is an error. A rate
// boundary lives inside a mixed-rate DUT, which store-and-forwards
// across it. DUTs are also assigned
// sequential hop IDs (1, 2, ... in declaration order, unless the config
// pins one), so chains of switches stamp per-hop egress timestamps into
// every frame's wire.HopTrace and latency decomposes hop by hop.
package topo

import (
	"fmt"
	"strconv"
	"strings"

	"osnt/internal/mon"
	"osnt/internal/netfpga"
	"osnt/internal/ofswitch"
	"osnt/internal/sim"
	"osnt/internal/stats"
	"osnt/internal/switchsim"
	"osnt/internal/wire"
)

// kind discriminates node types.
type kind int

const (
	kindTester kind = iota
	kindDUT
	kindOFSwitch
	kindSink
)

func (k kind) String() string {
	switch k {
	case kindTester:
		return "tester"
	case kindDUT:
		return "dut"
	case kindOFSwitch:
		return "ofswitch"
	default:
		return "sink"
	}
}

// node is one declared vertex of the scenario graph.
type node struct {
	name      string
	kind      kind
	testerCfg netfpga.Config
	dutCfg    switchsim.Config
	ofCfg     ofswitch.Config

	// hop is the node's loss-ledger hop ID (for DUTs it equals the
	// HopTrace hop ID, so latency decomposition and loss attribution
	// share a namespace).
	hop int

	// shard is the engine index the node was instantiated on (0 for
	// single-engine builds).
	shard int

	// instantiated handles (one of these, post-Build). The sink lives in
	// the node itself: one allocation per node, not two.
	tester *netfpga.Card
	dut    *switchsim.Switch
	of     *ofswitch.Switch
	sink   Sink
}

// Edge is one unidirectional link of the scenario graph. From and To are
// "node" or "node:port" references (the port defaults to 0).
type Edge struct {
	From, To string
	// Rate is the link speed; 0 inherits the endpoints' native port rate
	// (which must then agree).
	Rate wire.Rate
	// Delay is the propagation delay.
	Delay sim.Duration
}

// Builder accumulates a scenario graph. Declaration order is preserved:
// nodes are instantiated and edges wired in the order they were added, so
// a topology description is also a deterministic construction recipe.
type Builder struct {
	nodes  []*node
	byName map[string]*node
	edges  []Edge
	groups []groupDecl
	errs   []error
	built  bool
}

// groupDecl records one Group declaration: its member edges live at
// edges[start:start+n], and Build additionally checks that all members
// resolve to one rate (ECMP members must be equal-cost).
type groupDecl struct {
	from, to string
	start, n int
}

// New returns an empty scenario graph. Capacities cover the common rigs
// so declaring one costs a handful of allocations, cheap enough to build
// a fresh graph per sweep point.
func New() *Builder {
	return &Builder{
		byName: make(map[string]*node, 8),
		nodes:  make([]*node, 0, 8),
		edges:  make([]Edge, 0, 8),
	}
}

func (b *Builder) addNode(n *node) *Builder {
	if n.name == "" {
		b.errs = append(b.errs, fmt.Errorf("topo: %s node with empty name", n.kind))
		return b
	}
	if strings.Contains(n.name, ":") {
		b.errs = append(b.errs, fmt.Errorf("topo: node name %q contains ':'", n.name))
		return b
	}
	if _, dup := b.byName[n.name]; dup {
		b.errs = append(b.errs, fmt.Errorf("topo: duplicate node name %q", n.name))
		return b
	}
	b.byName[n.name] = n
	b.nodes = append(b.nodes, n)
	return b
}

// Tester declares one OSNT tester (a simulated NetFPGA card).
func (b *Builder) Tester(name string, cfg netfpga.Config) *Builder {
	return b.addNode(&node{name: name, kind: kindTester, testerCfg: cfg})
}

// DUT declares one legacy switch under test.
func (b *Builder) DUT(name string, cfg switchsim.Config) *Builder {
	return b.addNode(&node{name: name, kind: kindDUT, dutCfg: cfg})
}

// OFSwitch declares one OpenFlow switch under test.
func (b *Builder) OFSwitch(name string, cfg ofswitch.Config) *Builder {
	return b.addNode(&node{name: name, kind: kindOFSwitch, ofCfg: cfg})
}

// Sink declares a terminal endpoint that counts and releases every frame
// delivered to it (port 0, receive only).
func (b *Builder) Sink(name string) *Builder {
	return b.addNode(&node{name: name, kind: kindSink})
}

// Link declares a unidirectional edge from → to at the endpoints' native
// rate with zero delay.
func (b *Builder) Link(from, to string) *Builder {
	b.edges = append(b.edges, Edge{From: from, To: to})
	return b
}

// LinkAt is Link with an explicit rate and propagation delay.
func (b *Builder) LinkAt(from, to string, rate wire.Rate, delay sim.Duration) *Builder {
	b.edges = append(b.edges, Edge{From: from, To: to, Rate: rate, Delay: delay})
	return b
}

// Duplex declares the two unidirectional edges of one full-duplex cable
// between a and c.
func (b *Builder) Duplex(a, c string) *Builder {
	return b.Link(a, c).Link(c, a)
}

// DuplexAt is Duplex with an explicit rate and propagation delay.
func (b *Builder) DuplexAt(a, c string, rate wire.Rate, delay sim.Duration) *Builder {
	return b.LinkAt(a, c, rate, delay).LinkAt(c, a, rate, delay)
}

// offsetRef shifts the port of a "node" or "node:port" reference by k
// (the port defaults to 0). Malformed references pass through unchanged
// so edge validation reports them with the usual message.
func offsetRef(ref string, k int) string {
	name, portStr, hasPort := strings.Cut(ref, ":")
	port := 0
	if hasPort {
		p, err := strconv.Atoi(portStr)
		if err != nil || p < 0 {
			return ref
		}
		port = p
	}
	return name + ":" + strconv.Itoa(port+k)
}

// Group declares n parallel unidirectional edges from → to — a
// multi-edge group link, the fabric idiom for N×uplink bundles: member
// k joins from's port+k to to's port+k. Every member is validated
// exactly like a single edge (port ranges, reuse, rate agreement) and a
// failing member reports its own index and ports, and all members must
// resolve to one rate — ECMP spraying across the bundle
// (switchsim.AddGroup over the same ports) assumes equal-cost members.
// n must be at least 2.
func (b *Builder) Group(from, to string, n int) *Builder {
	return b.GroupAt(from, to, n, 0, 0)
}

// GroupAt is Group with an explicit per-member rate and propagation
// delay — the spelling fabric synthesis uses for trunked bundles whose
// cables carry a delay.
func (b *Builder) GroupAt(from, to string, n int, rate wire.Rate, delay sim.Duration) *Builder {
	if n < 2 {
		b.errs = append(b.errs, fmt.Errorf("topo: group link %s → %s needs ≥2 members, got %d", from, to, n))
		return b
	}
	b.groups = append(b.groups, groupDecl{from: from, to: to, start: len(b.edges), n: n})
	for k := 0; k < n; k++ {
		b.edges = append(b.edges, Edge{From: offsetRef(from, k), To: offsetRef(to, k), Rate: rate, Delay: delay})
	}
	return b
}

// GroupDuplexAt declares the two directions of an n-wide group link: n
// parallel cables between a's ports a..a+n-1 and c's ports c..c+n-1, at
// an explicit per-member rate and propagation delay.
func (b *Builder) GroupDuplexAt(a, c string, n int, rate wire.Rate, delay sim.Duration) *Builder {
	return b.GroupAt(a, c, n, rate, delay).GroupAt(c, a, n, rate, delay)
}

// memberContext locates edge index idx inside a group declaration and
// returns the "group link … member k" error prefix, or "" for plain
// edges. A k-wide synthesized bundle that fails validation must say
// *which member* (and therefore which concrete ports) is wrong — on an
// 80-switch fabric, "group link agg0.1:8 → core3:0 member 3" is the
// difference between a debuggable error and a guess.
func (b *Builder) memberContext(idx int) string {
	for _, g := range b.groups {
		if idx >= g.start && idx < g.start+g.n {
			return fmt.Sprintf("group link %s → %s member %d: ", g.from, g.to, idx-g.start)
		}
	}
	return ""
}

// endpoint is one resolved side of an edge.
type endpoint struct {
	n    *node
	port int
}

// resolveRef parses a "node" or "node:port" reference against a name
// index and range-checks the port against the instantiated device — the
// single implementation of the reference grammar, shared by edge
// validation and Topology.Port.
func resolveRef(byName map[string]*node, ref string) (endpoint, error) {
	name, portStr, hasPort := strings.Cut(ref, ":")
	n, ok := byName[name]
	if !ok {
		return endpoint{}, fmt.Errorf("topo: reference to unknown node %q", name)
	}
	port := 0
	if hasPort {
		p, err := strconv.Atoi(portStr)
		if err != nil || p < 0 {
			return endpoint{}, fmt.Errorf("topo: bad port in reference %q", ref)
		}
		port = p
	}
	if port >= n.numPorts() {
		return endpoint{}, fmt.Errorf("topo: %s %q has %d port(s), reference %q out of range",
			n.kind, n.name, n.numPorts(), ref)
	}
	return endpoint{n: n, port: port}, nil
}

// numPorts is the instantiated device's port count; nodes are built
// before edges are validated, so the device constructors' own config
// defaulting is the single source of truth.
func (n *node) numPorts() int {
	switch n.kind {
	case kindTester:
		return n.tester.NumPorts()
	case kindDUT:
		return n.dut.NumPorts()
	case kindOFSwitch:
		return n.of.NumPorts()
	default:
		return 1
	}
}

// rateAt is the instantiated device's native rate for one specific port,
// or 0 when the node accepts any rate (sinks). DUTs may run mixed-rate
// ports (switchsim PortRates); testers and OpenFlow switches are uniform.
func (n *node) rateAt(port int) wire.Rate {
	switch n.kind {
	case kindTester:
		return n.tester.Rate()
	case kindDUT:
		return n.dut.PortRate(port)
	case kindOFSwitch:
		return n.of.Rate()
	default:
		return 0
	}
}

// rxEndpoint returns the wire.Endpoint frames delivered to this node port
// land on (valid after instantiation).
func (n *node) rxEndpoint(port int) wire.Endpoint {
	switch n.kind {
	case kindTester:
		return n.tester.Port(port)
	case kindDUT:
		return n.dut.Port(port)
	case kindOFSwitch:
		return n.of.Port(port)
	default:
		return &n.sink
	}
}

// setLink attaches the egress link to this node port (valid after
// instantiation; sinks cannot transmit, which validation rejects first).
func (n *node) setLink(port int, l *wire.Link) {
	switch n.kind {
	case kindTester:
		n.tester.Port(port).SetLink(l)
	case kindDUT:
		n.dut.Port(port).SetLink(l)
	case kindOFSwitch:
		n.of.Port(port).SetLink(l)
	}
}

func validationError(errs []error) error {
	msgs := make([]string, len(errs))
	for i, err := range errs {
		msgs[i] = err.Error()
	}
	return fmt.Errorf("topo: invalid scenario graph:\n  %s", strings.Join(msgs, "\n  "))
}

// Partition describes how to split a scenario graph across several
// engines — the topology side of sharded (conservative-lookahead)
// execution. Engines lists one sim.Engine per shard; ShardOf maps a node
// name to its shard index; CrossLink builds the boundary link for an
// edge whose endpoints landed on different shards (typically
// shard.Cluster.CrossLink, which turns the edge into an export channel
// drained at window barriers). With a single engine the other two fields
// are unused and BuildPartitioned degenerates to exactly Build.
type Partition struct {
	// Engines holds one engine per shard; len(Engines) is the shard
	// count and must be ≥ 1.
	Engines []*sim.Engine
	// ShardOf maps a node name to its shard in [0, len(Engines)).
	// Required when len(Engines) > 1.
	ShardOf func(name string) int
	// CrossLink builds the egress link for a cross-shard edge: src and
	// dst are the shard indices, e is the transmitting shard's engine,
	// and peer is the receiving device's endpoint (owned by shard dst —
	// the link must not deliver into it directly). Required when
	// len(Engines) > 1.
	CrossLink func(src, dst int, e *sim.Engine, rate wire.Rate, delay sim.Duration, peer wire.Endpoint) *wire.Link
}

// Build validates the graph and instantiates it on engine e: every node
// becomes a device, every edge a wire.Link. Node-declaration errors are
// reported before anything is built; edge errors are reported all at
// once (the devices already exist then, but nothing is wired and no
// event is scheduled, so a failed Build leaves the engine inert). Build
// is the builder's terminal operation: the resulting Topology owns the
// node handles, so building the same graph on a second engine requires
// declaring it again.
func (b *Builder) Build(e *sim.Engine) (*Topology, error) {
	return b.BuildPartitioned(Partition{Engines: []*sim.Engine{e}})
}

// BuildPartitioned is Build across a Partition: every node is
// instantiated on its shard's engine, intra-shard edges become ordinary
// wire.Links on that engine, and cross-shard edges go through
// p.CrossLink. Hop IDs are assigned globally (the same numbering a
// single-shard build produces), but each device reports drops into a
// private per-shard ledger so the hot path never crosses a shard;
// Topology.Drops merges them back into the single-shard view.
//
// A cross-shard edge with zero propagation delay is a validation error:
// the delay of the cut edges is the conservative-lookahead budget that
// lets shards advance in parallel, and a zero-delay cut would force the
// window to zero width. (Intra-shard edges may keep zero delay.)
func (b *Builder) BuildPartitioned(p Partition) (*Topology, error) {
	if b.built {
		return nil, fmt.Errorf("topo: Build called twice on one Builder (declare the graph again for a second engine)")
	}
	if len(p.Engines) == 0 {
		return nil, validationError([]error{fmt.Errorf("topo: partition has no engines")})
	}
	single := len(p.Engines) == 1
	if !single && (p.ShardOf == nil || p.CrossLink == nil) {
		return nil, validationError([]error{fmt.Errorf("topo: a %d-shard partition needs ShardOf and CrossLink", len(p.Engines))})
	}
	if len(b.errs) > 0 {
		return nil, validationError(b.errs)
	}

	// Assign shards before instantiation (devices must be constructed on
	// their own engine). A ShardOf out of range is a description error.
	if !single {
		for _, n := range b.nodes {
			s := p.ShardOf(n.name)
			if s < 0 || s >= len(p.Engines) {
				return nil, validationError([]error{fmt.Errorf("topo: ShardOf(%q) = %d, outside [0, %d)",
					n.name, s, len(p.Engines))})
			}
			n.shard = s
		}
	}

	// DUTs get sequential hop IDs (1-based, declaration order) unless
	// their config pins one, so chain rigs stamp per-hop traces without
	// per-experiment bookkeeping. Pinned IDs are claimed first — two
	// devices stamping the same Hop.Node would silently merge their
	// latency in every decomposition, so a clash is a validation error
	// and the auto-assigner skips claimed values.
	pinned := make(map[int]string)
	for _, n := range b.nodes {
		if n.kind != kindDUT || n.dutCfg.HopID == 0 {
			continue
		}
		if prev, dup := pinned[n.dutCfg.HopID]; dup {
			return nil, validationError([]error{fmt.Errorf("topo: DUTs %q and %q both pin hop ID %d",
				prev, n.name, n.dutCfg.HopID)})
		}
		pinned[n.dutCfg.HopID] = n.name
	}

	// Instantiate nodes in declaration order before validating edges, so
	// port counts and rates come from the devices themselves (the
	// constructors' config defaulting is the single source of truth).
	// Construction schedules nothing, so this order only fixes handle
	// identity, never event timing.
	nextHop := 1
	for _, n := range b.nodes {
		e := p.Engines[n.shard]
		switch n.kind {
		case kindTester:
			n.tester = netfpga.New(e, n.testerCfg)
		case kindDUT:
			cfg := n.dutCfg
			if cfg.HopID == 0 {
				for pinned[nextHop] != "" {
					nextHop++
				}
				cfg.HopID = nextHop
				nextHop++
			}
			n.hop = cfg.HopID
			n.dut = switchsim.New(e, cfg)
		case kindOFSwitch:
			n.of = ofswitch.New(e, n.ofCfg)
		}
	}

	// Thread the scenario's loss-attribution ledger, the way hop IDs
	// thread the latency trace: DUTs report drops under their HopTrace
	// hop ID (so per-hop loss and per-hop latency line up), then every
	// other device that can lose frames — OpenFlow switches, tester
	// cards, and later each attached monitor — registers at the next
	// free hop in declaration order.
	//
	// Sharded builds keep that numbering global (drops stays the
	// assignment authority) but give every shard a private ledger
	// holding only its own devices' labels and counts: reporting a drop
	// is then a plain array increment with no cross-shard write, and
	// Topology.Drops merges the shards back into the single view.
	drops := &wire.DropLedger{}
	ledgers := make([]*wire.DropLedger, len(p.Engines))
	if single {
		ledgers[0] = drops
	} else {
		for i := range ledgers {
			ledgers[i] = &wire.DropLedger{}
		}
	}
	register := func(n *node) {
		if !single {
			ledgers[n.shard].Register(n.hop, n.name)
		}
	}
	for _, n := range b.nodes {
		if n.kind == kindDUT {
			drops.Register(n.hop, n.name)
			register(n)
			n.dut.SetDropSite(ledgers[n.shard], n.hop)
		}
	}
	for _, n := range b.nodes {
		switch n.kind {
		case kindOFSwitch:
			n.hop = drops.Add(n.name)
			register(n)
			n.of.SetDropSite(ledgers[n.shard], n.hop)
		case kindTester:
			n.hop = drops.Add(n.name)
			register(n)
			n.tester.SetDropSite(ledgers[n.shard], n.hop)
		}
	}

	var errs []error
	type resolved struct {
		from, to endpoint
		rate     wire.Rate
		delay    sim.Duration
	}
	// Port-reuse detection scans the already-resolved edges: graphs are a
	// few dozen edges at most, and a linear scan keeps the per-Build
	// footprint small enough for tight sweep loops (one Build per point).
	wires := make([]resolved, 0, len(b.edges))

	for idx, edge := range b.edges {
		// fail records a validation error; a group-member edge is
		// re-prefixed so the message names the failing member, not just
		// the bundle.
		fail := func(err error) {
			if ctx := b.memberContext(idx); ctx != "" {
				err = fmt.Errorf("topo: %s%s", ctx, strings.TrimPrefix(err.Error(), "topo: "))
			}
			errs = append(errs, err)
		}
		from, errF := resolveRef(b.byName, edge.From)
		to, errT := resolveRef(b.byName, edge.To)
		if errF != nil {
			fail(errF)
		}
		if errT != nil {
			fail(errT)
		}
		if errF != nil || errT != nil {
			continue
		}
		if from.n.kind == kindSink {
			fail(fmt.Errorf("topo: sink %q cannot transmit (edge %s → %s)",
				from.n.name, edge.From, edge.To))
			continue
		}
		dup := false
		for _, w := range wires {
			if w.from == from {
				fail(fmt.Errorf("topo: transmit port %s:%d used by two edges",
					from.n.name, from.port))
				dup = true
				break
			}
			if w.to == to {
				fail(fmt.Errorf("topo: receive port %s:%d fed by two edges",
					to.n.name, to.port))
				dup = true
				break
			}
		}
		if dup {
			continue
		}

		// Resolve the link rate and demand agreement with both endpoints'
		// native port rates: a 40G fibre into a 10G MAC is a miswiring.
		// Rates resolve per port (a mixed-rate DUT exposes different
		// rates on different ports).
		rate := edge.Rate
		fromRate := from.n.rateAt(from.port)
		toRate := to.n.rateAt(to.port)
		if fromRate != 0 && toRate != 0 && fromRate != toRate {
			fail(fmt.Errorf("topo: edge %s → %s joins %s %q at %v to %s %q at %v",
				edge.From, edge.To, from.n.kind, from.n.name, fromRate, to.n.kind, to.n.name, toRate))
			continue
		}
		for _, native := range []wire.Rate{fromRate, toRate} {
			if native == 0 {
				continue
			}
			if rate == 0 {
				rate = native
			} else if rate != native {
				fail(fmt.Errorf("topo: edge %s → %s at %v, but its ports run at %v",
					edge.From, edge.To, rate, native))
				break
			}
		}
		if rate == 0 {
			rate = wire.Rate10G // sink-to-sink never happens; belt and braces
		}
		// A cut edge with no propagation delay would give the shard pair
		// zero lookahead: the receiving shard could never advance without
		// risking a same-instant arrival from its neighbour. Demand the
		// delay at build time rather than deadlock (or diverge) at run
		// time.
		if from.n.shard != to.n.shard && edge.Delay <= 0 {
			fail(fmt.Errorf("topo: cross-shard edge %s → %s (shard %d → %d) has zero propagation delay; cut edges need a positive delay (the conservative-lookahead budget)",
				edge.From, edge.To, from.n.shard, to.n.shard))
			continue
		}
		wires = append(wires, resolved{from: from, to: to, rate: rate, delay: edge.Delay})
	}

	// Group members must be equal-cost: ECMP spraying across a bundle
	// whose members run at different rates would silently weight flows
	// by hash luck, so a mixed-rate group is a construction error.
	for _, g := range b.groups {
		var rate wire.Rate
		for k := 0; k < g.n; k++ {
			from, err := resolveRef(b.byName, b.edges[g.start+k].From)
			if err != nil {
				break // already reported by the edge loop
			}
			r := from.n.rateAt(from.port)
			if k == 0 {
				rate = r
			} else if r != rate {
				errs = append(errs, fmt.Errorf("topo: group link %s → %s mixes member rates: member 0 (%s) at %v, member %d (%s) at %v",
					g.from, g.to, b.edges[g.start].From, rate, k, b.edges[g.start+k].From, r))
				break
			}
		}
	}

	if len(errs) > 0 {
		return nil, validationError(errs)
	}

	// Delivery keys: every positive-delay link gets a unique structural
	// key, assigned in edge-declaration order. Same-instant arrivals at a
	// device then fire in cable order — a property of the wiring alone.
	// The edge walk is identical at every shard count, so the keys (and
	// with them every same-instant ordering decision) are partition
	// independent: the foundation of the byte-identical-digests contract.
	// Zero-delay links keep wire's default (plain FIFO), which preserves
	// the historical event order of every delay-free topology exactly.
	deliveryKey := uint64(1)
	for _, w := range wires {
		peer := w.to.n.rxEndpoint(w.to.port)
		var l *wire.Link
		if w.from.n.shard == w.to.n.shard {
			l = wire.NewLink(p.Engines[w.from.n.shard], w.rate, w.delay, peer)
		} else {
			l = p.CrossLink(w.from.n.shard, w.to.n.shard, p.Engines[w.from.n.shard], w.rate, w.delay, peer)
		}
		if w.delay > 0 {
			l.SetDeliveryKey(deliveryKey)
			deliveryKey++
		}
		w.from.n.setLink(w.from.port, l)
	}

	// The topology takes over the builder's name index; the built flag
	// keeps a stale Builder from re-pointing these handles elsewhere.
	b.built = true
	t := &Topology{Engine: p.Engines[0], byName: b.byName, drops: drops}
	if !single {
		t.ledgers = ledgers
	}
	return t, nil
}

// MustBuild is Build, panicking on validation errors — the spelling for
// experiment rigs whose graphs are static.
func (b *Builder) MustBuild(e *sim.Engine) *Topology {
	t, err := b.Build(e)
	if err != nil {
		panic(err)
	}
	return t
}

// Topology is an instantiated scenario graph: named handles onto the
// devices living on one engine (or, for partitioned builds, one engine
// per shard — Engine then holds shard 0's).
type Topology struct {
	Engine *sim.Engine

	byName map[string]*node
	drops  *wire.DropLedger
	// ledgers holds the per-shard drop ledgers of a partitioned build
	// (nil for single-engine builds, where drops is the one ledger).
	ledgers []*wire.DropLedger
}

// Drops returns the scenario's loss-attribution ledger: every device
// Build instantiated (and every monitor attached through
// AttachMonitor) reports its discarded frames into it as (hop, reason),
// so sent = delivered + Σ ledger drops holds across the whole graph.
// stats.NewLossMap reduces it to the printable per-hop table.
//
// On a partitioned build each shard owns a private ledger and Drops
// merges them into a fresh snapshot under the global hop numbering —
// byte-identical to what a single-shard build of the same graph reports.
// Take the snapshot only while no shard is running (after the cluster's
// barriers), and re-call it for fresh counts.
func (t *Topology) Drops() *wire.DropLedger {
	if t.ledgers == nil {
		return t.drops
	}
	m := &wire.DropLedger{}
	m.Merge(t.drops) // global labels, zero counts
	for _, l := range t.ledgers {
		m.Merge(l)
	}
	return m
}

// Shard returns the shard index a node was instantiated on (0 for
// single-engine builds).
func (t *Topology) Shard(name string) int {
	n, ok := t.byName[name]
	if !ok {
		panic(fmt.Sprintf("topo: no node %q", name))
	}
	return n.shard
}

// Hop returns a node's loss-ledger hop ID (for DUTs, also its HopTrace
// hop ID).
func (t *Topology) Hop(name string) int {
	n, ok := t.byName[name]
	if !ok {
		panic(fmt.Sprintf("topo: no node %q", name))
	}
	return n.hop
}

func (t *Topology) node(name string, k kind) *node {
	n, ok := t.byName[name]
	if !ok {
		panic(fmt.Sprintf("topo: no node %q", name))
	}
	if n.kind != k {
		panic(fmt.Sprintf("topo: node %q is a %s, not a %s", name, n.kind, k))
	}
	return n
}

// Tester returns the named OSNT tester's card.
func (t *Topology) Tester(name string) *netfpga.Card { return t.node(name, kindTester).tester }

// DUT returns the named legacy switch.
func (t *Topology) DUT(name string) *switchsim.Switch { return t.node(name, kindDUT).dut }

// OFSwitch returns the named OpenFlow switch.
func (t *Topology) OFSwitch(name string) *ofswitch.Switch { return t.node(name, kindOFSwitch).of }

// Sink returns the named sink.
func (t *Topology) Sink(name string) *Sink { return &t.node(name, kindSink).sink }

// Port resolves a "tester:port" reference to the card port, the handle
// gen.New and mon.Attach take. References are held to exactly the
// grammar Build validates (see resolveRef); a bad one panics with a
// topo-level message.
func (t *Topology) Port(ref string) *netfpga.Port {
	ep, err := resolveRef(t.byName, ref)
	if err != nil {
		panic(err.Error())
	}
	if ep.n.kind != kindTester {
		panic(fmt.Sprintf("topo: node %q is a %s, not a tester", ep.n.name, ep.n.kind))
	}
	return ep.n.tester.Port(ep.port)
}

// AttachMonitor attaches a capture engine to a tester port declared in
// the graph — the mon.Attach spelling for declarative rigs. The monitor
// configuration is validated per node: mon.New rejects negative ring or
// host-cost parameters, and a queue count beyond the card's per-port DMA
// budget (netfpga.Config.CaptureQueues) is a configuration error here,
// not a silent truncation. Invalid references or configs panic with a
// topo-level message, like Port and MustBuild.
func (t *Topology) AttachMonitor(ref string, cfg mon.Config) *mon.Monitor {
	m, err := mon.New(t.Port(ref), cfg)
	if err != nil {
		panic(fmt.Sprintf("topo: monitor on %s: %v", ref, err))
	}
	// The monitor is a loss point of its own (filter rejects, DMA ring
	// overflow): register it on the scenario ledger in attach order. On a
	// partitioned build the hop ID still comes from the global numbering,
	// but the counts land on the monitored port's shard ledger.
	hop := t.drops.Add("mon:" + ref)
	ledger := t.drops
	if t.ledgers != nil {
		ep, _ := resolveRef(t.byName, ref) // t.Port above already validated ref
		ledger = t.ledgers[ep.n.shard]
		ledger.Register(hop, "mon:"+ref)
	}
	m.SetDropSite(ledger, hop)
	return m
}

// Sink is a terminal endpoint: it counts every delivered frame and
// releases it back to its pool. Experiments read the counters after the
// run.
type Sink struct {
	received stats.Counter
}

// Receive implements wire.Endpoint: one delivery counts and releases the
// whole run.
func (s *Sink) Receive(r wire.Run, _, _ sim.Time) {
	for i := 0; i < r.Len(); i++ {
		s.received.Add(wire.WireBytes(r.Frame(i).Size))
	}
	r.Release()
}

// Received returns counters over the delivered frames (wire bytes).
func (s *Sink) Received() stats.Counter { return s.received }
