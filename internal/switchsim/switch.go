// Package switchsim models the legacy Ethernet switches OSNT's demo
// measures: a learning switch with a shared lookup/fabric pipeline,
// bounded output queues, and a choice of store-and-forward or cut-through
// forwarding. The model is parametric so every latency-vs-load curve in
// the experiments has controlled ground truth.
//
// Packet latency through the model decomposes exactly as on real
// hardware: ingress serialisation (store-and-forward only) + pipeline
// latency + lookup service (per-ingress server; queueing appears when the
// offered packet rate approaches its capacity, slightly above line rate)
// + egress queueing + egress serialisation.
package switchsim

import (
	"fmt"

	"osnt/internal/packet"
	"osnt/internal/ring"
	"osnt/internal/sim"
	"osnt/internal/stats"
	"osnt/internal/wire"
)

// ForwardingMode selects when the switch may start transmitting a frame.
type ForwardingMode int

// Forwarding modes.
const (
	// StoreAndForward waits for the full frame before the lookup.
	StoreAndForward ForwardingMode = iota
	// CutThrough starts the lookup as soon as the 64-byte header window
	// has arrived.
	CutThrough
)

// String names the mode.
func (m ForwardingMode) String() string {
	if m == CutThrough {
		return "cut-through"
	}
	return "store-and-forward"
}

// cutThroughWindow is the bytes a cut-through switch must receive before
// it can make a forwarding decision.
const cutThroughWindow = 64

// Config parameterises a switch.
type Config struct {
	// Ports is the port count (default 4).
	Ports int
	// Rate is the per-port line rate (default 10 Gb/s).
	Rate wire.Rate
	// PortRates overrides Rate per port: entry i (0 = inherit Rate) is
	// port i's rate. A switch whose ports run at different rates performs
	// store-and-forward speed conversion: a frame entering a 10G port
	// bound for a 40G uplink (or the reverse) is fully received before it
	// is forwarded, and the egress FIFO drains at the egress port's own
	// rate, so fan-in overload shows up as bounded queueing delay and
	// then tail drop instead of a modelling artefact.
	PortRates []wire.Rate
	// HopID, when non-zero, makes the switch stamp every forwarded
	// frame's hop trace with this ID at the instant its last bit leaves
	// the egress port (wire.HopTrace). internal/topo assigns DUTs
	// sequential IDs so multi-switch chains decompose latency per hop.
	HopID int
	// Mode selects store-and-forward (default) or cut-through.
	Mode ForwardingMode
	// PipelineLatency is the fixed parse/lookup/fabric delay every packet
	// experiences regardless of load (default 450 ns, a typical ToR
	// figure). It is pipelined: it adds latency but consumes no
	// throughput.
	PipelineLatency sim.Duration
	// LookupPerPacket is the per-packet service time of each ingress
	// lookup engine (default 20 ns); together with LookupPerByte it sets
	// the pipeline's capacity.
	LookupPerPacket sim.Duration
	// LookupPerByte adds a per-byte service cost; the default (0.76 ns/B,
	// ≈5% fabric overspeed at 10G) makes the pipeline saturate just
	// above line rate, producing the classic latency hockey stick.
	LookupPerByte sim.Duration
	// LookupJitter adds uniform noise to each lookup service time: a
	// value j draws the service from [1-j, 1+j] times the mean. Real
	// lookup engines (hash probes, TCAM arbitration) are not perfectly
	// deterministic; jitter is what turns queueing near saturation into
	// the gradual latency rise measured on real devices. Default 0
	// (deterministic), opt in per experiment.
	LookupJitter float64
	// Seed feeds the jitter random stream.
	Seed uint64
	// SpraySeed salts the ECMP spray hash. On a multi-stage fabric
	// every switch hashing the same headers the same way is a
	// pathology: a flow that picked uplink m at the first stage picks
	// member m again at the next, so equal-width sprays collapse onto
	// one downstream path. Giving each switch its own salt (as real
	// fabrics seed their hash functions per device) decorrelates the
	// stages. Default 0 — a single spraying switch needs no salt, and
	// existing single-stage rigs are unchanged.
	SpraySeed uint64
	// LookupQueueCap bounds each ingress lookup queue in packets (default
	// 512); overflow is dropped and counted.
	LookupQueueCap int
	// EgressQueueCap bounds each output queue in packets (default 512).
	EgressQueueCap int
}

func (c *Config) fill() {
	if c.Ports == 0 {
		c.Ports = 4
	}
	if c.Rate == 0 {
		c.Rate = wire.Rate10G
	}
	if c.PipelineLatency == 0 {
		c.PipelineLatency = 450 * sim.Nanosecond
	}
	if c.LookupPerPacket == 0 {
		c.LookupPerPacket = 20 * sim.Nanosecond
	}
	if c.LookupPerByte == 0 {
		c.LookupPerByte = sim.Picoseconds(760)
	}
	if c.LookupQueueCap == 0 {
		c.LookupQueueCap = 512
	}
	if c.EgressQueueCap == 0 {
		c.EgressQueueCap = 512
	}
}

// Switch is one simulated device under test.
type Switch struct {
	Engine *sim.Engine

	cfg   Config
	ports []*Port
	fdb   map[packet.MAC]int
	rand  *sim.Rand

	// ECMP groups: groups[g-1] is the member port list of group g
	// (1-based, AddGroup order); groupOf[p] is the group containing
	// port p, 0 when ungrouped. The FDB stores a group destination as
	// the negative id -g.
	groups  [][]int
	groupOf []int
	sprays  uint64

	lookupDrops uint64
	forwarded   stats.Counter

	// Loss attribution: every drop path reports (dropHop, reason) into
	// the scenario ledger when one is attached (topo threads it with
	// the same hop ID that stamps the HopTrace). Egress overflows report
	// through each port's Egress, which carries the same site.
	ledger  *wire.DropLedger
	dropHop int
}

// pendingLookup is one run whose lookup is in flight: a bare frame, or a
// coalesced uniform train occupying one FIFO entry. lastBit and readyAt
// are the FIRST frame's instants and span is the per-frame ingress
// occupancy, so every later frame's instants follow arithmetically
// (lastBit_k = lastBit + k·span, readyAt_k = readyAt + k·span — exact
// because a train is admitted only when service ≤ span, see
// trainViable).
type pendingLookup struct {
	run     wire.Run
	inPort  int
	lastBit sim.Time     // frame fully received at the ingress MAC
	span    sim.Duration // ingress wire occupancy (lastBit - firstBit)
	readyAt sim.Time     // decision + pipeline latency complete
}

// New builds a switch on the engine.
func New(e *sim.Engine, cfg Config) *Switch {
	cfg.fill()
	if len(cfg.PortRates) > cfg.Ports {
		panic(fmt.Sprintf("switchsim: %d per-port rates for %d ports", len(cfg.PortRates), cfg.Ports))
	}
	s := &Switch{
		Engine:  e,
		cfg:     cfg,
		fdb:     make(map[packet.MAC]int),
		rand:    sim.NewRand(cfg.Seed ^ 0x5057),
		groupOf: make([]int, cfg.Ports),
	}
	for i := 0; i < cfg.Ports; i++ {
		p := &Port{sw: s, index: i}
		p.mac.Init(e, cfg.EgressQueueCap, p)
		p.lookupEv = sim.NewEvent(p.lookupDone)
		s.ports = append(s.ports, p)
	}
	return s
}

// SetDropSite attaches the scenario's loss-attribution ledger; every
// drop path on the switch reports at the given hop ID (topo passes the
// same ID that stamps the hop trace, so loss attribution and latency
// decomposition share a namespace).
func (s *Switch) SetDropSite(ledger *wire.DropLedger, hop int) {
	s.ledger, s.dropHop = ledger, hop
	for _, p := range s.ports {
		p.mac.SetDropSite(ledger, hop)
	}
}

// AddGroup registers an ECMP group over the given egress ports and
// returns its 1-based id. Forwarding toward a group (LearnGroup) sprays
// each flow deterministically across the members by a whitened digest
// over the frame's headers — the switch-fabric analogue of the capture
// engine's RSS steering. A port may belong to at most one group.
func (s *Switch) AddGroup(ports ...int) int {
	if len(ports) < 2 {
		panic(fmt.Sprintf("switchsim: ECMP group needs ≥2 member ports, got %d", len(ports)))
	}
	for _, p := range ports {
		if p < 0 || p >= len(s.ports) {
			panic(fmt.Sprintf("switchsim: group member port %d of %d", p, len(s.ports)))
		}
		if s.groupOf[p] != 0 {
			panic(fmt.Sprintf("switchsim: port %d already in group %d", p, s.groupOf[p]))
		}
	}
	s.groups = append(s.groups, append([]int(nil), ports...))
	gid := len(s.groups)
	for _, p := range ports {
		s.groupOf[p] = gid
	}
	return gid
}

// LearnGroup points a station at an ECMP group: frames for mac spray
// across the group's member ports.
func (s *Switch) LearnGroup(mac packet.MAC, gid int) {
	if gid < 1 || gid > len(s.groups) {
		panic(fmt.Sprintf("switchsim: learn on group %d of %d", gid, len(s.groups)))
	}
	s.fdb[mac] = -gid
}

// sprayMember picks the group member carrying this frame: the hardware
// digest over the L2–L4 headers (packet.HeaderDigestBytes — ECMP must
// hash headers only, or the embedded TX timestamp would move a flow
// between members packet by packet), salted per switch (SpraySeed) and
// whitened by packet.Mix64 (shared with the monitor's RSS steering),
// modulo the member count. Per-flow stable, deterministic,
// allocation-free.
func (s *Switch) sprayMember(gid int, data []byte) int {
	s.sprays++
	return s.memberOf(gid, data)
}

// memberOf is sprayMember's pure selection: the member a frame with
// these bytes lands on, with no counter side effects — usable as a peek.
func (s *Switch) memberOf(gid int, data []byte) int {
	members := s.groups[gid-1]
	h := packet.Mix64(packet.PacketDigest(data, packet.HeaderDigestBytes) ^ s.cfg.SpraySeed)
	return members[int(h%uint64(len(members)))]
}

// Learn seeds the station table without traffic, the programmatic
// equivalent of the warm-up frames a real rig sends before measuring.
// Topology builders use it so measurement windows start with a converged
// FDB instead of a flood transient.
func (s *Switch) Learn(mac packet.MAC, port int) {
	if port < 0 || port >= len(s.ports) {
		panic(fmt.Sprintf("switchsim: learn on port %d of %d", port, len(s.ports)))
	}
	s.fdb[mac] = port
}

// NumPorts returns the port count.
func (s *Switch) NumPorts() int { return len(s.ports) }

// PortRate returns port i's line rate: its PortRates override when set,
// the switch-wide Rate otherwise.
func (s *Switch) PortRate(i int) wire.Rate {
	if i < len(s.cfg.PortRates) && s.cfg.PortRates[i] != 0 {
		return s.cfg.PortRates[i]
	}
	return s.cfg.Rate
}

// Port returns port i.
func (s *Switch) Port(i int) *Port { return s.ports[i] }

// LookupDrops returns packets dropped at saturated ingress lookup
// pipelines.
func (s *Switch) LookupDrops() uint64 { return s.lookupDrops }

// Sprays returns the number of ECMP member selections performed.
func (s *Switch) Sprays() uint64 { return s.sprays }

// Forwarded returns counters over frames that left an egress queue.
func (s *Switch) Forwarded() stats.Counter { return s.forwarded }

// receive admits a run to the port's lookup pipeline when its first
// frame has fully arrived (the event fires at the last bit; cut-through
// work is backdated to the header window, which is sound because its
// effects — egress serialisation — are themselves modelled with
// backdatable start times). A run is a bare frame or a train that passed
// trainViable; either way it takes one lookup-FIFO entry drained by one
// event. The train's lookups chain with no queueing (trainViable
// guarantees service ≤ span and an idle server), so the server frees when
// the last frame's lookup completes, span after span behind the first.
//
//lint:hotpath
func (s *Switch) receive(p *Port, r wire.Run, firstBit, lastBit sim.Time) {
	// Earliest instant the lookup may begin, by forwarding mode. The
	// header window is timed at the ingress port's own rate: on a
	// mixed-rate switch a 40G port has its 64 bytes 4× sooner than a 10G
	// one.
	start := lastBit
	if s.cfg.Mode == CutThrough {
		window := sim.Duration(cutThroughWindow) * s.PortRate(p.index).ByteTime()
		d := firstBit.Add(window)
		if d > lastBit {
			d = lastBit // tiny frames: header window is the whole frame
		}
		start = d
	}
	n := r.Len()
	if p.lookupFrames >= s.cfg.LookupQueueCap {
		s.lookupDrops += uint64(n)
		s.ledger.Report(s.dropHop, wire.DropLookupOverflow, uint64(n))
		r.Release() // dropped frames go back to their pool
		return
	}
	for i := 0; i < n; i++ {
		r.Frame(i).SrcPort = p.index
	}

	// Per-ingress single-server lookup queue, tracked arithmetically so a
	// cut-through lookup can begin "in the past" relative to this event.
	if start < p.lookupFreeAt {
		start = p.lookupFreeAt
	}
	service := s.cfg.LookupPerPacket + sim.Duration(r.Frame(0).Size)*s.cfg.LookupPerByte
	if j := s.cfg.LookupJitter; j > 0 {
		service = sim.Duration(float64(service) * (1 + j*(2*s.rand.Float64()-1)))
	}
	span := lastBit.Sub(firstBit)
	done := start.Add(service)
	p.lookupFreeAt = done.Add(sim.Duration(n-1) * span)
	ready := done.Add(s.cfg.PipelineLatency)

	// Ready instants are monotonic per port (the lookup server is
	// single-threaded and the pipeline delay constant), so the pending
	// lookups form a FIFO drained by one reusable event per port instead
	// of one Event + closure per packet.
	p.lookupQ.Push(pendingLookup{run: r, inPort: p.index, lastBit: lastBit, span: span, readyAt: ready})
	p.lookupFrames += n
	if p.lookupQ.Len() == 1 {
		p.armLookup(ready)
	}
}

// trainViable reports whether a uniform run can take the coalesced
// lookup path exactly. The conditions guarantee the per-frame pipeline
// would have produced arithmetically derivable instants and no drops:
// store-and-forward with deterministic service keeps every lookup start
// at its frame's last bit; service ≤ per-frame slot plus an idle server
// at the first arrival means the lookups chain without queueing (ready_k
// = lastBit_k + service + pipeline); and the occupancy margins (half the
// cap, trains at most a quarter of it) keep both worlds — batched
// arrival accounting and interleaved per-frame pops — strictly below the
// overflow threshold, so drop decisions cannot diverge.
//
// The second half peeks at the forwarding decision the train will get:
// coalescing is only exact when the whole run lands on one concrete
// same-rate egress with the same occupancy margin. A rate-converting
// egress changes the spacing between frames, and a flooded, hairpinned
// or near-full egress needs drop/clone decisions interleaved with the
// transmit events that drain it — a coalesced run would make them all at
// one collapsed instant. The peek mutates nothing (learning happens on
// the real path), so a train that fails it replays per frame bit-exactly.
func (s *Switch) trainViable(p *Port, t *wire.Train, at sim.Time) bool {
	n := len(t.Frames)
	if !t.Uniform || n < 2 {
		return false
	}
	if s.cfg.Mode != StoreAndForward || s.cfg.LookupJitter != 0 {
		return false
	}
	qcap := s.cfg.LookupQueueCap
	if p.lookupFrames+n > qcap/2 || n > qcap/4 {
		return false
	}
	if p.lookupFreeAt > at {
		return false
	}
	size := t.Frames[0].Size
	service := s.cfg.LookupPerPacket + sim.Duration(size)*s.cfg.LookupPerByte
	if service > wire.SerializationTime(size, t.Rate) {
		return false
	}
	// Forwarding peek: a known unicast destination on a same-rate,
	// linked, non-hairpin egress with overflow headroom. Between this
	// peek (first frame's last bit) and the decision (lookup ready) the
	// egress can only drain, so the margin checked here still holds when
	// dispatch re-checks it.
	var eth packet.Ethernet
	if err := eth.DecodeFromBytes(t.Frames[0].Data); err != nil {
		return false
	}
	out, ok := s.fdb[eth.Dst]
	if !ok || eth.Dst.IsMulticast() {
		return false
	}
	if out < 0 {
		g := -out
		if s.groupOf[p.index] == g {
			return false
		}
		out = s.memberOf(g, t.Frames[0].Data)
	}
	if out == p.index {
		return false
	}
	op := s.ports[out]
	if op.mac.Link() == nil {
		return false
	}
	if wire.SerializationTime(size, s.PortRate(out)) != wire.SerializationTime(size, t.Rate) {
		return false
	}
	ecap := s.cfg.EgressQueueCap
	return op.mac.Frames()+n <= ecap/2 && n <= ecap/4
}

// armLookup schedules the port's lookup-complete event at instant ready,
// clamped to the present so backdated cut-through work stays causal.
func (p *Port) armLookup(ready sim.Time) {
	eventAt := ready
	if now := p.sw.Engine.Now(); eventAt < now {
		eventAt = now
	}
	p.sw.Engine.Arm(&p.lookupEv, eventAt)
}

// lookupDone pops the head pending lookup, re-arms for the next one, and
// hands the run to the forwarding decision.
//
//lint:hotpath
func (p *Port) lookupDone() {
	d := p.lookupQ.Pop()
	p.lookupFrames -= d.run.Len()
	if p.lookupQ.Len() > 0 {
		p.armLookup(p.lookupQ.Peek().readyAt)
	}
	p.sw.decide(d)
}

// decide learns the source, looks up the destination, and hands the run
// to the egress port(s). A train's frames are byte-identical, so source
// learning, the destination lookup, the hairpin verdict and the ECMP
// member are per-flow facts taken once from the first frame; counter and
// ledger deltas scale by the frame count, keeping every observable
// identical to one decision per frame.
func (s *Switch) decide(d pendingLookup) {
	r := d.run
	n := uint64(r.Len())
	f := r.Frame(0)
	var eth packet.Ethernet
	if err := eth.DecodeFromBytes(f.Data); err != nil {
		// Runt frame: too short for a forwarding decision. Hardware
		// discards these at the parser; the ledger attributes them like
		// every other loss (this used to be a silent, uncounted drop).
		s.ledger.Report(s.dropHop, wire.DropRunt, n)
		r.Release()
		return
	}
	if !eth.Src.IsMulticast() {
		// LAG-aware learning: a station pinned to an ECMP group stays
		// group-learned while its frames keep arriving over that
		// group's members (any member — that is what a bundle is).
		// Arrival anywhere else means the station moved, so relearn to
		// the port as usual.
		if cur, ok := s.fdb[eth.Src]; !ok || cur >= 0 || s.groupOf[d.inPort] != -cur {
			s.fdb[eth.Src] = d.inPort
		}
	}
	out, ok := s.fdb[eth.Dst]
	if !ok || eth.Dst.IsMulticast() {
		// Flooding clones per egress port with per-frame flood
		// accounting, so a flooded train leaves frame by frame.
		for w := r.Walk(d.lastBit.Add(-d.span), d.lastBit); w.Next(); {
			d.readyAt = d.readyAt.Add(w.LastBit.Sub(d.lastBit))
			d.lastBit = w.LastBit
			s.flood(d, w.Frame)
		}
		return
	}
	if out < 0 {
		// Never spray a frame back into the bundle it arrived on — the
		// group is one logical port, so this is a hairpin even when the
		// hash would pick a sibling member.
		if g := -out; s.groupOf[d.inPort] == g {
			s.ledger.Report(s.dropHop, wire.DropHairpin, n)
			r.Release()
			return
		}
		s.sprays += n
		out = s.memberOf(-out, f.Data)
	}
	if out == d.inPort {
		// Never hairpin out the ingress port.
		s.ledger.Report(s.dropHop, wire.DropHairpin, n)
		r.Release()
		return
	}
	s.dispatch(d, out)
}

// flood sends frame f of pending lookup d (unknown unicast, multicast or
// broadcast) to every connected port except the ingress (link-less ports
// are down). The egress queues take clones, so the ingress frame goes
// back to its pool.
func (s *Switch) flood(d pendingLookup, f *wire.Frame) {
	for i, port := range s.ports {
		if i == d.inPort || port.mac.Link() == nil {
			continue
		}
		if g := s.groupOf[i]; g != 0 {
			// A group is one logical port: flood a single copy via the
			// spray-selected member, and nothing back into a group the
			// ingress port belongs to.
			if s.groupOf[d.inPort] == g || s.sprayMember(g, f.Data) != i {
				continue
			}
		}
		d.run = wire.One(f.Clone())
		s.dispatch(d, i)
	}
	f.Release()
}

// dispatch hands run d.run (owned by the egress from here) to egress port
// out, applying store-and-forward speed conversion. Crossing a rate
// boundary forces store-and-forward even on a cut-through switch:
// serialising at a faster egress rate than the bits arrive would underrun
// the MAC, and real converting hardware buffers the whole frame. The
// boundary is detected against the frame's *actual* ingress occupancy
// (lastBit − firstBit, which encodes the arrival wire's rate), not the
// ingress port's nominal rate — a hand-built link can deliver a slower
// wire into a faster port, and that boundary must store too.
// Same-rate forwarding keeps the lookup-derived instant untouched, so
// uniform-rate switches behave exactly as before. The boundary flag also
// classifies any overflow drop: losing frames at a conversion point is
// structural (rate-boundary), not incidental fan-in (egress-overflow).
//
// A train stays one egress entry — one transmit event — when the egress
// wire is no faster than the arrival spacing (same-rate egress preserves
// abutment; down-conversion backs the frames up against each other) and
// the queue keeps the same overflow margin the lookup guard demands. A
// faster egress wire would open gaps between the frames, and a near-full
// queue needs interleaved per-frame drop accounting, so both leave frame
// by frame, each ready one span after the last.
func (s *Switch) dispatch(d pendingLookup, out int) {
	r := d.run
	p := s.ports[out]
	serOut := wire.SerializationTime(r.Frame(0).Size, s.PortRate(out))
	boundary := serOut != d.span
	earliest := d.readyAt
	if boundary && earliest < d.lastBit {
		earliest = d.lastBit // not fully stored yet: wait for the last bit
	}
	n := r.Len()
	qcap := s.cfg.EgressQueueCap
	if n > 1 && (serOut < d.span || p.mac.Link() == nil || p.mac.Frames()+n > qcap/2 || n > qcap/4) {
		for w := r.Walk(d.lastBit.Add(-d.span), d.lastBit); w.Next(); {
			p.enqueue(wire.One(w.Frame), earliest.Add(w.LastBit.Sub(d.lastBit)), boundary)
		}
		return
	}
	p.enqueue(r, earliest, boundary)
}

// Port is one switch interface.
type Port struct {
	sw    *Switch
	index int

	// mac is the egress FIFO and the MAC draining it onto the link.
	mac    wire.Egress
	egress stats.Counter

	// Ingress lookup pipeline state: a FIFO of frames whose lookup is in
	// flight, drained by one reusable event (see lookupDone).
	lookupFreeAt sim.Time
	lookupQ      ring.FIFO[pendingLookup]
	lookupEv     sim.Event
	// lookupFrames counts frames pending in lookupQ (train entries carry
	// many); the LookupQueueCap check is against frames, as on hardware.
	lookupFrames int
}

// SetLink attaches the egress link.
func (p *Port) SetLink(l *wire.Link) { p.mac.SetLink(l) }

// Receive implements wire.Endpoint: a bare frame, or a uniform train
// inside the exactness envelope (trainViable), flows through the switch
// as one lookup entry, one decision and one egress entry; any other train
// is walked into the pipeline frame by frame with each frame's exact
// first-bit/last-bit instants.
func (p *Port) Receive(r wire.Run, firstBit, lastBit sim.Time) {
	if t := r.Train(); t == nil || p.sw.trainViable(p, t, lastBit) {
		p.sw.receive(p, r, firstBit, lastBit)
		return
	}
	for w := r.Walk(firstBit, lastBit); w.Next(); {
		p.sw.receive(p, wire.One(w.Frame), w.FirstBit, w.LastBit)
	}
}

// Drops returns frames lost to egress queue overflow.
func (p *Port) Drops() uint64 { return p.mac.Drops() }

// Egress returns counters over frames transmitted out of this port.
func (p *Port) Egress() stats.Counter { return p.egress }

func (p *Port) enqueue(r wire.Run, earliest sim.Time, boundary bool) {
	if p.mac.Link() == nil {
		panic(fmt.Sprintf("switchsim: egress port %d has no link", p.index))
	}
	reason := wire.DropEgressOverflow
	if boundary {
		reason = wire.DropRateBoundary
	}
	p.mac.Push(r, earliest, reason)
}

// Latch implements wire.Latcher: the frame's hop trace is stamped with
// the instant its last bit leaves, before the link takes it (so the
// stamp survives a shard cut), and the egress counters count it.
func (p *Port) Latch(f *wire.Frame, _, end sim.Time) {
	if id := p.sw.cfg.HopID; id != 0 {
		f.Trace.Stamp(id, end)
	}
	wb := wire.WireBytes(f.Size)
	p.egress.Add(wb)
	p.sw.forwarded.Add(wb)
}
