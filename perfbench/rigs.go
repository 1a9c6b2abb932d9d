package main

import (
	"fmt"
	"slices"

	"osnt/internal/fabric"
	"osnt/internal/flowstats"
	"osnt/internal/gen"
	"osnt/internal/mon"
	"osnt/internal/netfpga"
	"osnt/internal/packet"
	"osnt/internal/runner"
	"osnt/internal/shard"
	"osnt/internal/sim"
	"osnt/internal/stats"
	"osnt/internal/switchsim"
	"osnt/internal/timing"
	"osnt/internal/topo"
	"osnt/internal/wire"
)

// frameSize is the FCS-inclusive frame size of every workload: the
// embedded transmit timestamp at offset 42 sits inside the payload.
const frameSize = 512

// rig is one built repetition of a workload, between set-up and
// teardown. workload.repeat (measure.go) owns the phase order:
// runUntil in one call or in fixed virtual-time slices, then stop,
// drain and flush, then verify.
type rig interface {
	engines() []*sim.Engine
	runUntil(t sim.Time)
	// stop halts every generator and returns the frames they offered.
	stop() uint64
	// drain runs the scenario until no event is left.
	drain()
	// sink reports the host time spent inside the benchmark's delivery
	// callbacks and how many records they took (time only when traced).
	sink() (ns int64, records uint64)
	// sample folds the rig's between-slice gauges into the running maxima.
	sample(max map[string]float64)
	// verify checks the repetition's conservation and order invariants and
	// returns its order-sensitive stream digest.
	verify(offered uint64) (uint64, error)
	// layers fills the rig's per-layer counters.
	layers(offered uint64, m map[string]float64)
	close()
}

// fnvOffset and fnvMix are the FNV-1a fold the E20 fabric digest uses.
const fnvOffset = 14695981039346656037

func fnvMix(h, v uint64) uint64 {
	const prime = 1099511628211
	for i := 0; i < 8; i++ {
		h = (h ^ (v & 0xff)) * prime
		v >>= 8
	}
	return h
}

// ---- capture100g ---------------------------------------------------------

const (
	captureFlows  = 64
	captureQueues = 4
	captureTrain  = 64
)

// captureSpec is the tester's UDP template; the seed moves SrcPort.
var captureSpec = packet.UDPSpec{
	SrcMAC:  packet.MAC{0x02, 0x05, 0x17, 0, 0, 0x01},
	DstMAC:  packet.MAC{0x02, 0x05, 0x17, 0, 0, 0x02},
	SrcIP:   packet.IP4{10, 0, 0, 1},
	DstIP:   packet.IP4{10, 0, 0, 2},
	SrcPort: 5000, DstPort: 7000,
}

// capturePortBase maps the seed to the base source port of the 64 flows.
func capturePortBase(seed uint64) uint16 {
	return uint16(1024 + runner.PointSeed(seed, 0xc0)%(65535-1024-captureFlows))
}

type captureRig struct {
	e     *sim.Engine
	t     *topo.Topology
	m     *mon.Monitor
	merge *mon.Merge
	g     *gen.Generator
	ft    *flowstats.FlowTable
	cm    *flowstats.CountMin
	ss    *flowstats.SpaceSaving

	digest  uint64
	records uint64
	sinkNS  int64
}

// setupCapture builds the 100G capture tier: one 100G tester port
// looped into its neighbour, a 4-queue RSS monitor (snap 64, header
// digest), the cross-queue merge, and the E17 flow analytics behind it.
func setupCapture(seed uint64, end sim.Time, tr *tracer, parent int) *captureRig {
	r := &captureRig{e: sim.NewEngine(), digest: fnvOffset}

	sp := tr.begin("topo.Build", parent)
	r.t = topo.New().
		Tester("osnt", netfpga.Config{Ports: 2, Rate: wire.Rate100G}).
		Link("osnt:0", "osnt:1").
		MustBuild(r.e)
	tr.end(sp)

	sp = tr.begin("mon.Attach", parent)
	r.m = r.t.AttachMonitor("osnt:1", mon.Config{
		SnapLen:   64,
		HashBytes: packet.HeaderDigestBytes,
		Steer:     mon.SteerHash,
		Queues:    make([]mon.QueueConfig, captureQueues),
	})
	sink := r.observe
	if tr != nil {
		sink = func(rec mon.Record) {
			t0 := clock()
			r.observe(rec)
			r.sinkNS += clock() - t0
		}
	}
	r.merge = mon.NewMerge(r.m, sink)
	tr.end(sp)

	sp = tr.begin("flowstats.New", parent)
	r.ft = flowstats.NewFlowTable(1 << 10)
	r.cm = flowstats.NewCountMin(4, 1<<12)
	r.ss = flowstats.NewSpaceSaving(2 * captureFlows)
	tr.end(sp)

	sp = tr.begin("gen.New", parent)
	spec := captureSpec
	spec.SrcPort = capturePortBase(seed)
	g, err := gen.New(r.t.Port("osnt:0"), gen.Config{
		Source:         &gen.UDPFlowSource{Spec: spec, NumFlows: captureFlows, FrameSize: frameSize},
		Spacing:        gen.CBRForLoad(frameSize, wire.Rate100G, 1.0),
		EmbedTimestamp: true,
		Pool:           wire.DefaultPool,
		Seed:           runner.PointSeed(seed, 1),
		MaxTrain:       captureTrain,
		Until:          end,
	})
	if err != nil {
		panic(err)
	}
	g.Start(0)
	r.g = g
	tr.end(sp)
	return r
}

// observe is the merged sink: the E17 stream digest over (TS, flow
// hash), then the flow table and both sketches.
func (r *captureRig) observe(rec mon.Record) {
	r.records++
	r.digest = fnvMix(fnvMix(r.digest, uint64(rec.TS)), rec.Hash)
	s := flowstats.Sample{Digest: rec.Hash, RxTS: rec.TS, Wire: rec.WireSize, Trace: rec.Trace}
	if tx, ok := gen.ExtractTimestamp(rec.Data, gen.DefaultTimestampOffset); ok {
		s.TxTS, s.HasTx = tx, true
	}
	r.ft.Observe(s)
	r.cm.Add(rec.Hash, 1)
	r.ss.Add(rec.Hash, 1)
}

func (r *captureRig) engines() []*sim.Engine { return []*sim.Engine{r.e} }
func (r *captureRig) runUntil(t sim.Time)    { r.e.RunUntil(t) }
func (r *captureRig) drain()                 { r.e.Run() }
func (r *captureRig) flush()                 { r.merge.Flush() }
func (r *captureRig) sink() (int64, uint64)  { return r.sinkNS, r.records }
func (r *captureRig) close()                 {}
func (r *captureRig) stop() uint64           { r.g.Stop(); return r.g.Sent().Packets + r.g.Dropped() }
func (r *captureRig) sample(max map[string]float64) {
	for q := 0; q < r.m.NumQueues(); q++ {
		raise(max, "mon.ring_depth_max", float64(r.m.QueueStats(q).Depth))
	}
	raise(max, "merge.pending_max", float64(r.merge.Pending()))
}

func (r *captureRig) verify(offered uint64) (uint64, error) {
	emitted := r.merge.Emitted()
	var tracked uint64
	r.ft.Flows(func(f *flowstats.Flow) { tracked += f.Packets })
	lm := stats.NewLossMap(offered, r.m.Delivered().Packets, r.t.Drops())
	switch {
	case !lm.Conserved():
		return r.digest, fmt.Errorf("loss not conserved: offered %d, delivered %d, attributed %d", offered, lm.Delivered, lm.Attributed())
	case r.merge.OrderViolations() != 0:
		return r.digest, fmt.Errorf("%d merge order violations", r.merge.OrderViolations())
	case r.merge.Pending() != 0:
		return r.digest, fmt.Errorf("%d records pending after Flush", r.merge.Pending())
	case emitted != r.m.Delivered().Packets:
		return r.digest, fmt.Errorf("merge emitted %d of %d delivered records", emitted, r.m.Delivered().Packets)
	case tracked+r.ft.Overflow() != emitted:
		return r.digest, fmt.Errorf("flow table holds %d (+%d overflow) of %d emitted records", tracked, r.ft.Overflow(), emitted)
	}
	return r.digest, nil
}

func (r *captureRig) layers(offered uint64, m map[string]float64) {
	seen := make([]float64, r.m.NumQueues())
	for q := range seen {
		seen[q] = float64(r.m.QueueStats(q).Seen.Packets)
	}
	m["mon.ring_drop_frac"] = ratio(float64(r.m.RingDrops()), float64(r.m.Seen().Packets))
	m["mon.queue_imbalance"] = ratio(slices.Max(seen), mean(seen))
	m["flowstats.flows"] = float64(r.ft.Len())
	m["flowstats.overflow"] = float64(r.ft.Overflow())
}

// ---- fattree_k8 and fattree_k8_sharded ----------------------------------

// fabricK is the fat-tree radix: 80 switches, 128 hosts.
const fabricK = 8

// overspeedLookup is the E15/E19 switch template: a lookup pipeline
// faster than any port, so queue overflow is the only loss mechanism.
var overspeedLookup = switchsim.Config{
	LookupPerPacket: 10 * sim.Nanosecond,
	LookupPerByte:   sim.Picoseconds(150),
}

type fabricRig struct {
	e    *sim.Engine    // the plain engine (shards == 0)
	cl   *shard.Cluster // the cluster (shards ≥ 1)
	f    *fabric.Fabric
	gens []*gen.Generator

	// Per-host digests and per-shard sink accounting: each is written only
	// from its owner shard's engine, so windows run race-free.
	digests []uint64
	sinkNS  []int64
	records []uint64
}

// setupFabric builds the k=8 permutation fabric carrying 512 B Poisson
// frames at the given per-host load. shards == 0 runs it on one plain
// engine; shards ≥ 1 on a shard.Cluster with the pod-aligned partition,
// which needs a positive cable delay.
func setupFabric(seed uint64, load float64, delay sim.Duration, shards int, tr *tracer, parent int) *fabricRig {
	r := &fabricRig{}
	spec := fabric.Spec{K: fabricK, LinkDelay: delay, Switch: overspeedLookup}

	if shards == 0 {
		sp := tr.begin("fabric.Build", parent)
		r.e = sim.NewEngine()
		r.f = fabric.MustBuild(r.e, spec)
		tr.end(sp)
	} else {
		sp := tr.begin("shard.NewCluster", parent)
		r.cl = shard.NewCluster(shards)
		tr.end(sp)
		sp = tr.begin("fabric.Build", parent)
		r.f = fabric.MustBuildPartitioned(r.cl.Partition(spec.PodShard(shards)), spec)
		tr.end(sp)
	}
	f := r.f

	nShards := max(shards, 1)
	r.digests = make([]uint64, len(f.Hosts))
	r.sinkNS = make([]int64, nShards)
	r.records = make([]uint64, nShards)
	for i := range f.Hosts {
		r.digests[i] = fnvOffset
		d := &r.digests[i]
		s := f.Shard(f.Hosts[i].Name)
		n, ns := &r.records[s], &r.sinkNS[s]
		fold := func(fr *wire.Frame, _ sim.Time, ts timing.Timestamp) {
			*n++
			if t0, ok := gen.ExtractTimestamp(fr.Data, gen.DefaultTimestampOffset); ok {
				*d = fnvMix(fnvMix(fnvMix(*d, uint64(t0)), uint64(ts.Sub(t0))), uint64(fr.Size))
			}
		}
		if tr != nil {
			untimed := fold
			fold = func(fr *wire.Frame, at sim.Time, ts timing.Timestamp) {
				t0 := clock()
				untimed(fr, at, ts)
				*ns += clock() - t0
			}
		}
		f.HostPort(i).OnReceive = fold
	}

	sp := tr.begin("fabric.Sources", parent)
	srcs := f.Sources(f.Permutation(), frameSize)
	tr.end(sp)

	sp = tr.begin("gen.New", parent)
	slot := wire.SerializationTime(frameSize, f.Spec.Rate)
	for i, src := range srcs {
		if src == nil {
			continue
		}
		g, err := gen.New(f.HostPort(i), gen.Config{
			Source:         src,
			Spacing:        gen.Poisson{Mean: sim.Duration(float64(slot) / load)},
			EmbedTimestamp: true,
			Pool:           wire.DefaultPool,
			Seed:           runner.PointSeed(seed, i),
		})
		if err != nil {
			panic(err)
		}
		g.Start(0)
		r.gens = append(r.gens, g)
	}
	tr.end(sp)
	return r
}

func (r *fabricRig) engines() []*sim.Engine {
	if r.cl != nil {
		return r.cl.Engines()
	}
	return []*sim.Engine{r.e}
}

func (r *fabricRig) runUntil(t sim.Time) {
	if r.cl != nil {
		r.cl.RunUntil(t)
		return
	}
	r.e.RunUntil(t)
}

func (r *fabricRig) drain() {
	if r.cl != nil {
		r.cl.Run()
		return
	}
	r.e.Run()
}

func (r *fabricRig) stop() uint64 {
	var offered uint64
	for _, g := range r.gens {
		g.Stop()
		offered += g.Sent().Packets + g.Dropped()
	}
	return offered
}

func (r *fabricRig) sample(map[string]float64) {}

func (r *fabricRig) sink() (int64, uint64) {
	var ns int64
	var n uint64
	for s := range r.sinkNS {
		ns += r.sinkNS[s]
		n += r.records[s]
	}
	return ns, n
}

func (r *fabricRig) close() {
	if r.cl != nil {
		r.cl.Close()
	}
}

// verify checks exact loss conservation over all 80 switches and folds
// the per-host digests in host order, as E20 does.
func (r *fabricRig) verify(offered uint64) (uint64, error) {
	digest := uint64(fnvOffset)
	for _, d := range r.digests {
		digest = fnvMix(digest, d)
	}
	lm := stats.NewLossMap(offered, r.f.Delivered(), r.f.Drops())
	if !lm.Conserved() {
		return digest, fmt.Errorf("loss not conserved: offered %d, delivered %d, attributed %d", offered, lm.Delivered, lm.Attributed())
	}
	if lm.Delivered == 0 {
		return digest, fmt.Errorf("no frame delivered")
	}
	return digest, nil
}

func (r *fabricRig) layers(offered uint64, m map[string]float64) {
	var hops, sprays uint64
	for _, names := range [][]string{r.f.Edges, r.f.Aggs, r.f.Cores} {
		for _, n := range names {
			sw := r.f.DUT(n)
			hops += sw.Forwarded().Packets
			sprays += sw.Sprays()
		}
	}
	tiers := r.f.TierDrops()
	dropped := tiers[fabric.TierEdge] + tiers[fabric.TierAgg] + tiers[fabric.TierCore]
	m["switchsim.hops_per_frame"] = ratio(float64(hops), float64(offered))
	m["switchsim.sprays"] = float64(sprays)
	m["switchsim.drop_frac"] = ratio(float64(dropped), float64(offered))
}
