// Package shard runs one scenario across several sim.Engines in
// parallel while keeping the results byte-identical to a single-engine
// run. It is a conservative-lookahead (CMB-style) parallel
// discrete-event runtime: the topology is partitioned so that every
// cross-shard wire carries a positive propagation delay, and the
// smallest such delay L is the lookahead — during a window [W, W + L)
// no shard can influence another, so all shards advance through the
// window concurrently, one goroutine per engine, and meet at a barrier.
//
// Cross-shard links are wire export links (wire.NewExportLink): the
// transmitting shard serialises the frame exactly as a local link
// would — same busy horizon, same counters, same propagation-delayed
// arrival instants — but instead of arming a delivery event it appends
// a record to the (src, dst) boundary channel. Frame ownership
// transfers with the export: the source shard never touches the frame
// again, so the pooled zero-alloc hot path survives the cut without
// sharing.
//
// Boundary replay is per shard and parallel. Each channel holds two
// buffers selected by window parity: during window k sources append to
// buffer k&1, and at the start of window k+1 every destination shard —
// on its own goroutine — drains buffer k&1 of each of its inbound
// channels while the sources already fill the other one, so the two
// sides never touch the same buffer within a window and the barrier
// orders every hand-off. The destination sorts its records by (arrival
// instant, delivery key, source shard, export sequence) — a
// deterministic total order, independent of which shard finished its
// window first — and arms the deliveries in its engine with the
// boundary link's delivery key as the same-instant priority
// (sim.Event.SetPrio). The topology builder gives every
// positive-delay link a unique key in build order, so simultaneous
// arrivals at a device fire in cable order — a property of the wiring,
// identical at every shard count — and a replayed arrival that collides
// with a local delivery at the exact same instant fires in the same
// relative order a single-engine run produces: equality to the last
// byte, not merely statistical equivalence. The lookahead contract
// makes the arrivals provably inside a *later* window: a frame exported
// at instant τ arrives no earlier than τ + L, so the destination — which
// has only advanced to W + L − 1 — has never run past it.
//
// Windows follow the events rather than the clock. At each barrier
// every shard publishes the earliest instant it still has work at: the
// head of its event heap, or the earliest arrival it exported during the
// window (those records are not in any heap yet). The last shard to
// arrive takes the minimum m over all shards and opens the next window
// at max(W + L, m), capped at the RunUntil target, so idle stretches of
// virtual time cost no barriers. Run and RunUntil share this one
// stepping loop; Run simply has no target.
//
// The barrier is a generation counter on sync/atomic, and every shard —
// shard 0 on the calling goroutine included — is an equal participant:
// it bumps an arrival count, and the last arriver plans the next window
// and publishes it by advancing the generation. Waiters spin for a short
// fixed budget, yielding the processor between polls, and then park on
// a per-shard wake token, so a barrier that completes quickly costs no
// futex round trip while a long wait burns no CPU. The wait between
// RunUntil calls is the same: a caller that advances time in short
// slices finds the workers still polling, while one that returns for
// longer finds them parked. Either way the workers touch nothing but
// the generation counter between calls. That is what keeps the caller's
// direct access to engines and devices between calls safe — every
// shard's last window happens-before the generation the caller
// observed — and why the caller's own changes (a generator stopped or
// started, an event scheduled) are visible to the shards at the next
// call.
//
// Determinism therefore needs exactly two properties: every per-window
// computation is confined to one engine (the builder partitions
// devices, ledgers and statistics per shard), and every cross-window
// hand-off is replayed in the sorted order above. go test -race runs
// the whole suite over the barrier protocol.
package shard

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"osnt/internal/sim"
	"osnt/internal/topo"
	"osnt/internal/wire"
)

// never is the instant of "no pending work" and the target of Run: it
// sorts after every real event.
const never = sim.Time(math.MaxInt64)

// spinPolls is how many times a barrier waiter polls the generation,
// yielding the processor between polls, before it parks. A poll costs
// ~0.2 µs, so the budget (~200 µs) covers the usual spread between
// shards finishing a busy window, and the caller's work between two
// closely spaced RunUntil calls: a waiter that parks sooner sends its
// thread to sleep in the kernel, and waking it costs more than the wait
// it saved. Clusters with more shards than GOMAXPROCS do not spin.
const spinPolls = 1000

// record is one exported run crossing a shard boundary, buffered
// between the window it was transmitted in and the window whose start
// replays it.
type record struct {
	run               wire.Run
	peer              wire.Endpoint
	firstBit, lastBit sim.Time
	// key is the boundary link's structural delivery key (wire.Exporter's
	// contract); the replay passes it through to the destination engine
	// so the delivery takes the same same-instant position a
	// single-engine run gives it.
	key uint64
	src int
	seq uint64
}

// channel buffers the records of one (src, dst) shard pair. All
// boundary links from src to dst share it; seq counts exports in src's
// event order, which breaks arrival-instant ties deterministically.
// buf is double-buffered by window parity: shard src appends to
// buf[from.parity] during its window while shard dst drains the other
// buffer, so the buffers need no lock — the barrier's happens-before
// edges carry them between goroutines.
type channel struct {
	src  int
	from *member
	buf  [2][]record
	seq  uint64
}

// push appends one export to the source's current buffer and folds its
// arrival into the source's earliest-export mark.
func (ch *channel) push(r record) {
	m := ch.from
	r.src, r.seq = ch.src, ch.seq
	ch.seq++
	ch.buf[m.parity] = append(ch.buf[m.parity], r)
	if r.lastBit < m.exported {
		m.exported = r.lastBit
	}
}

// boundary adapts one cross-shard link onto its (src, dst) channel; it
// is the wire.Exporter the export link calls from the hot path.
type boundary struct {
	ch   *channel
	peer wire.Endpoint
}

// Export implements wire.Exporter.
func (b *boundary) Export(r wire.Run, firstBit, lastBit sim.Time, key uint64) {
	b.ch.push(record{run: r, peer: b.peer, firstBit: firstBit, lastBit: lastBit, key: key})
}

// slot is one reusable delivery event on a destination engine: the
// replay loads it with a record and schedules it; firing hands the
// record to the device endpoint and returns the slot to the shard's
// freelist. Steady state, boundary deliveries allocate nothing.
type slot struct {
	m   *member
	ev  sim.Event
	rec record
}

func (s *slot) fire() {
	rec := s.rec
	s.rec = record{}
	s.m.free = append(s.m.free, s)
	rec.peer.Receive(rec.run, rec.firstBit, rec.lastBit)
}

// member is one shard's share of the cluster. Its fields belong to the
// shard's goroutine while a window runs, to the last arriver while it
// plans the next window, and to the caller between calls.
type member struct {
	e      *sim.Engine
	in     []*channel // inbound channels; replay order is fixed by the sort
	free   []*slot    // delivery-slot freelist
	inbox  []record   // replay merge scratch, reused across windows
	parity int        // buffer this shard's exports go to
	// exported is the earliest arrival among the records this shard put
	// into buf[parity] since they were last replayed (never if none).
	exported sim.Time
	next     sim.Time // published at the barrier: earliest pending work
	panic    any      // recovered from this shard's last window
	// asleep is set while the shard is parked (or about to park) on
	// wake; a release that clears it owes the shard one token.
	asleep atomic.Bool
	wake   chan struct{}
}

// head is the earliest instant at which m has work: its event heap's
// head or its earliest exported arrival, whichever is sooner.
func (m *member) head() sim.Time {
	if at, ok := m.e.Peek(); ok && at < m.exported {
		return at
	}
	return m.exported
}

// replay drains buffer p of every inbound channel into m's engine.
// Records merge across all source channels and sort by (arrival
// instant, delivery key, source shard, export sequence): a total order
// fixed by the simulation alone, so the replay — and everything
// downstream of it — is independent of goroutine scheduling. Each
// delivery is scheduled with its link's delivery key as the
// same-instant priority, slotting it exactly where the single-engine
// link event would fire among equal-instant locals. Deliveries are
// scheduled on reused slots; the defensive clamp to the destination
// clock mirrors wire.Link's delivery clamp and is dead code whenever the
// lookahead contract holds.
func (m *member) replay(p int) {
	recs := m.inbox[:0]
	for _, ch := range m.in {
		if len(ch.buf[p]) == 0 {
			continue
		}
		recs = append(recs, ch.buf[p]...)
		clear(ch.buf[p])
		ch.buf[p] = ch.buf[p][:0]
	}
	if len(recs) == 0 {
		return
	}
	slices.SortFunc(recs, func(a, b record) int {
		switch {
		case a.lastBit != b.lastBit:
			if a.lastBit < b.lastBit {
				return -1
			}
			return 1
		case a.key != b.key:
			if a.key < b.key {
				return -1
			}
			return 1
		case a.src != b.src:
			return a.src - b.src
		case a.seq != b.seq:
			if a.seq < b.seq {
				return -1
			}
			return 1
		default:
			return 0
		}
	})
	e := m.e
	for i := range recs {
		at := recs[i].lastBit
		if now := e.Now(); at < now {
			at = now
		}
		var s *slot
		if n := len(m.free); n > 0 {
			s = m.free[n-1]
			m.free = m.free[:n-1]
		} else {
			s = &slot{m: m}
			s.ev = sim.NewEvent(s.fire)
		}
		s.rec = recs[i]
		s.ev.SetPrio(recs[i].key)
		e.Arm(&s.ev, at)
	}
	clear(recs)
	m.inbox = recs[:0]
}

// Cluster owns one engine per shard plus the boundary channels and the
// barrier protocol between them. Shard 0 runs on the calling goroutine;
// shards 1..n-1 each get a worker goroutine that waits on the barrier
// except during Run/RunUntil, so between calls the caller may touch any
// engine or device directly. A 1-shard cluster is a passthrough to the
// plain engine: no goroutines, no channels, no per-event overhead.
type Cluster struct {
	engines   []*sim.Engine
	members   []*member
	lookahead sim.Duration // min cross-shard delay; 0 until a boundary exists
	chans     [][]*channel // [src][dst]; nil where no boundary link exists
	now       sim.Time     // exclusive frontier: all events < now have run
	end       sim.Time     // exclusive target of the current call; never for Run
	wend      sim.Time     // exclusive end of the window being stepped
	windows   uint64       // windows stepped so far
	closed    bool

	// The barrier. gen advances by 2 per release; its low bit set means
	// the call is over and the shards park until the next one. spin is
	// the waiters' poll budget: spinPolls when every shard can hold a
	// CPU of its own, else 0 — a spinning waiter would only keep a
	// shard that still has work off the processor.
	gen     atomic.Uint64
	arrived atomic.Int32
	spin    int
	workers sync.WaitGroup
}

// NewCluster returns a cluster of n fresh engines (n ≥ 1) and starts
// the n−1 worker goroutines. Call Close when done with a multi-shard
// cluster to stop them.
func NewCluster(n int) *Cluster {
	if n < 1 {
		panic(fmt.Sprintf("shard: cluster of %d shards", n))
	}
	c := &Cluster{
		engines: make([]*sim.Engine, n),
		members: make([]*member, n),
		chans:   make([][]*channel, n),
	}
	if n <= runtime.GOMAXPROCS(0) {
		c.spin = spinPolls
	}
	for i := range c.engines {
		c.engines[i] = sim.NewEngine()
		c.members[i] = &member{e: c.engines[i], exported: never, wake: make(chan struct{}, 1)}
		c.chans[i] = make([]*channel, n)
	}
	for _, m := range c.members[1:] {
		c.workers.Add(1)
		go c.work(m)
	}
	return c
}

// Engines returns the per-shard engines, indexed by shard.
func (c *Cluster) Engines() []*sim.Engine { return c.engines }

// Windows returns how many barrier windows the cluster has stepped so
// far (always 0 on a 1-shard cluster).
func (c *Cluster) Windows() uint64 { return c.windows }

// CrossLink builds the boundary link for a cross-shard edge. It has the
// signature of topo.Partition.CrossLink, and Partition wires it there.
// The edge's propagation delay must be positive; the smallest delay
// seen across all CrossLink calls becomes the cluster's lookahead.
func (c *Cluster) CrossLink(src, dst int, e *sim.Engine, rate wire.Rate, delay sim.Duration, peer wire.Endpoint) *wire.Link {
	if delay <= 0 {
		panic(fmt.Sprintf("shard: cross-shard link %d → %d with non-positive delay %v", src, dst, delay))
	}
	ch := c.chans[src][dst]
	if ch == nil {
		ch = &channel{src: src, from: c.members[src]}
		c.chans[src][dst] = ch
		c.members[dst].in = append(c.members[dst].in, ch)
	}
	if c.lookahead == 0 || delay < c.lookahead {
		c.lookahead = delay
	}
	return wire.NewExportLink(e, rate, delay, &boundary{ch: ch, peer: peer})
}

// Partition returns the topo.Partition that instantiates a graph onto
// this cluster: shardOf maps node names to shard indices (for
// synthesized fabrics, fabric.Spec.PodShard is the natural choice).
func (c *Cluster) Partition(shardOf func(name string) int) topo.Partition {
	return topo.Partition{Engines: c.engines, ShardOf: shardOf, CrossLink: c.CrossLink}
}

// work is the goroutine body for shards ≥ 1: park until a call starts,
// then step windows until the generation says the call is over.
func (c *Cluster) work(m *member) {
	defer c.workers.Done()
	var g uint64
	for {
		g = c.await(m, g)
		for g&1 == 0 {
			if c.closed {
				return
			}
			g = c.step(m, g)
		}
	}
}

// step runs one window on m, meets the other shards at the barrier and
// returns the generation that ended it: the next window's, or one with
// the low bit set when the call is over.
func (c *Cluster) step(m *member, g uint64) uint64 {
	c.window(m)
	if int(c.arrived.Add(1)) < len(c.members) {
		return c.await(m, g)
	}
	// Last to arrive: every other shard is waiting, so the published
	// heads, panics and the window fields are this goroutine's to use.
	c.arrived.Store(0)
	return c.release(!c.plan())
}

// window is one shard's work for the current window: replay the
// crossings exported to it during the previous window, run its engine
// to the window's end and publish its earliest pending work. A panic is
// recovered into m.panic so the caller can re-raise it once every shard
// has stopped.
func (c *Cluster) window(m *member) {
	defer func() { m.panic = recover() }()
	m.parity = int(c.windows & 1)
	m.replay(m.parity ^ 1)
	m.exported = never
	if c.wend == never {
		m.e.Run()
	} else {
		m.e.RunUntil(c.wend.Add(-1))
	}
	m.next = m.head()
}

// plan decides the next window from the heads every shard published:
// it opens at the later of the frontier and the earliest pending work,
// spans one lookahead (unbounded without any boundary link) and stops at
// the call's target. It reports false when no window is left to step:
// the target is reached, every queue is empty, or a shard panicked.
func (c *Cluster) plan() bool {
	start := c.now
	next := never
	for _, m := range c.members {
		if m.panic != nil {
			return false
		}
		next = min(next, m.next)
	}
	start = max(start, next)
	if start >= c.end {
		return false
	}
	c.wend = c.end
	if c.lookahead > 0 && c.end.Sub(start) > c.lookahead {
		c.wend = start.Add(c.lookahead)
	}
	c.now = c.wend
	c.windows++
	return true
}

// release publishes the next generation and hands a wake token to
// every parked shard.
func (c *Cluster) release(over bool) uint64 {
	g := c.gen.Load()&^1 + 2
	if over {
		g |= 1
	}
	c.gen.Store(g)
	for _, m := range c.members {
		if m.asleep.Load() && m.asleep.CompareAndSwap(true, false) {
			m.wake <- struct{}{}
		}
	}
	return g
}

// await blocks m until the generation moves past g and returns the new
// one. It first polls up to c.spin times, yielding between polls, then
// parks: it announces itself in asleep before a final check, so a
// release either sees the flag and sends a token or happened early
// enough for the check to see the new generation — and if both, the
// waiter loses the race to retract the flag and takes the token. A
// token can also come late, from a release of an earlier generation
// whose sender was still walking the members; the waiter then parks
// again.
func (c *Cluster) await(m *member, g uint64) uint64 {
	for i := 0; i < c.spin; i++ {
		if n := c.gen.Load(); n != g {
			return n
		}
		runtime.Gosched()
	}
	for {
		m.asleep.Store(true)
		if n := c.gen.Load(); n != g && m.asleep.CompareAndSwap(true, false) {
			return n
		}
		<-m.wake
		if n := c.gen.Load(); n != g {
			return n
		}
	}
}

// advance is the stepping loop behind Run and RunUntil: it runs every
// event before the exclusive target end (never: until every queue is
// empty) in barrier windows, shard 0 on the calling goroutine. On
// return all workers wait on the barrier; a panic in any shard is
// re-raised here, lowest shard first, once every shard has quiesced.
func (c *Cluster) advance(end sim.Time) {
	if c.closed {
		panic("shard: run on a closed cluster")
	}
	c.end = end
	for _, m := range c.members {
		m.next = m.head()
	}
	if c.plan() {
		g := c.release(false)
		for g&1 == 0 {
			g = c.step(c.members[0], g)
		}
	}
	for _, m := range c.members {
		if p := m.panic; p != nil {
			for _, m := range c.members {
				m.panic = nil
			}
			panic(p)
		}
	}
	// Queue the last window's crossings on their destinations, so
	// between calls every in-flight frame sits in an engine.
	for _, m := range c.members {
		m.replay(m.parity)
		m.exported = never
	}
	if end != never {
		for _, e := range c.engines {
			e.RunUntil(end.Add(-1))
		}
		c.now = max(c.now, end)
	}
}

// RunUntil executes every shard's events up to and including instant t,
// then sets all clocks to t — the sharded spelling of
// sim.Engine.RunUntil. Windows open only where some shard has work, so
// idle stretches cost no barriers. On return all workers wait on the
// barrier, so the caller may read any engine or device directly.
func (c *Cluster) RunUntil(t sim.Time) {
	if len(c.engines) == 1 {
		c.engines[0].RunUntil(t)
		if end := t.Add(1); c.now < end {
			c.now = end
		}
		return
	}
	c.advance(t.Add(1))
}

// Run executes events until every shard's queue is empty — the sharded
// spelling of sim.Engine.Run, used to drain in-flight traffic after the
// measurement window.
func (c *Cluster) Run() {
	if len(c.engines) == 1 {
		c.engines[0].Run()
		return
	}
	c.advance(never)
}

// Close stops the worker goroutines and waits for them to exit. The
// engines stay readable; only Run/RunUntil become invalid. Close is
// idempotent and a no-op on a 1-shard cluster.
func (c *Cluster) Close() {
	if c.closed {
		return
	}
	c.closed = true
	if len(c.members) > 1 {
		c.release(false)
		c.workers.Wait()
	}
}
