// Package mon implements the OSNT traffic monitoring subsystem as a
// capture engine: packets are timestamped on receipt by the MAC (done in
// netfpga.Port, minimising queueing noise), pass through the hardware
// wildcard filter table, are optionally thinned (cut to a snap length)
// and hashed, and finally cross a loss-limited DMA path into the host,
// where software sinks consume capture records.
//
// The DMA path is the part the paper calls "a loss-limited path that gets
// (a subset of) captured packets into the host". Beyond 10 Gb/s a single
// descriptor ring drained by one host core cannot keep up even with
// thinned packets, so the engine spreads one port's capture across up to
// netfpga.Config.CaptureQueues independent queues — each with its own
// bounded descriptor ring, host drain rate and drop accounting, exactly
// the per-queue DMA + RSS steering structure of >10G NIC capture stacks.
// A deterministic steering stage assigns every accepted packet to a
// queue: hash-based RSS over the hardware digest (one flow, one queue),
// strict round-robin, or a filter rule pinning its matches to a queue.
// When capture demand exceeds what a queue's host core can drain, that
// ring overflows and its drops are counted — exactly the behaviour
// hardware filtering, thinning and now multi-queue DMA exist to avoid.
package mon

import (
	"fmt"
	"slices"

	"osnt/internal/filter"
	"osnt/internal/netfpga"
	"osnt/internal/packet"
	"osnt/internal/sim"
	"osnt/internal/stats"
	"osnt/internal/timing"
	"osnt/internal/wire"
)

// Record is one captured packet as the host sees it.
type Record struct {
	// Data holds the captured bytes (possibly thinned).
	Data []byte
	// WireSize is the original FCS-inclusive frame size.
	WireSize int
	// TS is the hardware receive timestamp latched at the MAC.
	TS timing.Timestamp
	// Arrival is the true arrival instant (ground truth available only in
	// simulation; used to quantify timestamp error).
	Arrival sim.Time
	// Delivered is the instant the record reached the host sink.
	Delivered sim.Time
	// Port is the card port that captured the packet.
	Port int
	// Queue is the capture queue whose ring carried the record (0 on a
	// single-queue monitor).
	Queue int
	// Seq is the record's per-queue admission sequence number (0-based,
	// counting ring admissions, not drops). Within one queue, (TS, Seq)
	// is strictly increasing; across queues, (TS, Queue, Seq) is the
	// total order Merge reconstructs.
	Seq uint64
	// Rule is the index of the filter rule that accepted the packet, or
	// -1 for the default action.
	Rule int
	// Hash is the hardware packet digest (FNV over the first HashBytes),
	// 0 when hashing is disabled.
	Hash uint64
	// Trace carries the frame's per-hop egress timestamps (stamped by
	// forwarding devices with a hop ID), so sinks can decompose latency
	// hop by hop instead of only end to end.
	Trace wire.HopTrace
}

// Steer selects the policy distributing accepted packets across capture
// queues. All policies are deterministic, so multi-queue captures stay
// reproducible packet for packet.
type Steer uint8

const (
	// SteerHash spreads packets by the hardware digest (RSS-style): one
	// flow always lands on one queue, preserving per-flow record order.
	// When Config.HashBytes is 0 the steering stage hashes the first
	// SteerHashBytes of the (possibly thinned) packet internally without
	// publishing a digest in Record.Hash.
	SteerHash Steer = iota
	// SteerRoundRobin deals accepted packets across queues in strict
	// rotation — perfectly balanced, but one flow's records interleave
	// across queues (hardware timestamps restore global order).
	SteerRoundRobin
)

// SteerHashBytes is how many leading packet bytes the SteerHash policy
// digests when Config.HashBytes is 0: enough to cover the L2–L4 headers
// that distinguish flows.
const SteerHashBytes = 64

// QueueConfig parameterises one capture queue: a DMA descriptor ring
// drained by its own host core. Zero-valued fields take the defaults
// documented on each, so []QueueConfig{{}, {}} declares two default
// queues.
type QueueConfig struct {
	// RingSize is the queue's descriptor ring capacity in packets
	// (default 1024).
	RingSize int
	// HostPerPacket is the host-side fixed cost to consume one record:
	// DMA completion, ring bookkeeping, syscall amortisation (default
	// 120 ns).
	HostPerPacket sim.Duration
	// HostPerByte is the per-byte DMA/copy cost (default 0.8 ns/B,
	// ≈1.25 GB/s effective host path — the reason 10 Gb/s line-rate
	// capture needs thinning, and one host core tops out near 6 Mpps
	// even on thinned packets). A negative value selects zero cost (an
	// idealised infinitely fast host, used when a test wants to count at
	// the MAC rather than model the host).
	HostPerByte sim.Duration
	// Sink receives this queue's records in delivery order; nil falls
	// back to the Config-level Sink.
	Sink func(Record)
}

// Config parameterises a Monitor.
type Config struct {
	// Filters is the hardware wildcard table; nil captures everything.
	// A rule whose PinQueue is set steers its matches to that queue,
	// overriding the Steer policy.
	Filters *filter.Table
	// SnapLen thins captured packets to this many bytes (0 = full
	// packet). Per-rule SnapLen overrides take precedence.
	SnapLen int
	// HashBytes computes a digest over the first n bytes of each
	// accepted packet (0 disables hashing).
	HashBytes int

	// Queues declares one capture queue per entry; nil means one default
	// queue.
	Queues []QueueConfig
	// Steer picks the steering policy across queues (default SteerHash).
	// Irrelevant with a single queue.
	Steer Steer

	// Sink receives records in delivery order; queues without their own
	// QueueConfig.Sink share it. A nil sink still models the ring
	// (records are counted and discarded at the host).
	Sink func(Record)

	// RecycleRecords returns each record's Data buffer to an internal
	// per-queue free list once the Sink has returned, making the
	// steady-state capture path allocation-free. The Sink must then copy
	// any bytes it keeps past the callback. Always on for queues whose
	// effective sink is nil (nobody can retain the buffer).
	RecycleRecords bool
}

// Validate reports configuration errors: an unknown Steer policy, an
// explicitly empty Queues slice, and negative per-queue ring or host-cost
// parameters. A negative HostPerByte is legal (it means zero cost).
func (c *Config) Validate() error {
	if c.Steer > SteerRoundRobin {
		return fmt.Errorf("mon: unknown Steer policy %d", c.Steer)
	}
	if c.Queues != nil && len(c.Queues) == 0 {
		return fmt.Errorf("mon: Queues set but empty (omit it for one default queue)")
	}
	for i, q := range c.Queues {
		if q.RingSize < 0 {
			return fmt.Errorf("mon: queue %d: negative RingSize %d", i, q.RingSize)
		}
		if q.HostPerPacket < 0 {
			return fmt.Errorf("mon: queue %d: negative HostPerPacket %v", i, q.HostPerPacket)
		}
	}
	return nil
}

// queue is one capture queue: an independent head-indexed descriptor
// ring drained by its own reusable DMA event, with its own drop
// accounting and buffer free list.
type queue struct {
	m   *Monitor
	idx int

	ringSize  int
	perPacket sim.Duration
	perByte   sim.Duration
	sink      func(Record)
	recycle   bool

	// ring is a head-indexed FIFO written in place: admission fills the
	// next slot, head advances on delivery, and merged advances once the
	// sink (or the Merge) has seen the record. ring[merged:head] holds
	// delivered records a Merge has not emitted yet; pending occupancy
	// is len(ring)-head. The slice is compacted only when the dead
	// prefix before merged dominates, so the per-packet cost is O(1)
	// with no copy-down.
	ring     []Record
	head     int
	merged   int
	draining bool
	drainEv  sim.Event // reusable: at most one DMA completion in flight
	// nextFinish is the instant the in-flight DMA completes (valid while
	// draining). Admission runs ahead of the engine clock through a train
	// and uses it to apply completions virtually, between two frame
	// arrivals, without firing the event.
	nextFinish sim.Time
	// touched marks the queue as dirty inside one admission, so the
	// fixup pass settles each queue's real drain event exactly once.
	touched bool

	// bufFree recycles record buffers when the queue's recycle flag
	// allows it; bounded by the peak number of records in the ring.
	bufFree [][]byte

	// seq numbers ring admissions; stamped into Record.Seq so a merge
	// can break equal-timestamp ties deterministically.
	seq uint64

	seen      stats.Counter // accepted packets steered to this queue
	accepted  stats.Counter // admitted to the descriptor ring
	ringDrops uint64        // lost to ring overflow
	delivered stats.Counter // reached the host sink
}

// QueueStats is one capture queue's accounting, the per-queue view of
// the loss-limited path.
type QueueStats struct {
	// Seen counts accepted packets the steering stage sent this queue.
	Seen stats.Counter
	// Accepted counts packets admitted to the descriptor ring.
	Accepted stats.Counter
	// RingDrops counts packets lost to this queue's ring overflow.
	RingDrops uint64
	// Delivered counts records this queue's host core consumed.
	Delivered stats.Counter
	// Depth is the instantaneous ring occupancy.
	Depth int
}

// Monitor is the capture engine attached to one card port.
type Monitor struct {
	port *netfpga.Port
	cfg  Config
	eng  *sim.Engine

	queues []queue
	rr     int    // round-robin cursor
	merge  *Merge // when set, emits every queue's records from their slots
	// scratch collects the queues one admission touched (reused across
	// runs, so admission allocates nothing).
	scratch []*queue

	seen     stats.Counter // all frames presented to the pipeline
	accepted stats.Counter // past the filter stage
	filtered uint64        // dropped by filter verdict

	// maxTS is the high-water mark of hardware timestamps presented to
	// the pipeline. MAC timestamps are latched in arrival order on one
	// engine, so every future record carries TS ≥ maxTS — the watermark
	// a streaming merge needs to know when a delivered record can no
	// longer be preceded by anything still in flight.
	maxTS timing.Timestamp

	// Loss attribution: when a drop site is attached
	// (topo.AttachMonitor threads the scenario ledger), filter rejects
	// and per-queue ring overflows report as (hop, reason) so capture
	// loss composes with the forwarding hops' drops in one LossMap.
	ledger *wire.DropLedger
	hop    int
}

// SetDropSite attaches the scenario's loss-attribution ledger; the
// monitor reports filter rejects and DMA ring overflows at the given
// hop ID.
func (m *Monitor) SetDropSite(ledger *wire.DropLedger, hop int) {
	m.ledger, m.hop = ledger, hop
}

// New builds a capture engine on the port, taking over its OnReceiveRun
// hook. It rejects invalid configurations: Validate errors, more queues
// than the card's per-port DMA budget (netfpga.Config.CaptureQueues),
// and filter rules pinning a queue the monitor does not have.
func New(port *netfpga.Port, cfg Config) (*Monitor, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	qcfgs := cfg.Queues
	if qcfgs == nil {
		qcfgs = []QueueConfig{{}}
	}
	nq := len(qcfgs)
	if budget := port.Card().CaptureQueues(); nq > budget {
		return nil, fmt.Errorf("mon: %d capture queues exceed the card's per-port DMA budget of %d", nq, budget)
	}
	if cfg.Filters != nil {
		for i := 0; i < cfg.Filters.Len(); i++ {
			if pin := cfg.Filters.Rule(i).PinQueue; pin > nq {
				return nil, fmt.Errorf("mon: filter rule %d pins queue %d, but the monitor has %d queue(s)", i, pin, nq)
			}
		}
	}

	m := &Monitor{port: port, cfg: cfg, eng: port.Card().Engine}
	m.queues = make([]queue, nq)
	for i, qc := range qcfgs {
		q := &m.queues[i]
		q.m, q.idx = m, i
		q.ringSize = qc.RingSize
		if q.ringSize == 0 {
			q.ringSize = 1024
		}
		q.perPacket = qc.HostPerPacket
		if q.perPacket == 0 {
			q.perPacket = 120 * sim.Nanosecond
		}
		q.perByte = qc.HostPerByte
		if q.perByte == 0 {
			q.perByte = sim.Picoseconds(800)
		}
		if q.perByte < 0 {
			q.perByte = 0 // negative selects the idealised zero-cost host
		}
		q.sink = qc.Sink
		if q.sink == nil {
			q.sink = cfg.Sink
		}
		q.recycle = cfg.RecycleRecords || q.sink == nil
		q.drainEv = sim.NewEvent(q.drainDone)
	}

	port.OnReceiveRun = m.receive
	return m, nil
}

// Attach is New panicking on configuration errors — the spelling for
// rigs whose capture configuration is static. Attach(port, Config{})
// builds a monitor with one default queue.
func Attach(port *netfpga.Port, cfg Config) *Monitor {
	m, err := New(port, cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// classify runs one frame's bytes through the hardware stages that
// precede steering: the filter verdict, thinning to the effective snap
// length (a matching rule's SnapLen overrides the Config's), and the
// digest over the captured bytes. It returns the captured bytes, the
// index of the accepting rule (-1 for the default action), the digest,
// and whether the filter dropped the frame.
func (m *Monitor) classify(data []byte) (capture []byte, rule int, hash uint64, drop bool) {
	snap := m.cfg.SnapLen
	rule = -1
	if m.cfg.Filters != nil {
		act, idx, ruleSnap := m.cfg.Filters.Match(data)
		rule = idx
		if act == filter.Drop {
			return data, rule, 0, true
		}
		if ruleSnap > 0 {
			snap = ruleSnap
		}
	}
	if snap > 0 && len(data) > snap {
		data = data[:snap]
	}
	if m.cfg.HashBytes > 0 {
		hash = packet.PacketDigest(data, m.cfg.HashBytes)
	}
	return data, rule, hash, false
}

// receive is the one admission path: the port hands every delivered run
// — a bare frame is a run of one — to the monitor in one call. The engine
// clock sits at the first frame's last-bit arrival; every later frame's
// arrival instant is recovered arithmetically at the train's wire rate,
// its MAC timestamp is latched at that instant (in arrival order, so
// stateful clocks step exactly once per frame), and any DMA completions
// due at or before an arrival are applied first, virtually, with their
// exact completion instants. Counters, drop decisions and record
// contents are therefore independent of how frames were grouped into
// runs; only the event count changes.
//
// Uniform trains (byte-identical frames) additionally hoist the per-flow
// work — filter verdict, effective snap length, digest, and (for
// non-round-robin policies) the steering decision — out of the per-frame
// loop: one classification covers the run.
//
//lint:hotpath
func (m *Monitor) receive(r wire.Run, at sim.Time) {
	clock := m.port.Card().Clock
	m.scratch = m.scratch[:0]

	n := r.Len()
	hoist := n > 1 && r.Train().Uniform
	hoisted := false
	var (
		hDrop bool
		hRule int
		hLen  int // effective post-thinning capture length
		hHash uint64
		hQ    *queue // hoisted steer result; nil when per-frame steering is needed
	)

	lb := at
	for i := 0; i < n; i++ {
		f := r.Frame(i)
		if i > 0 {
			lb = lb.Add(wire.SerializationTime(f.Size, r.Train().Rate))
		}
		ts := clock.Now(lb)
		wb := wire.WireBytes(f.Size)
		m.seen.Add(wb)
		if ts > m.maxTS {
			m.maxTS = ts
		}

		var (
			data    []byte
			ruleIdx int
			hash    uint64
			drop    bool
		)
		if hoisted {
			data, ruleIdx, hash, drop = f.Data[:hLen], hRule, hHash, hDrop
		} else {
			data, ruleIdx, hash, drop = m.classify(f.Data)
			if hoist {
				hoisted = true
				hDrop, hRule, hLen, hHash = drop, ruleIdx, len(data), hash
			}
		}
		if drop {
			m.filtered++
			m.ledger.Report(m.hop, wire.DropFilterReject, 1)
			continue
		}

		m.accepted.Add(wb)
		var q *queue
		if hQ != nil {
			q = hQ
		} else {
			q = m.steer(data, ruleIdx, hash)
			if hoisted && m.cfg.Steer != SteerRoundRobin {
				// Pins and hash steering are pure functions of the (hoisted)
				// classification, so the whole run lands on one queue; only
				// round-robin advances per frame.
				hQ = q
			}
		}
		q.seen.Add(wb)

		q.advanceTo(lb)
		if !q.admit(f, data, lb, ts, ruleIdx, hash) {
			continue
		}
		if !q.draining {
			// The host core was idle when this record landed: the DMA
			// starts at the arrival instant.
			q.draining = true
			q.nextFinish = lb.Add(q.perPacket + sim.Duration(len(data))*q.perByte)
		}
		if !q.touched {
			q.touched = true
			m.scratch = append(m.scratch, q)
		}
	}

	// Settle the real DMA completion event of every queue the run
	// touched: still draining → one event at the virtual horizon (left
	// alone when it is already queued there, which is the common case of
	// a frame joining a busy ring); gone idle → any pending event is
	// stale and cancels.
	for _, q := range m.scratch {
		q.touched = false
		ev := &q.drainEv
		switch {
		case !q.draining:
			ev.Cancel()
		case !ev.Pending() || ev.Cancelled() || ev.At() != q.nextFinish:
			m.eng.Arm(ev, q.nextFinish)
		}
	}
}

// advanceTo applies, virtually, every DMA completion due at or before
// instant t. Admission runs ahead of the engine clock through a train,
// so completions falling between two frame arrivals are delivered here
// carrying their exact completion instants. The rule it enforces: a
// completion due at or before an arrival is applied before that frame is
// admitted, whatever the engine's same-instant order between the
// completion event and the delivery (a keyed cable's delivery sorts
// before the completion's PrioDefault).
func (q *queue) advanceTo(t sim.Time) {
	for q.draining && q.nextFinish <= t {
		q.complete()
	}
}

// complete applies the in-flight DMA completion at its instant and starts
// the next record's DMA, if the ring holds one.
func (q *queue) complete() {
	q.deliverHead(q.nextFinish)
	if len(q.ring) == q.head {
		q.draining = false
		return
	}
	q.nextFinish = q.nextFinish.Add(q.perPacket + sim.Duration(len(q.ring[q.head].Data))*q.perByte)
}

// steer picks the capture queue for one accepted packet: rule pins win,
// then the configured policy. Single-queue monitors skip the stage
// entirely.
func (m *Monitor) steer(data []byte, ruleIdx int, hash uint64) *queue {
	nq := len(m.queues)
	if nq == 1 {
		return &m.queues[0]
	}
	if ruleIdx >= 0 {
		if pin := m.cfg.Filters.Rule(ruleIdx).PinQueue; pin > 0 {
			// New validates the pins present at attach time, but the
			// table stays live (rules may be appended mid-capture, as on
			// real hardware), so an out-of-range pin wraps
			// deterministically instead of panicking the hot path.
			return &m.queues[(pin-1)%nq]
		}
	}
	if m.cfg.Steer == SteerRoundRobin {
		q := &m.queues[m.rr]
		m.rr++
		if m.rr == nq {
			m.rr = 0
		}
		return q
	}
	if m.cfg.HashBytes <= 0 {
		hash = packet.PacketDigest(data, SteerHashBytes)
	}
	// packet.Mix64 whitens the digest before the queue modulo (the RSS
	// indirection step); switchsim's ECMP member select shares it, so
	// spray and steer disagree only by modulus, never by hash quality.
	return &m.queues[int(packet.Mix64(hash)%uint64(nq))]
}

// admit writes one accepted packet into the next ring slot, or counts a
// ring-full drop and reports false. The slot owns a copy of the captured
// bytes (the frame buffer belongs to the datapath and may be reused), in
// a buffer recycled from released records when the free list has one.
func (q *queue) admit(f *wire.Frame, data []byte, at sim.Time, ts timing.Timestamp, rule int, hash uint64) bool {
	if q.pending() >= q.ringSize {
		q.ringDrops++
		q.m.ledger.Report(q.m.hop, wire.DropRingFull, 1)
		return false
	}
	q.accepted.Add(wire.WireBytes(f.Size))
	n := len(q.ring)
	q.ring = slices.Grow(q.ring, 1)[:n+1]
	r := &q.ring[n]
	r.Data = append(q.freeBuf(), data...)
	r.WireSize, r.TS, r.Arrival, r.Delivered = f.Size, ts, at, 0
	r.Port, r.Queue, r.Seq, r.Rule, r.Hash = q.m.port.Index(), q.idx, q.seq, rule, hash
	r.Trace = f.Trace
	q.seq++
	return true
}

// freeBuf pops a released record buffer (empty, with capacity) off the
// free list, or returns nil when the list is dry.
func (q *queue) freeBuf() []byte {
	k := len(q.bufFree)
	if k == 0 {
		return nil
	}
	buf := q.bufFree[k-1]
	q.bufFree = q.bufFree[:k-1]
	return buf
}

// drain starts the DMA of the record at the ring head when the host
// core is idle.
//
//lint:hotpath
func (q *queue) drain() {
	if q.draining || len(q.ring) == q.head {
		return
	}
	q.draining = true
	cost := q.perPacket + sim.Duration(len(q.ring[q.head].Data))*q.perByte
	q.nextFinish = q.m.eng.Now().Add(cost)
	q.m.eng.Arm(&q.drainEv, q.nextFinish)
}

// deliverHead completes the in-flight DMA for the record at the ring
// head, stamping the given completion instant in its slot. Shared by the
// real completion event and admission's virtual advance. With a
// Merge attached the record stays in its slot until the merge emits it;
// otherwise the sink sees it and the slot is released at once.
func (q *queue) deliverHead(doneAt sim.Time) {
	r := &q.ring[q.head]
	r.Delivered = doneAt
	q.delivered.Add(r.WireSize)
	q.head++
	if q.m.merge != nil {
		q.m.merge.advance(false)
		return
	}
	if q.sink != nil {
		q.sink(*r)
	}
	q.release()
}

// release retires the oldest delivered record once its consumer has
// returned: its buffer goes back to the free list when recycling is on,
// and the ring compacts once the released prefix dominates a non-trivial
// ring, so the backing array stays proportional to occupancy.
func (q *queue) release() {
	if q.recycle {
		q.bufFree = append(q.bufFree, q.ring[q.merged].Data[:0])
	}
	q.merged++
	if q.merged >= 256 && q.merged*2 >= len(q.ring) {
		n := copy(q.ring, q.ring[q.merged:])
		clear(q.ring[n:])
		q.ring = q.ring[:n]
		q.head -= q.merged
		q.merged = 0
	}
}

// pending returns the queue's undelivered ring occupancy.
func (q *queue) pending() int { return len(q.ring) - q.head }

// drainDone is the DMA-completion handler for the record at the ring
// head.
//
//lint:hotpath
func (q *queue) drainDone() {
	q.deliverHead(q.m.eng.Now())
	q.draining = false
	q.drain()
}

// Seen returns counters over every frame presented to the pipeline.
func (m *Monitor) Seen() stats.Counter { return m.seen }

// Accepted returns counters over frames that passed the filter stage.
func (m *Monitor) Accepted() stats.Counter { return m.accepted }

// Filtered returns the number of frames dropped by filter verdicts.
func (m *Monitor) Filtered() uint64 { return m.filtered }

// NumQueues returns the number of capture queues.
func (m *Monitor) NumQueues() int { return len(m.queues) }

// QueueStats returns queue i's accounting.
func (m *Monitor) QueueStats(i int) QueueStats {
	q := &m.queues[i]
	return QueueStats{
		Seen:      q.seen,
		Accepted:  q.accepted,
		RingDrops: q.ringDrops,
		Delivered: q.delivered,
		Depth:     q.pending(),
	}
}

// RingDrops returns frames lost to DMA ring overflow across all queues —
// the loss-limited path's loss counter.
func (m *Monitor) RingDrops() uint64 {
	var n uint64
	for i := range m.queues {
		n += m.queues[i].ringDrops
	}
	return n
}

// Delivered returns counters over records that reached the host sinks,
// summed across queues.
func (m *Monitor) Delivered() stats.Counter {
	var c stats.Counter
	for i := range m.queues {
		c.Packets += m.queues[i].delivered.Packets
		c.Bytes += m.queues[i].delivered.Bytes
	}
	return c
}

// RingDepth returns the instantaneous ring occupancy summed across
// queues.
func (m *Monitor) RingDepth() int {
	d := 0
	for i := range m.queues {
		d += m.queues[i].pending()
	}
	return d
}

// LossFraction returns ring drops as a fraction of accepted frames.
func (m *Monitor) LossFraction() float64 {
	if m.accepted.Packets == 0 {
		return 0
	}
	return float64(m.RingDrops()) / float64(m.accepted.Packets)
}
