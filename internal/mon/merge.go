package mon

// Merge reconstructs the global capture order of a multi-queue monitor.
//
// The multi-queue DMA engine trades order for throughput: each queue's
// host core delivers records in queue-local FIFO order, and records of
// different queues interleave however their drain events happen to fire
// — which is exactly the cross-queue ordering gap real RSS capture
// stacks have. Any stateful consumer (flow tables, sequence trackers,
// ordered PCAP output) needs the streams put back together by hardware
// timestamp, and it needs the merge to be deterministic when two queues
// hold the same timestamp.
//
// Merge is that k-way merge, streaming and allocation-free at steady
// state. It takes over every queue's sink: a delivered record stays in
// its ring slot, and the merge emits from the slots in ascending
// (TS, Queue, Seq) key order — timestamp first, then queue index, then
// per-queue admission sequence, so equal hardware timestamps across
// queues break ties identically at any queue count and on any engine
// schedule. Emission is eager: a delivered record is emitted as soon as
// no other queue can still produce a smaller key, which the monitor's
// timestamp watermark (timestamps are latched in arrival order) and the
// per-queue ring occupancy decide exactly:
//
//   - every queue holding delivered, unmerged records will only ever
//     deliver larger keys (per-queue keys are strictly increasing), and
//   - a queue holding none can only produce a smaller key if its
//     descriptor ring still holds undelivered records, or if the
//     candidate's timestamp has not fallen below the watermark (a
//     future arrival could still tie it and steer to a lower queue).
//
// Records held back by the watermark at the end of a run are emitted by
// Flush, which callers invoke once the engine has drained.
//
// Record data lifetime: a record stays in its descriptor-ring slot from
// admission until Merge emits it — the merge owns no buffers and copies
// no bytes. Emitting a record hands the merged sink the slot's contents
// and then returns its Data buffer to that queue's free list, so the
// sink must copy anything it keeps past the callback — the same contract
// as Config.RecycleRecords.
type Merge struct {
	m    *Monitor
	sink func(Record)

	emitted uint64

	// Order self-check: the last emitted key (only TS, Queue and Seq are
	// set), and how many emissions compared below it. Always zero unless
	// the merge is misused (e.g. Flush while traffic is still flowing).
	last      Record
	violation uint64
}

// NewMerge attaches a merging stage to the monitor: every capture
// queue's records are re-interleaved into ascending (TS, Queue, Seq)
// order and delivered to sink. It takes over all queue sinks (replacing
// Config.Sink and any QueueConfig.Sink) and forces per-queue buffer
// recycling, since emitted records leave the ring. Attach it before
// traffic runs; call Flush after the engine drains to release the
// records the watermark held back.
func NewMerge(m *Monitor, sink func(Record)) *Merge {
	if sink == nil {
		panic("mon: NewMerge needs a sink")
	}
	g := &Merge{m: m, sink: sink}
	m.merge = g
	for i := range m.queues {
		m.queues[i].recycle = true
	}
	return g
}

// Emitted returns how many records have been delivered to the merged
// sink.
func (g *Merge) Emitted() uint64 { return g.emitted }

// Pending returns how many delivered records wait in their ring slots
// for the watermark (Flush releases them).
func (g *Merge) Pending() int {
	n := 0
	for i := range g.m.queues {
		n += g.m.queues[i].head - g.m.queues[i].merged
	}
	return n
}

// OrderViolations counts emissions whose key compared below their
// predecessor's. It is zero by construction unless the merge is misused
// (Flush mid-traffic); experiments assert it to keep the watermark
// logic honest.
func (g *Merge) OrderViolations() uint64 { return g.violation }

// keyLess orders records by (TS, Queue, Seq).
func keyLess(a, b *Record) bool {
	if a.TS != b.TS {
		return a.TS < b.TS
	}
	if a.Queue != b.Queue {
		return a.Queue < b.Queue
	}
	return a.Seq < b.Seq
}

// Flush emits every delivered record still unmerged, in key order. Call it once the
// engine has drained: the final records of a run sit at the watermark
// (no later arrival exists to push it past them), so only the caller
// knows they are safe to release.
func (g *Merge) Flush() { g.advance(true) }

// advance emits delivered records for as long as the oldest unmerged
// record of some queue is provably the global minimum (always, when
// final).
func (g *Merge) advance(final bool) {
	for {
		// One pass finds the smallest unmerged key and whether some queue
		// with nothing unmerged could still produce a smaller one: it can
		// if undelivered records sit in its descriptor ring, or if the
		// candidate's timestamp is not yet strictly below the watermark (a
		// future arrival with an equal timestamp could steer to it and,
		// on a lower queue index, sort first).
		var min *queue
		idle, busy := false, false
		for i := range g.m.queues {
			q := &g.m.queues[i]
			switch {
			case q.merged < q.head:
				if min == nil || keyLess(&q.ring[q.merged], &min.ring[min.merged]) {
					min = q
				}
			case q.pending() > 0:
				busy = true
			default:
				idle = true
			}
		}
		if min == nil || !final && (busy || idle && min.ring[min.merged].TS >= g.m.maxTS) {
			return
		}
		g.emit(min)
	}
}

// emit delivers the queue's oldest unmerged record from its slot and
// releases the slot.
func (g *Merge) emit(q *queue) {
	rec := &q.ring[q.merged]
	if g.emitted > 0 && keyLess(rec, &g.last) {
		g.violation++
	}
	g.last.TS, g.last.Queue, g.last.Seq = rec.TS, rec.Queue, rec.Seq
	g.emitted++
	g.sink(*rec)
	q.release()
}
