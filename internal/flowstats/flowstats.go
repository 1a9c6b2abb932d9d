// Package flowstats is the stateful per-flow analytics layer of the
// capture path: a cache-efficient, allocation-free flow table keyed on
// the monitor's hardware packet digest, accumulating per-flow counters
// and Dapper-style passive diagnosis — latency from embedded transmit
// timestamps (or the frame's first HopTrace stamp when none is
// embedded), reordering from transmit-timestamp inversions, and loss
// inferred from transmit-timestamp gaps — plus count-min and
// space-saving sketches (sketch.go) for when an exact table cannot fit
// the flow population.
//
// The consumer is a merged capture stream (mon.Merge): per-flow state
// like "last transmit timestamp" is only meaningful if records arrive
// in global hardware-timestamp order, which is exactly what the merge
// reconstructs from the per-queue DMA rings.
package flowstats

import (
	"osnt/internal/packet"
	"osnt/internal/sim"
	"osnt/internal/timing"
	"osnt/internal/wire"
)

// Sample is one observed packet, as the capture path describes it.
type Sample struct {
	// Digest identifies the flow: the monitor's hardware packet digest
	// over the frame's headers (Config.HashBytes must stop short of any
	// embedded timestamp, or every packet becomes its own flow).
	Digest uint64
	// RxTS is the hardware receive timestamp.
	RxTS timing.Timestamp
	// TxTS is the transmit timestamp embedded by the generator; valid
	// only when HasTx is set.
	TxTS timing.Timestamp
	// HasTx reports whether TxTS carries an embedded timestamp.
	HasTx bool
	// Wire is the FCS-inclusive wire size in bytes.
	Wire int
	// Trace is the frame's per-hop egress trace; when no timestamp is
	// embedded, the first hop's stamp serves as the transmit-side
	// latency reference.
	Trace wire.HopTrace
}

// Flow is one flow's accumulated state. The layout keeps each entry in
// a single contiguous slab (see FlowTable) with the hot-path fields —
// digest, packet counter, ordering state — at the front.
type Flow struct {
	// Digest is the flow key (0 is a legal key; occupancy is tracked
	// separately).
	Digest uint64
	// Packets and Bytes count observed records (wire bytes).
	Packets uint64
	Bytes   uint64
	// FirstRx/LastRx bound the flow's observation window.
	FirstRx timing.Timestamp
	LastRx  timing.Timestamp
	// Reorders counts transmit-timestamp inversions: a packet sent
	// before its predecessor but captured after it.
	Reorders uint64
	// Holes is the inferred loss count: transmit gaps that are integer
	// multiples of the flow's smallest observed gap indicate packets
	// that were sent in between but never captured (exact for CBR
	// flows, an estimate otherwise).
	Holes uint64

	lastTx timing.Timestamp
	hasTx  bool
	minGap sim.Duration
	latSum int64 // picoseconds
	latCnt uint64
	latMax sim.Duration
	used   bool
}

// LatencyMean returns the mean one-way latency, or 0 with no samples.
func (f *Flow) LatencyMean() sim.Duration {
	if f.latCnt == 0 {
		return 0
	}
	return sim.Duration(f.latSum / int64(f.latCnt))
}

// LatencyMax returns the largest observed one-way latency.
func (f *Flow) LatencyMax() sim.Duration { return f.latMax }

// FlowTable is an exact per-flow state table built for the per-packet
// hot path: one contiguous []Flow slab, power-of-two sized, open
// addressing with linear probing on the Mix64-whitened digest (the same
// whitening step RSS steering and ECMP spray use). Everything is
// preallocated at construction and Observe never grows the table —
// past the occupancy limit new flows are counted in Overflow instead of
// triggering a rehash mid-capture, which keeps Observe allocation-free
// and O(1) at any load (the Ros-Giralt-style design point: bounded
// probes, no pointers, no per-flow boxes for the cache to chase).
type FlowTable struct {
	entries  []Flow
	mask     uint64
	count    int
	limit    int
	overflow uint64
}

// NewFlowTable returns a table with capacity rounded up to a power of
// two (minimum 16). Flows are admitted until 7/8 occupancy; beyond
// that, new flows go to the overflow counter (existing flows keep
// updating), so probe chains stay short.
func NewFlowTable(capacity int) *FlowTable {
	n := 16
	for n < capacity {
		n <<= 1
	}
	return &FlowTable{
		entries: make([]Flow, n),
		mask:    uint64(n - 1),
		limit:   n - n/8,
	}
}

// Len returns the number of tracked flows.
func (t *FlowTable) Len() int { return t.count }

// Overflow returns how many samples arrived for flows the table could
// not admit.
func (t *FlowTable) Overflow() uint64 { return t.overflow }

// lookup returns the slot for digest: its current entry, or the empty
// slot where it would be inserted.
func (t *FlowTable) lookup(digest uint64) *Flow {
	i := packet.Mix64(digest) & t.mask
	for {
		f := &t.entries[i]
		if !f.used || f.Digest == digest {
			return f
		}
		i = (i + 1) & t.mask
	}
}

// Observe folds one sample into its flow's state, admitting the flow if
// the table has room. It reports whether the sample was tracked.
func (t *FlowTable) Observe(s Sample) bool {
	f := t.lookup(s.Digest)
	if !f.used {
		if t.count >= t.limit {
			t.overflow++
			return false
		}
		t.count++
		f.used = true
		f.Digest = s.Digest
		f.FirstRx = s.RxTS
	}
	f.Packets++
	f.Bytes += uint64(s.Wire)
	f.LastRx = s.RxTS

	// Latency: embedded TX timestamp first, else the first HopTrace
	// stamp (the earliest hardware tap the frame crossed).
	txRef := s.TxTS
	haveRef := s.HasTx
	if !haveRef && s.Trace.Len() > 0 {
		txRef = timing.FromSim(s.Trace.At(0).At)
		haveRef = true
	}
	if haveRef {
		lat := s.RxTS.Sub(txRef)
		if lat < 0 {
			lat = 0
		}
		if lat > f.latMax {
			f.latMax = lat
		}
		f.latSum += int64(lat)
		f.latCnt++
	}

	// Ordering and loss inference need the true transmit order, which
	// only the embedded timestamp carries.
	if s.HasTx {
		if f.hasTx {
			if s.TxTS < f.lastTx {
				f.Reorders++
				return true // keep lastTx: the late packet is old news
			}
			gap := s.TxTS.Sub(f.lastTx)
			if gap > 0 {
				if f.minGap == 0 || gap < f.minGap {
					f.minGap = gap
				}
				// A gap of (k+1)·minGap means k sends fell in between
				// and were never captured. Round to the nearest
				// multiple: timestamps are quantised, not exact.
				if missed := (int64(gap)+int64(f.minGap)/2)/int64(f.minGap) - 1; missed > 0 {
					f.Holes += uint64(missed)
				}
			}
		}
		f.hasTx, f.lastTx = true, s.TxTS
	}
	return true
}

// Top returns up to k tracked flows ordered by packet count (ties by
// ascending digest), for report rendering. It allocates the result
// slice — call it off the hot path.
func (t *FlowTable) Top(k int) []*Flow {
	var top []*Flow
	for i := range t.entries {
		f := &t.entries[i]
		if !f.used {
			continue
		}
		pos := len(top)
		for pos > 0 && flowMore(f, top[pos-1]) {
			pos--
		}
		if pos >= k {
			continue
		}
		if len(top) < k {
			top = append(top, nil)
		}
		copy(top[pos+1:], top[pos:])
		top[pos] = f
	}
	return top
}

// flowMore orders flows by descending packets, then ascending digest —
// a deterministic total order for reports.
func flowMore(a, b *Flow) bool {
	if a.Packets != b.Packets {
		return a.Packets > b.Packets
	}
	return a.Digest < b.Digest
}

// Flows calls fn for every tracked flow, in table order.
func (t *FlowTable) Flows(fn func(*Flow)) {
	for i := range t.entries {
		if t.entries[i].used {
			fn(&t.entries[i])
		}
	}
}
