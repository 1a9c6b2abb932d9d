package wire

import (
	"osnt/internal/sim"
)

// Exporter receives the traffic a boundary link would otherwise deliver
// locally. It is the egress half of a cross-shard cable: the transmitting
// shard's link serialises exactly as usual (busying the wire, accounting
// frames and bytes, computing the propagation-delayed first-bit/last-bit
// instants) and then hands the run to the exporter instead of arming a
// local delivery event. Ownership transfers with the call — the link
// never touches the frames again, so the destination shard can release
// them into the (thread-safe) pool without sharing.
//
// Export happens synchronously inside Transmit, on the transmitting
// shard's goroutine; implementations must not touch any other shard's
// state. The shard runtime buffers exports per (src, dst) pair and
// replays them into the destination engine at the next barrier, sorted
// by (last-bit instant, delivery key, source shard, export sequence).
//
// key is the boundary link's structural delivery key (SetDeliveryKey):
// the same-instant priority its delivery events carry. Replaying a
// boundary delivery at (lastBit, key) puts it in exactly the heap
// position the link's own event would occupy in a single-engine run —
// same-instant arrivals at a device order by cable, a property of the
// topology rather than of scheduling history — which is what makes the
// sharded digests byte-identical, not merely statistically equal.
type Exporter interface {
	// Export hands over one run whose first frame's first and last bits
	// arrive at the far end at the given instants; a train's later
	// frames follow arithmetically at its Rate (already set to the link
	// rate), so a train crosses the cut whole.
	Export(r Run, firstBit, lastBit sim.Time, key uint64)
}

// NewExportLink builds a boundary link: it serialises like NewLink but
// delivers through exp instead of a local peer. The propagation delay is
// the conservative-lookahead budget of the cut — it must be strictly
// positive, or the destination shard could observe traffic inside its
// current safe window (internal/topo rejects zero-delay cross-shard
// edges for exactly this reason).
func NewExportLink(e *sim.Engine, r Rate, d sim.Duration, exp Exporter) *Link {
	if d <= 0 {
		panic("wire: export link needs a positive propagation delay (the lookahead budget)")
	}
	return &Link{Engine: e, Rate: r, Delay: d, exporter: exp, deliverPrio: sim.PrioDefault}
}
