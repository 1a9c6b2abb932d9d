package wire

import (
	"osnt/internal/sim"
)

// Exporter receives the traffic a boundary link would otherwise deliver
// locally. It is the egress half of a cross-shard cable: the transmitting
// shard's link serialises exactly as usual (busying the wire, accounting
// frames and bytes, computing the propagation-delayed first-bit/last-bit
// instants) and then hands the frame or train to the exporter instead of
// arming a local delivery event. Ownership transfers with the call — the
// link never touches the frame again, so the destination shard can
// release it into the (thread-safe) pool without sharing.
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
	// ExportFrame hands over one frame whose first and last bits arrive
	// at the far end at the given instants.
	ExportFrame(f *Frame, firstBit, lastBit sim.Time, key uint64)
	// ExportTrain hands over a back-to-back run; the instants are the
	// first frame's window and the rest follow arithmetically at t.Rate
	// (already set to the link rate).
	ExportTrain(t *Train, firstBit, lastBit sim.Time, key uint64)
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

// DeliverTrain hands a train to an endpoint the way a link delivery event
// would: batch-aware peers get the whole run in one call, and everyone
// else gets it through Unbundle. start and at are the first frame's
// first-bit and last-bit arrival instants. The train container is
// consumed either way.
func DeliverTrain(peer Endpoint, t *Train, start, at sim.Time) {
	if tep, ok := peer.(TrainEndpoint); ok {
		tep.ReceiveTrain(t, start, at)
		return
	}
	Unbundle(peer, t, start, at)
}

// Unbundle replays a train as per-frame Receive calls on peer, in order,
// recovering each frame's boundary instants arithmetically (frames abut,
// so frame k's first bit arrives the instant frame k-1's last bit did).
// start and at are the first frame's first-bit and last-bit arrival
// instants. It consumes the train container; each frame passes to peer.
// It is the fallback of every device that cannot take a run whole.
func Unbundle(peer Endpoint, t *Train, start, at sim.Time) {
	fb, lb := start, at
	for i, f := range t.Frames {
		t.Frames[i] = nil
		peer.Receive(f, fb, lb)
		if i+1 < len(t.Frames) {
			fb = lb
			lb = fb.Add(SerializationTime(t.Frames[i+1].Size, t.Rate))
		}
	}
	t.Frames = t.Frames[:0]
	t.Recycle()
}
