package wire

import "fmt"

// DropReason classifies why a device discarded a frame. Every drop path
// in the stack reports one of these into the scenario's DropLedger, so a
// multi-hop experiment can say not just *that* packets were lost but
// *where* and *why* — the loss analogue of the per-hop latency trace
// (HopTrace). The vocabulary is closed: a device inventing a new way to
// lose frames must add a reason here, which keeps the conservation
// arithmetic (sent = delivered + Σ attributed drops) checkable.
type DropReason uint8

// Drop reasons, one per distinct loss mechanism in the stack.
const (
	// DropEgressOverflow is a bounded egress FIFO overflowing under
	// same-rate fan-in (switchsim / ofswitch output queues).
	DropEgressOverflow DropReason = iota
	// DropLookupOverflow is a saturated ingress lookup pipeline shedding
	// packets (switchsim per-port lookup queues).
	DropLookupOverflow
	// DropRateBoundary is an egress FIFO overflowing at a speed
	// conversion point: the queue drains at a slower rate than the bits
	// arrived, so sustained overload is structural, not incidental.
	DropRateBoundary
	// DropRunt is a frame too short to carry a parseable Ethernet
	// header, discarded at the forwarding decision.
	DropRunt
	// DropHairpin is a frame addressed out its own ingress port.
	DropHairpin
	// DropRingFull is a capture queue's DMA descriptor ring overflowing
	// (the loss-limited host path).
	DropRingFull
	// DropFilterReject is a frame discarded by a hardware filter
	// verdict at the capture pipeline.
	DropFilterReject
	// DropNoRule is an OpenFlow table miss with no controller attached.
	DropNoRule
	// DropUnconnected is a frame forwarded out a port with no link.
	DropUnconnected
	// DropTxOverflow is a card TX queue overflowing because software
	// offered more than line rate.
	DropTxOverflow
	// DropUnterminated is a frame transmitted into a link with no peer.
	DropUnterminated

	// NumDropReasons bounds the reason space; ledgers index arrays by
	// reason.
	NumDropReasons
)

var dropReasonNames = [NumDropReasons]string{
	"egress-overflow",
	"lookup-overflow",
	"rate-boundary",
	"runt",
	"hairpin",
	"ring-full",
	"filter-reject",
	"no-rule",
	"unconnected",
	"tx-overflow",
	"unterminated",
}

// String names the reason as it appears in loss tables.
func (r DropReason) String() string {
	if r < NumDropReasons {
		return dropReasonNames[r]
	}
	return fmt.Sprintf("reason(%d)", uint8(r))
}

// DropLedger is the scenario-wide loss-attribution ledger: a dense
// (hop × reason) counter matrix plus a label per hop. One ledger is
// owned by the scenario (internal/topo builds and threads it, exactly
// as it threads HopTrace hop IDs); every device holding a drop site
// reports each discarded frame as (hop, reason, count). Hop IDs share
// the HopTrace namespace — a DUT's ledger hop is its trace hop ID — so
// latency decomposition and loss attribution line up row for row.
//
// Reporting is an array increment once the hop is registered, so the
// drop hot path allocates nothing; all methods are nil-safe on the
// receiver, so devices without an attached ledger pay one branch.
// The zero value is an empty ledger ready for use.
type DropLedger struct {
	hops []hopDrops // indexed by hop ID; slot 0 is the unattributed bucket
}

type hopDrops struct {
	label  string
	counts [NumDropReasons]uint64
}

// grow ensures slot hop exists.
func (l *DropLedger) grow(hop int) {
	for len(l.hops) <= hop {
		l.hops = append(l.hops, hopDrops{})
	}
}

// Register labels hop ID hop (creating it, and any lower unlabelled
// slots, as needed). Registering ahead of traffic keeps Report an
// array increment.
func (l *DropLedger) Register(hop int, label string) {
	if l == nil || hop < 0 {
		return
	}
	l.grow(hop)
	l.hops[hop].label = label
}

// Add registers label at the lowest unused hop ID ≥ 1 and returns it —
// the spelling for hand-built rigs that do not pin hop IDs. A slot is
// used if it is labelled or has already been reported to, so a later
// Add can never adopt another device's anonymous counts.
func (l *DropLedger) Add(label string) int {
	hop := 1
	for hop < len(l.hops) && (l.hops[hop].label != "" || l.hops[hop].counts != [NumDropReasons]uint64{}) {
		hop++
	}
	l.Register(hop, label)
	return hop
}

// Report attributes n dropped frames to (hop, reason). Negative hops
// fall into the unattributed bucket (hop 0); unregistered non-negative
// hops are counted under their own (unlabelled) ID. Either way the
// drop is counted — conservation would silently break otherwise.
func (l *DropLedger) Report(hop int, reason DropReason, n uint64) {
	if l == nil {
		return
	}
	if hop < 0 {
		hop = 0
	}
	if hop >= len(l.hops) {
		l.grow(hop)
	}
	l.hops[hop].counts[reason] += n
}

// Hops returns the number of hop slots (registered or reported-to),
// including the unattributed slot 0.
func (l *DropLedger) Hops() int {
	if l == nil {
		return 0
	}
	return len(l.hops)
}

// Label returns hop's label ("" for the unattributed bucket and
// unregistered hops).
func (l *DropLedger) Label(hop int) string {
	if l == nil || hop < 0 || hop >= len(l.hops) {
		return ""
	}
	return l.hops[hop].label
}

// Count returns the drops attributed to (hop, reason).
func (l *DropLedger) Count(hop int, reason DropReason) uint64 {
	if l == nil || hop < 0 || hop >= len(l.hops) || reason >= NumDropReasons {
		return 0
	}
	return l.hops[hop].counts[reason]
}

// HopTotal returns all drops attributed to one hop.
func (l *DropLedger) HopTotal(hop int) uint64 {
	if l == nil || hop < 0 || hop >= len(l.hops) {
		return 0
	}
	var n uint64
	for _, c := range l.hops[hop].counts {
		n += c
	}
	return n
}

// Merge folds src into l: counts add hop by hop and src's labels are
// adopted wherever l has none. It is the reduction step for sharded
// scenarios, where each shard owns a private ledger (devices report only
// into their own shard's) but hop IDs are assigned globally — so merging
// the per-shard ledgers reproduces exactly the single ledger a
// single-shard build would have written.
func (l *DropLedger) Merge(src *DropLedger) {
	if l == nil || src == nil {
		return
	}
	if len(src.hops) > 0 {
		l.grow(len(src.hops) - 1)
	}
	for hop := range src.hops {
		if lbl := src.hops[hop].label; lbl != "" && l.hops[hop].label == "" {
			l.hops[hop].label = lbl
		}
		for r := range src.hops[hop].counts {
			l.hops[hop].counts[r] += src.hops[hop].counts[r]
		}
	}
}
