package stats

import (
	"fmt"

	"osnt/internal/wire"
)

// LossEntry is one (hop, reason) cell of a loss map.
type LossEntry struct {
	Hop    int
	Label  string
	Reason wire.DropReason
	Count  uint64
}

// LossMap reduces a scenario's drop ledger into the per-hop, per-reason
// loss attribution an experiment reports: each non-zero (hop, reason)
// cell with its fraction of the offered traffic, plus the conservation
// check that makes the attribution trustworthy — every frame sent must
// be either delivered or attributed to exactly one drop cell
// (sent = delivered + Σ attributed), with nothing lost to an uncounted
// path. It snapshots the ledger at construction, so the map stays
// stable while the rig keeps running.
type LossMap struct {
	// Sent is the offered frame count (what the generators emitted into
	// the scenario).
	Sent uint64
	// Delivered is the frame count that reached a terminal endpoint
	// (MAC receive counters or sink counters).
	Delivered uint64

	entries []LossEntry
}

// NewLossMap snapshots ledger against the given sent/delivered counts.
// Hops appear in ID order, reasons in declaration order; zero cells are
// elided.
func NewLossMap(sent, delivered uint64, ledger *wire.DropLedger) *LossMap {
	m := &LossMap{Sent: sent, Delivered: delivered}
	for hop := 0; hop < ledger.Hops(); hop++ {
		for r := wire.DropReason(0); r < wire.NumDropReasons; r++ {
			if c := ledger.Count(hop, r); c > 0 {
				m.entries = append(m.entries, LossEntry{
					Hop: hop, Label: ledger.Label(hop), Reason: r, Count: c,
				})
			}
		}
	}
	return m
}

// Attributed returns the total drops across all cells.
func (m *LossMap) Attributed() uint64 {
	var n uint64
	for _, e := range m.entries {
		n += e.Count
	}
	return n
}

// Conserved reports whether the attribution closes exactly:
// sent = delivered + Σ attributed drops.
func (m *LossMap) Conserved() bool {
	return m.Sent == m.Delivered+m.Attributed()
}

// LossFraction returns total attributed drops over sent (0 when nothing
// was sent).
func (m *LossMap) LossFraction() float64 {
	if m.Sent == 0 {
		return 0
	}
	return float64(m.Attributed()) / float64(m.Sent)
}

// Fraction returns one cell's drops over sent.
func (m *LossMap) Fraction(e LossEntry) float64 {
	if m.Sent == 0 {
		return 0
	}
	return float64(e.Count) / float64(m.Sent)
}

// Table renders the map as the per-hop/per-reason loss table the CLIs
// print: one row per non-zero cell plus a totals row carrying the
// conservation verdict.
func (m *LossMap) Table() *Table {
	tbl := &Table{
		Title: fmt.Sprintf("loss attribution (sent %d, delivered %d)", m.Sent, m.Delivered),
		Columns: []Column{
			{Name: "hop", Verb: "%d"}, {Name: "device", Verb: "%s"}, {Name: "reason", Verb: "%v"},
			{Name: "drops", Verb: "%d"}, {Name: "of-sent(%)", Verb: "%.3f"},
		},
	}
	for _, e := range m.entries {
		label := e.Label
		if label == "" {
			label = "(unattributed)"
		}
		tbl.AddRow(e.Hop, label, e.Reason, e.Count, m.Fraction(e)*100)
	}
	conserved := "conserved exactly"
	if !m.Conserved() {
		conserved = fmt.Sprintf("NOT conserved (off by %d)",
			int64(m.Sent)-int64(m.Delivered)-int64(m.Attributed()))
	}
	tbl.AddRow(nil, "total", conserved, m.Attributed(), m.LossFraction()*100)
	return tbl
}
