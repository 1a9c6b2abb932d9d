package stats

import (
	"strings"
	"testing"

	"osnt/internal/wire"
)

func lossFixture() (*wire.DropLedger, int, int) {
	l := &wire.DropLedger{}
	leaf := l.Add("leaf")
	spine := l.Add("spine")
	l.Report(leaf, wire.DropEgressOverflow, 30)
	l.Report(leaf, wire.DropRunt, 2)
	l.Report(spine, wire.DropLookupOverflow, 8)
	return l, leaf, spine
}

func TestLossMapConservation(t *testing.T) {
	l, _, _ := lossFixture()
	lm := NewLossMap(100, 60, l)
	if got := lm.Attributed(); got != 40 {
		t.Fatalf("Attributed = %d", got)
	}
	if !lm.Conserved() {
		t.Fatal("100 = 60 + 40 should conserve")
	}
	if got := lm.LossFraction(); got != 0.4 {
		t.Fatalf("LossFraction = %v", got)
	}
	if NewLossMap(100, 61, l).Conserved() {
		t.Fatal("off-by-one must not conserve")
	}
}

func TestLossMapEntriesOrderedAndElided(t *testing.T) {
	l, leaf, spine := lossFixture()
	rows := NewLossMap(100, 60, l).Table().Rows
	// One row per non-zero cell, then the totals row.
	if len(rows) != 4 {
		t.Fatalf("%d rows, want 3 cells (zero cells elided) and a total", len(rows))
	}
	want := [][]any{
		{leaf, "leaf", wire.DropEgressOverflow, uint64(30), 30.0},
		{leaf, "leaf", wire.DropRunt, uint64(2), 2.0},
		{spine, "spine", wire.DropLookupOverflow, uint64(8), 8.0},
	}
	for i, w := range want {
		for c := range w {
			if rows[i][c] != w[c] {
				t.Fatalf("row %d = %v, want %v", i, rows[i], w)
			}
		}
	}
}

func TestLossMapTableRendering(t *testing.T) {
	l, _, _ := lossFixture()
	s := NewLossMap(100, 60, l).Table().String()
	for _, frag := range []string{"leaf", "spine", "egress-overflow", "runt", "lookup-overflow", "conserved exactly", "40"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("table missing %q:\n%s", frag, s)
		}
	}
	bad := NewLossMap(100, 70, l).Table().String()
	if !strings.Contains(bad, "NOT conserved (off by -10)") {
		t.Fatalf("broken conservation not flagged:\n%s", bad)
	}
}

// A snapshot stays stable while the ledger keeps counting.
func TestLossMapSnapshots(t *testing.T) {
	l, leaf, _ := lossFixture()
	lm := NewLossMap(100, 60, l)
	l.Report(leaf, wire.DropEgressOverflow, 1000)
	if got := lm.Attributed(); got != 40 {
		t.Fatalf("snapshot moved: %d", got)
	}
}

// Regression: NewLossMap calls ledger.Hops() (and Count/Label) directly,
// which is only safe because every DropLedger method is nil-safe on the
// receiver. A rig without loss attribution (osnt-mon before any drop
// site is added, hand-built monitors with no SetDropSite) passes a nil
// ledger, and both the map and its rendered table must keep working.
func TestLossMapNilLedger(t *testing.T) {
	lm := NewLossMap(10, 10, nil)
	if rows := lm.Table().Rows; len(rows) != 1 {
		t.Fatalf("nil ledger produced %d cells", len(rows)-1)
	}
	if lm.Attributed() != 0 {
		t.Fatalf("nil ledger attributed %d drops", lm.Attributed())
	}
	if !lm.Conserved() {
		t.Fatal("10 sent = 10 delivered + 0 attributed should conserve")
	}
	if s := lm.Table().String(); !strings.Contains(s, "conserved exactly") {
		t.Fatalf("nil-ledger table missing conservation verdict:\n%s", s)
	}

	// Unaccounted loss with no ledger must surface, not panic.
	lm = NewLossMap(10, 7, nil)
	if lm.Conserved() {
		t.Fatal("3 unattributed losses must not conserve")
	}
	if s := lm.Table().String(); !strings.Contains(s, "NOT conserved (off by 3)") {
		t.Fatalf("nil-ledger table hides the unattributed loss:\n%s", s)
	}
}
