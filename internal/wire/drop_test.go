package wire

import (
	"testing"

	"osnt/internal/sim"
)

// total sums every hop's drops: the Σ in sent = delivered + Σ drops.
func total(l *DropLedger) uint64 {
	var n uint64
	for hop := 0; hop < l.Hops(); hop++ {
		n += l.HopTotal(hop)
	}
	return n
}

func TestDropLedgerAccounting(t *testing.T) {
	l := &DropLedger{}
	hopA := l.Add("leaf")
	hopB := l.Add("spine")
	if hopA != 1 || hopB != 2 {
		t.Fatalf("Add assigned hops %d, %d; want 1, 2", hopA, hopB)
	}
	l.Report(hopA, DropEgressOverflow, 3)
	l.Report(hopA, DropRunt, 1)
	l.Report(hopB, DropLookupOverflow, 2)

	if got := l.Count(hopA, DropEgressOverflow); got != 3 {
		t.Fatalf("Count(leaf, egress) = %d", got)
	}
	if got := l.HopTotal(hopA); got != 4 {
		t.Fatalf("HopTotal(leaf) = %d", got)
	}
	if got := l.Count(hopB, DropLookupOverflow); got != 2 {
		t.Fatalf("Count(spine, lookup) = %d", got)
	}
	if got := total(l); got != 6 {
		t.Fatalf("total = %d", got)
	}
	if l.Label(hopA) != "leaf" || l.Label(hopB) != "spine" {
		t.Fatalf("labels: %q, %q", l.Label(hopA), l.Label(hopB))
	}
}

func TestDropLedgerRegisterPinsHop(t *testing.T) {
	l := &DropLedger{}
	l.Register(4, "pinned")
	if got := l.Add("next"); got != 1 {
		t.Fatalf("Add after Register(4) = %d, want the lowest free slot 1", got)
	}
	if l.Label(4) != "pinned" {
		t.Fatalf("Label(4) = %q", l.Label(4))
	}
}

// Unregistered and negative hops must still be counted — losing drops
// would silently break every conservation check downstream.
func TestDropLedgerUnattributedBuckets(t *testing.T) {
	l := &DropLedger{}
	l.Report(-3, DropRunt, 1)
	l.Report(0, DropRunt, 1)
	l.Report(9, DropHairpin, 2)
	if got := l.Count(0, DropRunt); got != 2 {
		t.Fatalf("unattributed runts = %d, want 2", got)
	}
	if got := total(l); got != 4 {
		t.Fatalf("total = %d, want 4", got)
	}
}

// Every method must be a no-op on a nil ledger: devices without an
// attached scenario ledger call Report unconditionally.
func TestDropLedgerNilSafe(t *testing.T) {
	var l *DropLedger
	l.Report(1, DropRunt, 1)
	l.Register(1, "x")
	if l.Hops() != 0 || l.Count(1, DropRunt) != 0 ||
		l.HopTotal(1) != 0 || l.Label(1) != "" {
		t.Fatal("nil ledger is not inert")
	}
}

func TestDropReasonStrings(t *testing.T) {
	seen := map[string]bool{}
	for r := DropReason(0); r < NumDropReasons; r++ {
		s := r.String()
		if s == "" || seen[s] {
			t.Fatalf("reason %d has empty or duplicate name %q", r, s)
		}
		seen[s] = true
	}
	if NumDropReasons.String() == "" {
		t.Fatal("out-of-range reason has no fallback name")
	}
}

// An unterminated link (no peer) must release the frame and account the
// loss instead of leaking it silently.
func TestUnterminatedLinkCountsDrops(t *testing.T) {
	e := sim.NewEngine()
	l := NewLink(e, Rate10G, 0, nil)
	ledger := &DropLedger{}
	l.SetDropSite(ledger, ledger.Add("stub"))

	pool := NewPool()
	f := pool.Get(64)
	size := f.Size
	l.Transmit(One(f), e.Now())
	e.Run()

	if got := l.Drops(); got != 1 {
		t.Fatalf("link drops = %d, want 1", got)
	}
	if got := ledger.Count(1, DropUnterminated); got != 1 {
		t.Fatalf("ledger unterminated = %d, want 1", got)
	}
	if _, puts, _ := pool.Stats(); puts != 1 {
		t.Fatalf("dropped frame not released to its pool (puts=%d)", puts)
	}
	if want := sim.Time(0).Add(SerializationTime(size, l.Rate)); l.busyUntil != want {
		t.Fatalf("unterminated transmit must still busy the wire (busy until %v, want %v)", l.busyUntil, want)
	}
}

// Add must never adopt a slot that already carries anonymous counts —
// the new device would inherit foreign drops.
func TestAddSkipsReportedSlots(t *testing.T) {
	l := &DropLedger{}
	l.Report(2, DropRunt, 5) // anonymous counts at hop 2
	if got := l.Add("a"); got != 1 {
		t.Fatalf("Add = %d, want 1", got)
	}
	if got := l.Add("b"); got != 3 {
		t.Fatalf("Add = %d, want 3 (slot 2 holds foreign counts)", got)
	}
	if got := l.Count(2, DropRunt); got != 5 {
		t.Fatalf("foreign counts disturbed: %d", got)
	}
}
