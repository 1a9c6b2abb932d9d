package stats

import (
	"strings"
	"testing"
)

func TestPerHopRecordsPerIndex(t *testing.T) {
	p := NewPerHop(2)
	p.Record(0, 100)
	p.Record(0, 300)
	p.Record(1, 50)
	// Recording past the initial size grows the set.
	p.Record(3, 7)
	if p.Hist(3) == nil || p.Hist(3).Max() != 7 {
		t.Fatal("hop 3 not grown on record")
	}
	if got := p.Hist(0).Mean(); got != 200 {
		t.Fatalf("hop 0 mean %v, want 200", got)
	}
	if got := p.Hist(1).Summary(1, ""); !strings.HasPrefix(got, "n=1 ") {
		t.Fatalf("hop 1 %q, want one sample", got)
	}
	// Hop 2 exists (grown) but is empty; out-of-range is nil.
	if !strings.HasPrefix(p.Hist(2).Summary(1, ""), "n=0 ") || p.Hist(4) != nil || p.Hist(-1) != nil {
		t.Fatal("gap/out-of-range hop handling")
	}
}
