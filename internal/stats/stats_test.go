package stats

import (
	"strings"
	"testing"
	"testing/quick"
)

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.count != 0 || h.Mean() != 0 || h.Percentile(50) != 0 || h.Percentile(0) != 0 || h.Max() != 0 {
		t.Fatal("empty histogram not all-zero")
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	for i := int64(1); i <= 100; i++ {
		h.Record(i)
	}
	if h.count != 100 {
		t.Fatalf("Count = %d", h.count)
	}
	if h.Percentile(0) != 1 || h.Max() != 100 {
		t.Fatalf("min/max = %d/%d", h.Percentile(0), h.Max())
	}
	if m := h.Mean(); m != 50.5 {
		t.Fatalf("Mean = %v", m)
	}
	// With 64 sub-buckets, values ≤ 127 are exact.
	if p := h.Percentile(50); p != 50 {
		t.Fatalf("p50 = %d, want 50", p)
	}
	if p := h.Percentile(99); p != 99 {
		t.Fatalf("p99 = %d, want 99", p)
	}
	if p := h.Percentile(100); p != 100 {
		t.Fatalf("p100 = %d, want 100", p)
	}
}

func TestHistogramRelativeError(t *testing.T) {
	h := NewHistogram()
	const v = 1_000_000
	h.Record(v)
	got := h.Percentile(50)
	if got > v || float64(v-got)/v > 1.0/64 {
		t.Fatalf("p50 of single sample %d = %d (error > 1/64)", v, got)
	}
}

// Property: for any sample, the bucket's reported value is ≤ the sample
// and within 1/64 relative error.
func TestPropertyBucketError(t *testing.T) {
	f := func(raw uint64) bool {
		v := int64(raw >> 1) // non-negative
		lo := bucketLow(bucketIndex(v))
		if lo > v {
			return false
		}
		if v >= 64 && float64(v-lo) > float64(v)/64 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

// Property: bucketLow(bucketIndex(v)) maps into the same bucket (the
// bucket function is idempotent on its representative).
func TestPropertyBucketIdempotent(t *testing.T) {
	f := func(raw uint64) bool {
		v := int64(raw >> 1)
		i := bucketIndex(v)
		return bucketIndex(bucketLow(i)) == i
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramNegativeClamp(t *testing.T) {
	h := NewHistogram()
	h.Record(-5)
	if h.Percentile(0) != 0 || h.Percentile(50) != 0 {
		t.Fatal("negative sample not clamped to 0 bucket")
	}
	if h.Mean() != 0 {
		t.Fatalf("Mean should reflect the clamped sample, got %v", h.Mean())
	}
}

// Regression: Record used to add the raw value to the mean accumulator
// while clamping only the bucketed copy, so mean and percentiles
// described different sample sets on a negative tail. All statistics
// must now agree on the clamped samples — Mean can never undershoot
// Percentile(0).
func TestHistogramNegativeSamplesConsistent(t *testing.T) {
	h := NewHistogram()
	h.Record(-500)
	h.Record(100)
	if got := h.Mean(); got != 50 {
		t.Fatalf("Mean = %v, want 50 (clamped samples 0 and 100)", got)
	}
	if h.Percentile(0) != 0 || h.Max() != 100 {
		t.Fatalf("min/max = %d/%d, want 0/100", h.Percentile(0), h.Max())
	}
	if p0 := h.Percentile(0); float64(p0) > h.Mean() {
		t.Fatalf("Percentile(0)=%d exceeds Mean=%v", p0, h.Mean())
	}
	// The same semantics must survive a Merge.
	o := NewHistogram()
	o.Record(-100)
	h.Merge(o)
	if got := h.Mean(); got != 100.0/3 {
		t.Fatalf("merged Mean = %v, want %v", got, 100.0/3)
	}
}

// Regression: Percentile(100) used to return the lower bound of the
// last non-empty bucket — the scan always satisfies seen >= rank, so
// the trailing `return h.max` was unreachable and the reported worst
// case undershot the real maximum by up to 1/64. p=100 must return the
// exact recorded max even when it sits above its bucket floor.
func TestHistogramPercentile100ExactMax(t *testing.T) {
	h := NewHistogram()
	const v = 1_000_003 // not a bucket boundary: bucketLow(bucketIndex(v)) < v
	if bucketLow(bucketIndex(v)) == v {
		t.Fatal("test value sits on a bucket floor, pick another")
	}
	h.Record(1000)
	h.Record(v)
	if got := h.Percentile(100); got != v {
		t.Fatalf("Percentile(100) = %d, want exact max %d", got, v)
	}
	if got := h.Percentile(200); got != v {
		t.Fatalf("Percentile(200) = %d, want clamp to exact max %d", got, v)
	}
	// Just below 100 still reports the (floored) bucket bound.
	if got := h.Percentile(99.999); got > v {
		t.Fatalf("Percentile(99.999) = %d exceeds max %d", got, v)
	}
}

func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	for i := int64(0); i < 50; i++ {
		a.Record(i)
	}
	for i := int64(50); i < 100; i++ {
		b.Record(i)
	}
	a.Merge(b)
	if a.count != 100 {
		t.Fatalf("merged count = %d", a.count)
	}
	if a.Percentile(0) != 0 || a.Max() != 99 {
		t.Fatalf("merged min/max = %d/%d", a.Percentile(0), a.Max())
	}
	// Samples are 0..99, so the 50th smallest (rank ceil(0.5·100)) is 49.
	if p := a.Percentile(50); p != 49 {
		t.Fatalf("merged p50 = %d", p)
	}
}

func TestHistogramSummary(t *testing.T) {
	h := NewHistogram()
	h.Record(1000)
	s := h.Summary(1000, "ns")
	if !strings.Contains(s, "n=1") || !strings.Contains(s, "mean=1.0ns") {
		t.Fatalf("Summary = %q", s)
	}
}

func TestCounter(t *testing.T) {
	var c Counter
	c.Add(64)
	c.Add(1500)
	if c.Packets != 2 || c.Bytes != 1564 {
		t.Fatalf("counter %+v", c)
	}
	d := Counter{Packets: 1, Bytes: 1500}
	if bps := d.BitsPerSecond(2); bps != 6000 {
		t.Fatalf("bps = %v", bps)
	}
	if pps := d.PacketsPerSecond(0.5); pps != 2 {
		t.Fatalf("pps = %v", pps)
	}
	if d.BitsPerSecond(0) != 0 || d.PacketsPerSecond(-1) != 0 {
		t.Fatal("zero elapsed must not divide")
	}
}

func TestTableString(t *testing.T) {
	tb := &Table{Title: "demo", Columns: []Column{{Name: "size", Verb: "%d"}, {Name: "rate", Verb: "%.2f"}}}
	tb.AddRow(64, 14.88)
	tb.AddRow(1518, nil)
	out := tb.String()
	if !strings.Contains(out, "== demo ==") {
		t.Fatalf("missing title: %q", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d", len(lines))
	}
	if lines[2] != "64    14.88" {
		t.Fatalf("row align: %q", lines[2])
	}
	if lines[3] != "1518  -    " {
		t.Fatalf("nil cell: %q", lines[3])
	}
	if tb.Col("rate") != 1 || tb.Col("loss") != -1 {
		t.Fatalf("Col: rate %d, loss %d", tb.Col("rate"), tb.Col("loss"))
	}
}

func BenchmarkHistogramRecord(b *testing.B) {
	h := NewHistogram()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Record(int64(i%1000000 + 500))
	}
}

func BenchmarkHistogramPercentile(b *testing.B) {
	h := NewHistogram()
	for i := int64(0); i < 1_000_000; i++ {
		h.Record(i % 100000)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = h.Percentile(99)
	}
}
