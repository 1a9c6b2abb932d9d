package flowstats

import (
	"slices"
	"testing"

	"osnt/internal/packet"
	"osnt/internal/sim"
	"osnt/internal/timing"
	"osnt/internal/wire"
)

func ts(d sim.Duration) timing.Timestamp { return timing.FromSim(sim.Time(d)) }

// flow finds the tracked flow with the digest through Flows, the walk
// the reports use, or returns nil.
func flow(tbl *FlowTable, digest uint64) *Flow {
	var got *Flow
	tbl.Flows(func(f *Flow) {
		if f.Digest == digest {
			got = f
		}
	})
	return got
}

func TestFlowTableBasics(t *testing.T) {
	tbl := NewFlowTable(64)
	for i := 0; i < 10; i++ {
		tbl.Observe(Sample{Digest: 7, RxTS: ts(sim.Duration(i) * sim.Microsecond), Wire: 64})
	}
	tbl.Observe(Sample{Digest: 9, RxTS: ts(sim.Millisecond), Wire: 128})
	if tbl.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tbl.Len())
	}
	f := flow(tbl, 7)
	if f == nil || f.Packets != 10 || f.Bytes != 640 {
		t.Fatalf("flow 7 = %+v", f)
	}
	if f.FirstRx != ts(0) || f.LastRx != ts(9*sim.Microsecond) {
		t.Fatalf("flow 7 window = %v..%v", f.FirstRx, f.LastRx)
	}
	if flow(tbl, 8) != nil {
		t.Fatal("phantom flow 8")
	}
	// Digest 0 is a legal key.
	tbl.Observe(Sample{Digest: 0, RxTS: ts(0), Wire: 64})
	if flow(tbl, 0) == nil {
		t.Fatal("digest 0 not tracked")
	}
}

func TestFlowTableOverflowBounded(t *testing.T) {
	tbl := NewFlowTable(16) // capacity 16, limit 14
	for i := uint64(0); i < 40; i++ {
		tbl.Observe(Sample{Digest: i, RxTS: ts(0), Wire: 64})
	}
	if tbl.Len() != 14 {
		t.Fatalf("Len = %d, want limit 14", tbl.Len())
	}
	if tbl.Overflow() != 26 {
		t.Fatalf("Overflow = %d, want 26", tbl.Overflow())
	}
	// Tracked flows keep updating past the limit.
	if !tbl.Observe(Sample{Digest: 0, RxTS: ts(0), Wire: 64}) {
		t.Fatal("tracked flow refused after overflow")
	}
}

func TestFlowTableLatency(t *testing.T) {
	tbl := NewFlowTable(16)
	// Embedded TX timestamps: latencies 10, 20, 30 µs.
	for i := 1; i <= 3; i++ {
		lat := sim.Duration(i) * 10 * sim.Microsecond
		tx := ts(sim.Duration(i) * sim.Millisecond)
		tbl.Observe(Sample{Digest: 1, TxTS: tx, HasTx: true, RxTS: tx.Add(lat), Wire: 64})
	}
	f := flow(tbl, 1)
	// The 32.32 timestamp format quantises at ~233 ps; compare to 1 ns.
	near := func(got, want sim.Duration) bool {
		d := got - want
		return d > -sim.Nanosecond && d < sim.Nanosecond
	}
	if !near(f.LatencyMean(), 20*sim.Microsecond) || !near(f.LatencyMax(), 30*sim.Microsecond) {
		t.Fatalf("latency mean/max = %v/%v", f.LatencyMean(), f.LatencyMax())
	}

	// No embedded timestamp: the first HopTrace stamp is the reference.
	var tr wire.HopTrace
	tr.Stamp(3, sim.Time(sim.Millisecond))
	tr.Stamp(4, sim.Time(sim.Millisecond+50*sim.Microsecond))
	tbl.Observe(Sample{Digest: 2, RxTS: ts(sim.Millisecond + 70*sim.Microsecond), Trace: tr, Wire: 64})
	g := flow(tbl, 2)
	if !near(g.LatencyMean(), 70*sim.Microsecond) {
		t.Fatalf("trace-derived latency = %v", g.LatencyMean())
	}
}

func TestFlowTableReordersAndHoles(t *testing.T) {
	tbl := NewFlowTable(16)
	const gap = 10 * sim.Microsecond
	send := func(k int) { // k-th packet of a CBR flow
		tx := ts(sim.Duration(k) * gap)
		tbl.Observe(Sample{Digest: 5, TxTS: tx, HasTx: true, RxTS: tx.Add(sim.Microsecond), Wire: 64})
	}
	send(1)
	send(2) // establishes minGap
	send(3)
	send(6) // 4 and 5 lost: gap 3×minGap → 2 holes
	f := flow(tbl, 5)
	if f.Holes != 2 {
		t.Fatalf("Holes = %d, want 2", f.Holes)
	}
	send(5) // late arrival: sent before 6, captured after → reorder
	if f.Reorders != 1 {
		t.Fatalf("Reorders = %d, want 1", f.Reorders)
	}
	send(7) // gap from 6 (not from the reordered 5): no new holes
	if f.Holes != 2 {
		t.Fatalf("Holes after reorder = %d, want 2", f.Holes)
	}
}

func TestFlowTableTopDeterministic(t *testing.T) {
	tbl := NewFlowTable(64)
	counts := map[uint64]int{11: 5, 22: 9, 33: 9, 44: 1}
	for d, n := range counts {
		for i := 0; i < n; i++ {
			tbl.Observe(Sample{Digest: d, RxTS: ts(0), Wire: 64})
		}
	}
	top := tbl.Top(3)
	if len(top) != 3 {
		t.Fatalf("Top(3) returned %d", len(top))
	}
	// Descending packets, ties by ascending digest.
	want := []uint64{22, 33, 11}
	for i, f := range top {
		if f.Digest != want[i] {
			t.Fatalf("Top[%d] = %d, want %d", i, f.Digest, want[i])
		}
	}
}

func TestFlowTableObserveZeroAlloc(t *testing.T) {
	tbl := NewFlowTable(1 << 10)
	digests := make([]uint64, 512)
	for i := range digests {
		digests[i] = uint64(i)*0x9e3779b97f4a7c15 + 1
	}
	i := 0
	avg := testing.AllocsPerRun(1000, func() {
		d := digests[i%len(digests)]
		tx := ts(sim.Duration(i) * sim.Microsecond)
		tbl.Observe(Sample{Digest: d, TxTS: tx, HasTx: true, RxTS: tx.Add(sim.Microsecond), Wire: 64})
		i++
	})
	if avg != 0 {
		t.Fatalf("Observe allocates %.2f per sample, want 0", avg)
	}
}

func TestCountMinNeverUndercounts(t *testing.T) {
	cm := NewCountMin(4, 1<<12)
	truth := make(map[uint64]uint64)
	rnd := sim.NewRand(42)
	for i := 0; i < 5000; i++ {
		d := uint64(rnd.Intn(300)) * 0x9e3779b97f4a7c15
		n := uint64(1 + rnd.Intn(3))
		cm.Add(d, n)
		truth[d] += n
	}
	for d, n := range truth {
		if est := cm.Estimate(d); est < n {
			t.Fatalf("digest %x: estimate %d < true %d", d, est, n)
		}
	}
}

func TestCountMinAddZeroAlloc(t *testing.T) {
	cm := NewCountMin(4, 1<<12)
	i := uint64(0)
	avg := testing.AllocsPerRun(1000, func() {
		cm.Add(i*0x9e3779b97f4a7c15, 1)
		i++
	})
	if avg != 0 {
		t.Fatalf("Add allocates %.2f per sample, want 0", avg)
	}
}

func TestSpaceSavingExactUnderCapacity(t *testing.T) {
	ss := NewSpaceSaving(8)
	for d := uint64(1); d <= 4; d++ {
		ss.Add(d, d*10)
	}
	top := ss.Top(4)
	if len(top) != 4 {
		t.Fatalf("Top returned %d", len(top))
	}
	if top[0].Digest != 4 || top[0].Count != 40 || top[0].Err != 0 {
		t.Fatalf("Top[0] = %+v", top[0])
	}
	if top[3].Digest != 1 || top[3].Count != 10 {
		t.Fatalf("Top[3] = %+v", top[3])
	}
}

func TestSpaceSavingKeepsHeavyHitters(t *testing.T) {
	ss := NewSpaceSaving(8)
	rnd := sim.NewRand(7)
	// 4 elephants with 200 packets each among 200 one-packet mice.
	elephants := []uint64{0xe0, 0xe1, 0xe2, 0xe3}
	for i := 0; i < 200; i++ {
		for _, e := range elephants {
			ss.Add(e, 1)
		}
		ss.Add(0x1000+uint64(rnd.Intn(200)), 1)
	}
	for _, e := range elephants {
		if !ss.Monitored(e) {
			t.Fatalf("elephant %x evicted", e)
		}
	}
	for _, h := range ss.Top(4) {
		if h.Count-h.Err > 200 {
			t.Fatalf("%x: guaranteed count %d exceeds truth 200", h.Digest, h.Count-h.Err)
		}
		if h.Count < 200 {
			t.Fatalf("%x: count %d undercounts truth 200", h.Digest, h.Count)
		}
	}
}

func TestSpaceSavingAddZeroAlloc(t *testing.T) {
	ss := NewSpaceSaving(64)
	i := uint64(0)
	avg := testing.AllocsPerRun(1000, func() {
		ss.Add(i%97, 1)
		i++
	})
	if avg != 0 {
		t.Fatalf("Add allocates %.2f per sample, want 0", avg)
	}
}

// refSpaceSavingAdd is the single-pass Add the summary shipped with: one
// scan that matches the digest and tracks the minimum slot together. It
// is the reference the split hit/evict Add must agree with slot for slot.
func refSpaceSavingAdd(s *SpaceSaving, digest uint64, n uint64) {
	minIdx := 0
	for i := 0; i < s.n; i++ {
		if s.digests[i] == digest {
			s.counts[i] += n
			return
		}
		if s.counts[i] < s.counts[minIdx] {
			minIdx = i
		}
	}
	if s.n < len(s.digests) {
		s.digests[s.n], s.counts[s.n], s.errs[s.n] = digest, n, 0
		s.n++
		return
	}
	s.errs[minIdx] = s.counts[minIdx]
	s.digests[minIdx] = digest
	s.counts[minIdx] += n
}

// TestSpaceSavingMatchesReference: random streams over more flows than
// slots, with small counts so evictions and equal-count ties are common,
// must leave Add and the reference in the same state — same victims,
// same Top(k) (digest, count, err) and the same Monitored answers.
func TestSpaceSavingMatchesReference(t *testing.T) {
	rnd := sim.NewRand(0x55)
	for trial := 0; trial < 50; trial++ {
		k := 1 + rnd.Intn(32)
		flows := k + 1 + rnd.Intn(4*k)
		got, ref := NewSpaceSaving(k), NewSpaceSaving(k)
		evictions := 0
		for i := 0; i < 2000; i++ {
			d := uint64(rnd.Intn(flows)) * 0x9e3779b97f4a7c15
			n := uint64(1 + rnd.Intn(2))
			if ref.n == k && !ref.Monitored(d) {
				evictions++
			}
			got.Add(d, n)
			refSpaceSavingAdd(ref, d, n)
		}
		if evictions == 0 {
			t.Fatalf("trial %d: stream never evicted", trial)
		}
		if !slices.Equal(got.digests, ref.digests) || !slices.Equal(got.counts, ref.counts) || !slices.Equal(got.errs, ref.errs) {
			t.Fatalf("trial %d (k=%d, %d flows): slots diverge from the reference", trial, k, flows)
		}
		for _, top := range []int{1, k / 2, k} {
			if a, b := got.Top(top), ref.Top(top); !slices.Equal(a, b) {
				t.Fatalf("trial %d: Top(%d) = %v, reference %v", trial, top, a, b)
			}
		}
		for f := 0; f < flows; f++ {
			d := uint64(f) * 0x9e3779b97f4a7c15
			if got.Monitored(d) != ref.Monitored(d) {
				t.Fatalf("trial %d: Monitored(%x) = %v, reference %v", trial, d, got.Monitored(d), ref.Monitored(d))
			}
		}
	}
}

// BenchmarkSpaceSavingAdd measures one Add on a 128-slot summary in the
// two shapes the capture path sees: every flow already monitored (64
// flows, hits only) and more flows than slots (512 flows, mostly
// evictions).
func BenchmarkSpaceSavingAdd(b *testing.B) {
	for _, bc := range []struct {
		name  string
		flows int
	}{{"hits", 64}, {"evicting", 512}} {
		b.Run(bc.name, func(b *testing.B) {
			ss := NewSpaceSaving(128)
			digests := make([]uint64, bc.flows)
			for i := range digests {
				digests[i] = packet.Mix64(uint64(i) + 1)
				ss.Add(digests[i], 1)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ss.Add(digests[i%len(digests)], 1)
			}
		})
	}
}
