package wire

import (
	"testing"
	"testing/quick"

	"osnt/internal/sim"
)

func TestByteTime(t *testing.T) {
	if got := Rate10G.ByteTime(); got != 800 {
		t.Fatalf("10G byte time = %dps, want 800", got)
	}
	if got := Rate(1_000_000_000).ByteTime(); got != 8000 {
		t.Fatalf("1G byte time = %dps, want 8000", got)
	}
}

func TestSerializationTime64B(t *testing.T) {
	// The canonical figure: 64B frame + 20B overhead = 84B = 67.2ns at 10G.
	got := SerializationTime(64, Rate10G)
	if got != 67200 {
		t.Fatalf("64B@10G = %v ps, want 67200", int64(got))
	}
	// 1518B: 1538 * 0.8ns = 1230.4ns.
	if got := SerializationTime(1518, Rate10G); got != 1230400 {
		t.Fatalf("1518B@10G = %v ps, want 1230400", int64(got))
	}
}

func TestMaxPPS(t *testing.T) {
	// 14.88 Mpps for 64B at 10G.
	got := MaxPPS(64, Rate10G)
	if got < 14_880_000 || got > 14_881_000 {
		t.Fatalf("MaxPPS(64,10G) = %v, want ≈14.88M", got)
	}
	// 812743 pps for 1518B at 10G.
	got = MaxPPS(1518, Rate10G)
	if got < 812_000 || got > 813_500 {
		t.Fatalf("MaxPPS(1518,10G) = %v, want ≈812.7k", got)
	}
}

func TestFrameSizeAndClone(t *testing.T) {
	data := make([]byte, 60)
	f := NewFrame(data)
	if f.Size != 64 {
		t.Fatalf("FCS-inclusive size = %d, want 64", f.Size)
	}
	g := f.Clone()
	g.Data[0] = 0xff
	if f.Data[0] == 0xff {
		t.Fatal("Clone aliases original buffer")
	}
	if g.Size != f.Size || g.SrcPort != f.SrcPort {
		t.Fatal("Clone lost metadata")
	}
}

func TestLinkDelivery(t *testing.T) {
	e := sim.NewEngine()
	var gotStart, gotEnd sim.Time
	var gotLen int
	sink := EndpointFunc(func(f *Frame, start, at sim.Time) {
		gotStart, gotEnd, gotLen = start, at, f.Size
	})
	l := NewLink(e, Rate10G, 5*sim.Nanosecond, sink)
	f := NewFrame(make([]byte, 60)) // 64B frame
	txEnd := l.Transmit(One(f), e.Now())
	e.Run()
	if txEnd != sim.Time(67200) {
		t.Fatalf("tx end = %v, want 67.2ns", txEnd)
	}
	if gotLen != 64 {
		t.Fatalf("delivered size = %d", gotLen)
	}
	if gotStart != sim.Time(5000) {
		t.Fatalf("first bit arrived at %v, want 5ns", gotStart)
	}
	if gotEnd != sim.Time(67200+5000) {
		t.Fatalf("last bit arrived at %v, want 72.2ns", gotEnd)
	}
}

func TestLinkBackToBack(t *testing.T) {
	e := sim.NewEngine()
	var arrivals []sim.Time
	sink := EndpointFunc(func(f *Frame, _, at sim.Time) { arrivals = append(arrivals, at) })
	l := NewLink(e, Rate10G, 0, sink)
	// Submit 3 frames at t=0; they must serialise back-to-back.
	for i := 0; i < 3; i++ {
		l.Transmit(One(NewFrame(make([]byte, 60))), e.Now())
	}
	e.Run()
	want := []sim.Time{67200, 134400, 201600}
	for i := range want {
		if arrivals[i] != want[i] {
			t.Fatalf("arrival %d = %v, want %v", i, arrivals[i], want[i])
		}
	}
	// 3 × 84 wire bytes (frame, preamble and IFG) fill the wire exactly.
	if u := l.Utilisation(201600); u != 1 {
		t.Fatalf("utilisation over the 3 slots = %v, want 1", u)
	}
}

func TestSerializationTime40G(t *testing.T) {
	// One byte takes 200ps at 40G.
	if got := Rate40G.ByteTime(); got != 200 {
		t.Fatalf("40G byte time = %dps, want 200", got)
	}
	// 64B + 20B overhead = 84B = 16.8ns at 40G, a quarter of the 10G slot.
	if got := SerializationTime(64, Rate40G); got != 16800 {
		t.Fatalf("64B@40G = %vps, want 16800", int64(got))
	}
	if got := SerializationTime(1518, Rate40G); got != 307600 {
		t.Fatalf("1518B@40G = %vps, want 307600 (1538B × 200ps)", int64(got))
	}
	// 59.52 Mpps for 64B at 40G — 4× the canonical 14.88M figure.
	got := MaxPPS(64, Rate40G)
	if got < 59_523_000 || got > 59_524_000 {
		t.Fatalf("MaxPPS(64,40G) = %v, want ≈59.52M", got)
	}
	if MaxPPS(64, Rate40G) != 4*MaxPPS(64, Rate10G) {
		t.Fatal("40G line rate is not exactly 4× the 10G line rate")
	}
	if Rate40G.String() != "40Gb/s" {
		t.Fatalf("got %q", Rate40G.String())
	}
}

func TestSerializationTime100G(t *testing.T) {
	// One byte takes 80ps at 100G.
	if got := Rate100G.ByteTime(); got != 80 {
		t.Fatalf("100G byte time = %dps, want 80", got)
	}
	// 64B + 20B overhead = 84B = 6.72ns at 100G, a tenth of the 10G slot.
	if got := SerializationTime(64, Rate100G); got != 6720 {
		t.Fatalf("64B@100G = %vps, want 6720", int64(got))
	}
	// 148.81 Mpps for 64B at 100G — 10× the canonical 14.88M figure.
	if MaxPPS(64, Rate100G) != 10*MaxPPS(64, Rate10G) {
		t.Fatal("100G line rate is not exactly 10× the 10G line rate")
	}
	if Rate100G.String() != "100Gb/s" {
		t.Fatalf("got %q", Rate100G.String())
	}
}

// A burst of back-to-back frames must occupy a single event-heap slot:
// the link batches deliveries through one reusable event however deep the
// in-flight queue gets, while every frame still arrives at its exact
// serialisation instant and in order.
func TestLinkBurstBatchesDeliveries(t *testing.T) {
	e := sim.NewEngine()
	var arrivals []sim.Time
	sink := EndpointFunc(func(f *Frame, _, at sim.Time) {
		arrivals = append(arrivals, at)
		f.Release()
	})
	l := NewLink(e, Rate10G, 3*sim.Nanosecond, sink)
	const burst = 100
	for i := 0; i < burst; i++ {
		l.Transmit(One(NewFrame(make([]byte, 60))), e.Now())
	}
	if got := l.pending.Len(); got != burst {
		t.Fatalf("in-flight = %d, want %d", got, burst)
	}
	if got := e.Pending(); got != 1 {
		t.Fatalf("a %d-frame burst scheduled %d events, want 1", burst, got)
	}
	e.Run()
	if len(arrivals) != burst {
		t.Fatalf("delivered %d frames, want %d", len(arrivals), burst)
	}
	slot := SerializationTime(64, Rate10G)
	for i, at := range arrivals {
		want := sim.Time(slot)*sim.Time(i+1) + sim.Time(3*sim.Nanosecond)
		if at != want {
			t.Fatalf("arrival %d at %v, want %v", i, at, want)
		}
	}
	if l.pending.Len() != 0 {
		t.Fatalf("in-flight after drain = %d", l.pending.Len())
	}
}

func TestLinkNeverExceedsLineRate(t *testing.T) {
	// Offer 2x line rate for 10000 frames; delivered spacing must never be
	// tighter than the serialisation time.
	e := sim.NewEngine()
	var last sim.Time
	var minGap sim.Duration = 1 << 62
	n := 0
	sink := EndpointFunc(func(f *Frame, _, at sim.Time) {
		if n > 0 {
			if gap := at.Sub(last); gap < minGap {
				minGap = gap
			}
		}
		last = at
		n++
	})
	l := NewLink(e, Rate10G, 0, sink)
	slot := SerializationTime(64, Rate10G)
	for i := 0; i < 10000; i++ {
		at := sim.Time(i) * sim.Time(slot/2) // 2x offered load
		e.Schedule(at, func() { l.Transmit(One(NewFrame(make([]byte, 60))), e.Now()) })
	}
	e.Run()
	if n != 10000 {
		t.Fatalf("delivered %d frames", n)
	}
	if minGap < slot {
		t.Fatalf("frames spaced %v apart, line rate slot is %v", minGap, slot)
	}
}

func TestLinkUtilisation(t *testing.T) {
	e := sim.NewEngine()
	l := NewLink(e, Rate10G, 0, nil)
	// 10 full-size frames: 10*1538*800ps of wire time.
	for i := 0; i < 10; i++ {
		l.Transmit(One(NewFrame(make([]byte, 1514))), e.Now())
	}
	e.Run()
	busy := l.busyUntil
	u := l.Utilisation(busy)
	if u < 0.999 || u > 1.001 {
		t.Fatalf("utilisation during saturation = %v, want 1.0", u)
	}
	u = l.Utilisation(busy * 2)
	if u < 0.499 || u > 0.501 {
		t.Fatalf("utilisation at 2x window = %v, want 0.5", u)
	}
}

// Property: for any frame size and any rate, serialisation time equals
// wire bytes times byte time and MaxPPS is its reciprocal.
func TestPropertyWireArithmetic(t *testing.T) {
	f := func(sz uint16) bool {
		size := int(sz%1455) + 64
		st := SerializationTime(size, Rate10G)
		if st != sim.Duration(size+20)*800 {
			return false
		}
		pps := MaxPPS(size, Rate10G)
		wantGap := 1e12 / pps // ps between frames at line rate
		return wantGap > float64(st)*0.999 && wantGap < float64(st)*1.001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkLinkBurstDelivery drives deep TX bursts through one link: the
// per-frame cost of the batched delivery path (ring push/pop + one event
// reschedule), with pooled frames so the link itself is what's measured.
func BenchmarkLinkBurstDelivery(b *testing.B) {
	b.ReportAllocs()
	e := sim.NewEngine()
	pool := NewPool()
	sink := EndpointFunc(func(f *Frame, _, _ sim.Time) { f.Release() })
	l := NewLink(e, Rate10G, 0, sink)
	const burst = 64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := 0; j < burst; j++ {
			l.Transmit(One(pool.Get(60)), e.Now())
		}
		e.Run()
	}
}

func TestRateString(t *testing.T) {
	if Rate10G.String() != "10Gb/s" {
		t.Fatalf("got %q", Rate10G.String())
	}
	if Rate(100_000_000).String() != "100Mb/s" {
		t.Fatalf("got %q", Rate(100_000_000).String())
	}
}

func TestHopTraceStampAndOverflow(t *testing.T) {
	var tr HopTrace
	for i := 0; i < MaxHops+3; i++ {
		tr.Stamp(i+1, sim.Time(i*100))
	}
	if tr.Len() != MaxHops {
		t.Fatalf("trace holds %d hops, want cap %d", tr.Len(), MaxHops)
	}
	for i := 0; i < MaxHops; i++ {
		if h := tr.At(i); h.Node != i+1 || h.At != sim.Time(i*100) {
			t.Fatalf("hop %d = %+v", i, h)
		}
	}
	tr.Reset()
	if tr.Len() != 0 {
		t.Fatal("reset trace not empty")
	}
}

func TestFrameCopiesCarryTrace(t *testing.T) {
	f := NewFrame(make([]byte, 60))
	f.Trace.Stamp(1, 100)
	f.Trace.Stamp(2, 200)
	if c := f.Clone(); c.Trace.Len() != 2 || c.Trace.At(1) != (Hop{Node: 2, At: 200}) {
		t.Fatalf("clone trace %v hops", c.Trace.Len())
	}
	var g Frame
	g.CopyFrom(f)
	if g.Trace.Len() != 2 || g.Trace.At(0) != (Hop{Node: 1, At: 100}) {
		t.Fatalf("CopyFrom trace %v hops", g.Trace.Len())
	}
}

func TestPoolGetResetsTrace(t *testing.T) {
	p := NewPool()
	f := p.Get(60)
	f.Trace.Stamp(3, 300)
	f.Release()
	// Whatever frame comes back (recycled or fresh), its trace is clean.
	if g := p.Get(60); g.Trace.Len() != 0 {
		t.Fatalf("pooled frame keeps %d stale hops", g.Trace.Len())
	}
}
