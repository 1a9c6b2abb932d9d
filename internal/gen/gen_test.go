package gen

import (
	"testing"
	"testing/quick"

	"osnt/internal/netfpga"
	"osnt/internal/packet"
	"osnt/internal/pcap"
	"osnt/internal/sim"
	"osnt/internal/timing"
	"osnt/internal/wire"
)

var spec = packet.UDPSpec{
	SrcMAC:  packet.MAC{2, 0, 0, 0, 0, 1},
	DstMAC:  packet.MAC{2, 0, 0, 0, 0, 2},
	SrcIP:   packet.IP4{10, 0, 0, 1},
	DstIP:   packet.IP4{10, 0, 0, 2},
	SrcPort: 5000, DstPort: 7000,
}

type rxCollector struct {
	frames []*wire.Frame
	times  []sim.Time
}

func (r *rxCollector) Receive(run wire.Run, start, at sim.Time) {
	for w := run.Walk(start, at); w.Next(); {
		r.frames = append(r.frames, w.Frame)
		r.times = append(r.times, w.LastBit)
	}
}

func testRig(t *testing.T) (*sim.Engine, *netfpga.Card, *rxCollector) {
	t.Helper()
	e := sim.NewEngine()
	card := netfpga.New(e, netfpga.Config{})
	rx := &rxCollector{}
	card.Port(0).SetLink(wire.NewLink(e, wire.Rate10G, 0, rx))
	return e, card, rx
}

func TestCBRLineRate(t *testing.T) {
	// E1 in miniature: 64B CBR at exactly line rate for 1 ms must deliver
	// the theoretical packet count (14.88 pkts/µs → 14880 in 1ms ±1).
	e, card, rx := testRig(t)
	src := &UDPFlowSource{Spec: spec, FrameSize: 64}
	g, err := New(card.Port(0), Config{
		Source:  src,
		Spacing: CBRForLoad(64, wire.Rate10G, 1.0),
	})
	if err != nil {
		t.Fatal(err)
	}
	g.Start(0)
	e.RunUntil(sim.Time(sim.Millisecond))
	g.Stop()
	got := len(rx.frames)
	if got < 14880 || got > 14882 {
		t.Fatalf("delivered %d frames in 1ms, want ≈14881", got)
	}
	if g.Dropped() != 0 {
		t.Fatalf("dropped %d at exactly line rate", g.Dropped())
	}
	// Spacing must be exactly one 64B slot.
	for i := 1; i < 100; i++ {
		if gap := rx.times[i].Sub(rx.times[i-1]); gap != 67200 {
			t.Fatalf("gap %d = %v, want 67.2ns", i, gap)
		}
	}
}

func TestCBRHalfLoad(t *testing.T) {
	e, card, rx := testRig(t)
	src := &UDPFlowSource{Spec: spec, FrameSize: 512}
	g, _ := New(card.Port(0), Config{
		Source:  src,
		Spacing: CBRForLoad(512, wire.Rate10G, 0.5),
	})
	g.Start(0)
	e.RunUntil(sim.Time(sim.Millisecond))
	g.Stop()
	want := wire.MaxPPS(512, wire.Rate10G) * 0.5 / 1000 // per ms
	got := float64(len(rx.frames))
	if got < want*0.99 || got > want*1.01 {
		t.Fatalf("half load delivered %v, want ≈%v", got, want)
	}
}

func TestCountLimit(t *testing.T) {
	e, card, rx := testRig(t)
	g, _ := New(card.Port(0), Config{
		Source:  &UDPFlowSource{Spec: spec, FrameSize: 64},
		Spacing: CBR{Interval: 100 * sim.Nanosecond},
		Count:   50,
	})
	g.Start(0)
	e.Run()
	if len(rx.frames) != 50 {
		t.Fatalf("delivered %d, want 50", len(rx.frames))
	}
	if g.Running() {
		t.Fatal("generator still running after its count")
	}
	if g.Sent().Packets != 50 {
		t.Fatalf("sent counter %d", g.Sent().Packets)
	}
}

func TestTimestampEmbedExtract(t *testing.T) {
	e, card, rx := testRig(t)
	g, _ := New(card.Port(0), Config{
		Source:         &UDPFlowSource{Spec: spec, FrameSize: 128},
		Spacing:        CBR{Interval: sim.Microsecond},
		Count:          10,
		EmbedTimestamp: true,
	})
	g.Start(0)
	e.Run()
	if len(rx.frames) != 10 {
		t.Fatalf("delivered %d", len(rx.frames))
	}
	for i, f := range rx.frames {
		ts, ok := ExtractTimestamp(f.Data, DefaultTimestampOffset)
		if !ok {
			t.Fatalf("frame %d: no timestamp", i)
		}
		// TX timestamps latch at serialisation start: arrival time minus
		// serialisation time (zero propagation delay).
		start := rx.times[i].Sub(0) - wire.SerializationTime(128, wire.Rate10G)
		want := timing.Quantize(sim.Time(start))
		if ts != want {
			t.Fatalf("frame %d ts = %v, want %v", i, ts, want)
		}
	}
}

func TestEmbedBounds(t *testing.T) {
	buf := make([]byte, 49)
	if EmbedTimestamp(buf, 42, 1) {
		t.Fatal("embed must fail with 7 bytes of room")
	}
	if _, ok := ExtractTimestamp(buf, 42); ok {
		t.Fatal("extract must fail with 7 bytes of room")
	}
	buf = make([]byte, 50)
	if !EmbedTimestamp(buf, 42, 0x0123456789abcdef) {
		t.Fatal("embed failed with exact room")
	}
	ts, ok := ExtractTimestamp(buf, 42)
	if !ok || ts != 0x0123456789abcdef {
		t.Fatalf("extract %v %v", ts, ok)
	}
	if EmbedTimestamp(buf, -1, 1) {
		t.Fatal("negative offset accepted")
	}
}

// Property: embed/extract round trips any timestamp at any valid offset.
func TestPropertyTimestampRoundTrip(t *testing.T) {
	f := func(ts uint64, off uint8, pad uint8) bool {
		offset := int(off % 64)
		buf := make([]byte, offset+TimestampLen+int(pad%32))
		if !EmbedTimestamp(buf, offset, timing.Timestamp(ts)) {
			return false
		}
		got, ok := ExtractTimestamp(buf, offset)
		return ok && got == timing.Timestamp(ts)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestPoissonMeanRate(t *testing.T) {
	e, card, rx := testRig(t)
	mean := 500 * sim.Nanosecond // 2 Mpps
	g, _ := New(card.Port(0), Config{
		Source:  &UDPFlowSource{Spec: spec, FrameSize: 64},
		Spacing: Poisson{Mean: mean},
		Seed:    42,
	})
	g.Start(0)
	e.RunUntil(20 * sim.Time(sim.Millisecond))
	g.Stop()
	got := float64(len(rx.frames))
	want := 20e-3 / 500e-9
	if got < want*0.95 || got > want*1.05 {
		t.Fatalf("poisson delivered %v in 20ms, want ≈%v", got, want)
	}
	// Gaps must vary (not CBR).
	var distinct int
	seen := map[sim.Duration]bool{}
	for i := 1; i < 50; i++ {
		d := rx.times[i].Sub(rx.times[i-1])
		if !seen[d] {
			seen[d] = true
			distinct++
		}
	}
	if distinct < 10 {
		t.Fatalf("poisson gaps look constant: %d distinct", distinct)
	}
}

func TestIMIXSource(t *testing.T) {
	e, card, rx := testRig(t)
	g, _ := New(card.Port(0), Config{
		// The classic 7:4:1 Internet mix.
		Source:  &UDPFlowSource{Spec: spec, Sizes: []int{64, 64, 64, 64, 64, 64, 64, 570, 570, 570, 570, 1518}},
		Spacing: CBR{Interval: 2 * sim.Microsecond},
		Count:   120,
	})
	g.Start(0)
	e.Run()
	counts := map[int]int{}
	for _, f := range rx.frames {
		counts[f.Size]++
	}
	if counts[64] != 70 || counts[570] != 40 || counts[1518] != 10 {
		t.Fatalf("IMIX mix %v, want 70/40/10", counts)
	}
}

func TestUDPFlowSourceFlows(t *testing.T) {
	src := &UDPFlowSource{Spec: spec, NumFlows: 4, FrameSize: 96}
	seen := map[uint16]bool{}
	for i := 0; i < 8; i++ {
		f := src.Next()
		fl, ok := packet.ExtractFlow(f.Data)
		if !ok {
			t.Fatal("no flow")
		}
		seen[fl.SrcPort] = true
	}
	if len(seen) != 4 {
		t.Fatalf("distinct flows = %d, want 4", len(seen))
	}
}

func TestSliceSource(t *testing.T) {
	f1 := wire.NewFrame(make([]byte, 60))
	f2 := wire.NewFrame(make([]byte, 100))
	s := &SliceSource{Frames: []*wire.Frame{f1, f2}}
	a, b, c := s.Next(), s.Next(), s.Next()
	if a == nil || b == nil || c != nil {
		t.Fatal("non-loop slice source")
	}
	if a.Size != 64 || b.Size != 104 {
		t.Fatal("sizes")
	}
	a.Data[0] = 0xff
	if f1.Data[0] == 0xff {
		t.Fatal("source must clone frames")
	}
	loop := &SliceSource{Frames: []*wire.Frame{f1}, Loop: true}
	for i := 0; i < 10; i++ {
		if loop.Next() == nil {
			t.Fatal("loop source ended")
		}
	}
}

func TestPCAPReplayAsRecorded(t *testing.T) {
	// Build a capture with known gaps and replay it preserving timing.
	recs := []pcap.Record{
		{TS: 0, Data: withSize(spec, 64), OrigLen: 60},
		{TS: sim.Time(10 * sim.Microsecond), Data: withSize(spec, 64), OrigLen: 60},
		{TS: sim.Time(15 * sim.Microsecond), Data: withSize(spec, 64), OrigLen: 60},
	}
	e, card, rx := testRig(t)
	g, _ := New(card.Port(0), Config{
		Source:  &PCAPSource{Records: recs},
		Spacing: &RecordedSpacing{Records: recs},
	})
	g.Start(0)
	e.Run()
	if len(rx.frames) != 3 {
		t.Fatalf("replayed %d", len(rx.frames))
	}
	gap1 := rx.times[1].Sub(rx.times[0])
	gap2 := rx.times[2].Sub(rx.times[1])
	if gap1 != 10*sim.Microsecond || gap2 != 5*sim.Microsecond {
		t.Fatalf("gaps %v %v, want 10µs 5µs", gap1, gap2)
	}
}

func TestPCAPReplayScaled(t *testing.T) {
	recs := []pcap.Record{
		{TS: 0, Data: withSize(spec, 64), OrigLen: 60},
		{TS: sim.Time(10 * sim.Microsecond), Data: withSize(spec, 64), OrigLen: 60},
	}
	e, card, rx := testRig(t)
	g, _ := New(card.Port(0), Config{
		Source:  &PCAPSource{Records: recs},
		Spacing: &RecordedSpacing{Records: recs, Scale: 0.5},
	})
	g.Start(0)
	e.Run()
	if gap := rx.times[1].Sub(rx.times[0]); gap != 5*sim.Microsecond {
		t.Fatalf("scaled gap = %v, want 5µs", gap)
	}
}

func TestOverloadClipsAtLineRate(t *testing.T) {
	// Offer 150% of line rate: delivery must stay at line rate and the
	// excess must be counted as drops once the queue fills.
	e, card, rx := testRig(t)
	g, _ := New(card.Port(0), Config{
		Source:  &UDPFlowSource{Spec: spec, FrameSize: 64},
		Spacing: CBRForLoad(64, wire.Rate10G, 1.5),
	})
	g.Start(0)
	e.RunUntil(10 * sim.Time(sim.Millisecond))
	g.Stop()
	maxFrames := int(wire.MaxPPS(64, wire.Rate10G)*10e-3) + 2
	if len(rx.frames) > maxFrames {
		t.Fatalf("delivered %d > line-rate max %d", len(rx.frames), maxFrames)
	}
	// 8192-slot queue absorbs the first ~16ms of 50% excess at 22Mpps
	// offered... at 10ms we expect drops to have started: excess ≈
	// 22.3Mpps*10ms - 14.88Mpps*10ms - 8192 ≈ 66k.
	if g.Dropped() == 0 {
		t.Fatal("overload produced no drops")
	}
}

func TestConfigValidation(t *testing.T) {
	e := sim.NewEngine()
	card := netfpga.New(e, netfpga.Config{})
	if _, err := New(card.Port(0), Config{Spacing: CBR{1}}); err == nil {
		t.Fatal("missing source accepted")
	}
	if _, err := New(card.Port(0), Config{Source: &SliceSource{}}); err == nil {
		t.Fatal("missing spacing accepted")
	}
}

// withSize builds a frame of the given FCS-inclusive size from the shared
// spec.
func withSize(s packet.UDPSpec, n int) []byte {
	s.FrameSize = n
	return s.Build()
}

func BenchmarkGeneratorLineRate(b *testing.B) {
	e := sim.NewEngine()
	card := netfpga.New(e, netfpga.Config{})
	sinkCount := 0
	card.Port(0).SetLink(wire.NewLink(e, wire.Rate10G, 0,
		wire.EndpointFunc(func(*wire.Frame, sim.Time, sim.Time) { sinkCount++ })))
	g, _ := New(card.Port(0), Config{
		Source:         &UDPFlowSource{Spec: spec, FrameSize: 64},
		Spacing:        CBRForLoad(64, wire.Rate10G, 1.0),
		EmbedTimestamp: true,
	})
	g.Start(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e.RunUntil(e.Now().Add(67200)) // one 64B slot of virtual time per iteration
	}
	g.Stop()
}
