package wire

import (
	"testing"

	"osnt/internal/race"
	"osnt/internal/sim"
)

// trainFrames builds unpooled frames of the given payload lengths.
func trainFrames(lens ...int) []*Frame {
	fs := make([]*Frame, len(lens))
	for i, n := range lens {
		fs[i] = NewFrame(make([]byte, n))
	}
	return fs
}

// trainRun builds the run of unpooled frames of the given payload
// lengths.
func trainRun(lens ...int) Run { return (&Train{Frames: trainFrames(lens...)}).Run() }

// delivery is one observed per-frame arrival.
type delivery struct {
	size      int
	start, at sim.Time
}

// TestTransmitTrainMatchesPerFrame is the wire-level exactness contract:
// one Transmit of a mixed-size train, delivered to a per-frame endpoint,
// must produce byte-for-byte the same (size, first-bit, last-bit)
// tuples, the same return value and the same link counters and busy
// horizon as one Transmit per frame — while occupying one in-flight entry
// instead of N.
func TestTransmitTrainMatchesPerFrame(t *testing.T) {
	lens := []int{60, 1514, 124, 508}
	run := func(asTrain bool) (got []delivery, end sim.Time, inflight int, bytes uint64, busy sim.Time) {
		e := sim.NewEngine()
		sink := EndpointFunc(func(f *Frame, start, at sim.Time) {
			got = append(got, delivery{f.Size, start, at})
		})
		l := NewLink(e, Rate10G, 30*sim.Nanosecond, sink)
		if asTrain {
			end = l.Transmit(trainRun(lens...), 0)
		} else {
			for _, f := range trainFrames(lens...) {
				end = l.Transmit(One(f), 0)
			}
		}
		inflight = l.pending.Len()
		e.Run()
		return got, end, inflight, l.txBytes, l.busyUntil
	}

	ref, refEnd, refInflight, refBytes, refBusy := run(false)
	got, end, inflight, bytes, busy := run(true)
	if len(ref) != len(lens) || len(got) != len(lens) {
		t.Fatalf("deliveries: per-frame %d, train %d, want %d", len(ref), len(got), len(lens))
	}
	for i := range ref {
		if got[i] != ref[i] {
			t.Errorf("frame %d: train delivery %+v, per-frame %+v", i, got[i], ref[i])
		}
	}
	if end != refEnd {
		t.Errorf("end: train %v, per-frame %v", end, refEnd)
	}
	if bytes != refBytes || busy != refBusy {
		t.Errorf("counters: train %d bytes busy to %v, per-frame %d busy to %v",
			bytes, busy, refBytes, refBusy)
	}
	if refInflight != len(lens) || inflight != 1 {
		t.Errorf("in-flight entries: per-frame %d (want %d), train %d (want 1)", refInflight, len(lens), inflight)
	}
}

// trainSpan is the train's total wire occupancy at its Rate.
func trainSpan(t *Train) sim.Duration {
	var d sim.Duration
	for _, f := range t.Frames {
		d += SerializationTime(f.Size, t.Rate)
	}
	return d
}

// runSink records whole-run deliveries.
type runSink struct {
	runs   []Run
	starts []sim.Time
	ats    []sim.Time
}

func (s *runSink) Receive(r Run, start, at sim.Time) {
	s.runs = append(s.runs, r)
	s.starts = append(s.starts, start)
	s.ats = append(s.ats, at)
}

// TestTransmitTrainToTrainEndpoint checks the whole-run delivery: an
// endpoint gets a train in one call whose start/at are the FIRST frame's
// first-bit and last-bit instants (propagation delay included), with the
// train stamped with the link rate the boundaries derive from.
func TestTransmitTrainToTrainEndpoint(t *testing.T) {
	e := sim.NewEngine()
	sink := &runSink{}
	const delay = 50 * sim.Nanosecond
	l := NewLink(e, Rate40G, delay, sink)

	tr := &Train{Frames: trainFrames(60, 60, 1514), Rate: Rate40G}
	span := trainSpan(tr)
	const earliest = sim.Time(1000)
	end := l.Transmit(tr.Run(), earliest)
	e.Run()

	if len(sink.runs) != 1 {
		t.Fatalf("got %d deliveries, want 1", len(sink.runs))
	}
	if got := sink.runs[0]; got.Len() != 3 || got.Train() == nil || got.Train().Rate != Rate40G {
		t.Errorf("delivered run: %d frames, train %v", got.Len(), got.Train())
	}
	if want := earliest.Add(span); end != want {
		t.Errorf("end = %v, want %v", end, want)
	}
	firstSer := SerializationTime(64, Rate40G)
	if want := earliest.Add(delay); sink.starts[0] != want {
		t.Errorf("start = %v, want %v", sink.starts[0], want)
	}
	if want := earliest.Add(firstSer).Add(delay); sink.ats[0] != want {
		t.Errorf("at = %v, want %v", sink.ats[0], want)
	}
}

// TestTransmitTrainOfOneDegrades checks the one normalisation point: a
// train of one becomes its bare frame, its container goes back to the
// pool, and the frame is delivered with the single-frame arithmetic.
func TestTransmitTrainOfOneDegrades(t *testing.T) {
	e := sim.NewEngine()
	sink := &runSink{}
	l := NewLink(e, Rate10G, 0, sink)
	pool := NewPool()
	tr := pool.GetTrain()
	f := pool.Get(60)
	tr.Frames = append(tr.Frames, f)
	r := tr.Run()
	if r.Train() != nil || r.Len() != 1 || r.Frame(0) != f {
		t.Fatalf("train of one normalised to %d frames, train %v", r.Len(), r.Train())
	}
	if len(tr.Frames) != 0 || tr.pool != nil {
		t.Fatalf("container not recycled: %d frames, pool %v", len(tr.Frames), tr.pool)
	}
	end := l.Transmit(r, 0)
	e.Run()
	ser := SerializationTime(64, Rate10G)
	if end != sim.Time(0).Add(ser) {
		t.Errorf("end = %v, want %v", end, ser)
	}
	if len(sink.runs) != 1 || sink.runs[0].Train() != nil || sink.starts[0] != 0 || sink.ats[0] != sim.Time(0).Add(ser) {
		t.Errorf("deliveries = %d, starts %v, ats %v", len(sink.runs), sink.starts, sink.ats)
	}
}

// TestRunWalkWindows checks the per-frame cursor: on a mixed-size train
// at 10G and 100G it yields every frame in order with its abutting
// (firstBit, lastBit) window, a bare frame yields itself once, and the
// exhausted walk has handed every frame over and recycled the container.
func TestRunWalkWindows(t *testing.T) {
	lens := []int{60, 1514, 124, 508}
	for _, rate := range []Rate{Rate10G, Rate100G} {
		pool := NewPool()
		tr := pool.GetTrain()
		for _, n := range lens {
			tr.Frames = append(tr.Frames, pool.Get(n))
		}
		tr.Rate = rate
		frames := append([]*Frame(nil), tr.Frames...)
		start := sim.Time(7000)
		at := start.Add(SerializationTime(frames[0].Size, rate))
		fb, lb := start, at
		i := 0
		for w := tr.Run().Walk(start, at); w.Next(); i++ {
			if i > 0 {
				fb, lb = lb, lb.Add(SerializationTime(frames[i].Size, rate))
			}
			if w.Frame != frames[i] || w.FirstBit != fb || w.LastBit != lb {
				t.Fatalf("%v frame %d: got (%p, %v, %v), want (%p, %v, %v)",
					rate, i, w.Frame, w.FirstBit, w.LastBit, frames[i], fb, lb)
			}
		}
		if i != len(lens) {
			t.Fatalf("%v: walked %d frames, want %d", rate, i, len(lens))
		}
		if len(tr.Frames) != 0 || tr.pool != nil {
			t.Fatalf("%v: exhausted walk left %d frames, pool %v", rate, len(tr.Frames), tr.pool)
		}
	}
	f := NewFrame(make([]byte, 60))
	n := 0
	for w := One(f).Walk(1, 2); w.Next(); n++ {
		if w.Frame != f || w.FirstBit != 1 || w.LastBit != 2 {
			t.Fatalf("bare frame walked as (%p, %v, %v)", w.Frame, w.FirstBit, w.LastBit)
		}
	}
	if n != 1 {
		t.Fatalf("bare frame walked %d times", n)
	}
}

// The cursor loop allocates nothing.
func TestRunWalkZeroAlloc(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops Puts under -race; strict alloc bound only holds in normal builds")
	}
	pool := NewPool()
	var frames int
	walk := func() {
		tr := pool.GetTrain()
		for i := 0; i < 8; i++ {
			tr.Frames = append(tr.Frames, pool.Get(60))
		}
		tr.Rate = Rate10G
		for w := tr.Run().Walk(0, 0); w.Next(); {
			frames++
			w.Frame.Release()
		}
	}
	walk() // warm the pool
	if avg := testing.AllocsPerRun(100, walk); avg != 0 {
		t.Fatalf("walking a pooled train allocates %.1f per run", avg)
	}
	if frames != 8*102 {
		t.Fatalf("walked %d frames, want %d", frames, 8*102)
	}
}

// TestTransmitTrainUnterminated checks the nil-peer path: every frame of
// the run is counted, attributed to the link's drop site and returned to
// its pool, and the wire still reports the full occupancy.
func TestTransmitTrainUnterminated(t *testing.T) {
	e := sim.NewEngine()
	l := NewLink(e, Rate10G, 0, nil)
	var ledger DropLedger
	hop := ledger.Add("fibre")
	l.SetDropSite(&ledger, hop)

	pool := NewPool()
	tr := pool.GetTrain()
	for i := 0; i < 3; i++ {
		tr.Frames = append(tr.Frames, pool.Get(60))
	}
	tr.Rate = Rate10G
	span := trainSpan(tr)
	end := l.Transmit(tr.Run(), 0)
	e.Run()

	if end != sim.Time(0).Add(span) {
		t.Errorf("end = %v, want %v", end, span)
	}
	if l.Drops() != 3 {
		t.Errorf("link drops = %d, want 3", l.Drops())
	}
	if n := ledger.Count(hop, DropUnterminated); n != 3 {
		t.Errorf("ledger unterminated = %d, want 3", n)
	}
	if _, puts, _ := pool.Stats(); puts != 3 {
		t.Errorf("pool releases = %d, want 3", puts)
	}
	if want := sim.Time(0).Add(span); l.busyUntil != want {
		t.Errorf("busy until %v, want %v: unterminated transmits still busy the wire", l.busyUntil, want)
	}
}

// TestTransmitTrainBusyChaining checks the busy-horizon clamp: a train
// submitted while the link is still serialising starts exactly at
// busyUntil, so back-to-back singles and trains interleave with the same
// arithmetic as a MAC queue.
func TestTransmitTrainBusyChaining(t *testing.T) {
	e := sim.NewEngine()
	var got []delivery
	sink := EndpointFunc(func(f *Frame, start, at sim.Time) {
		got = append(got, delivery{f.Size, start, at})
	})
	l := NewLink(e, Rate10G, 0, sink)
	ser := SerializationTime(64, Rate10G)

	single := l.Transmit(One(NewFrame(make([]byte, 60))), 0)
	end := l.Transmit(trainRun(60, 60), 0) // wants 0, must clamp to the single's end
	e.Run()

	if want := single.Add(2 * ser); end != want {
		t.Errorf("train end = %v, want %v", end, want)
	}
	if len(got) != 3 {
		t.Fatalf("deliveries = %d, want 3", len(got))
	}
	for i, d := range got {
		fb := sim.Time(0).Add(sim.Duration(i) * ser)
		if want := (delivery{64, fb, fb.Add(ser)}); d != want {
			t.Errorf("frame %d: %+v, want %+v", i, d, want)
		}
	}
}
