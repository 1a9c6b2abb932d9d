package wire

import (
	"fmt"
	"strings"
	"testing"

	"osnt/internal/race"
	"osnt/internal/sim"
)

// latch is one observed Latch call.
type latch struct {
	size       int
	start, end sim.Time
}

// latchLog is a Latcher that records every call.
type latchLog struct{ got []latch }

func (l *latchLog) Latch(f *Frame, start, end sim.Time) {
	l.got = append(l.got, latch{f.Size, start, end})
}

// newEgress builds an Egress of capacity capFrames draining onto a
// zero-delay 10G link into peer.
func newEgress(e *sim.Engine, capFrames int, owner Latcher, peer Endpoint) *Egress {
	eg := &Egress{}
	eg.Init(e, capFrames, owner)
	eg.SetLink(NewLink(e, Rate10G, 0, peer))
	return eg
}

// An entry queued behind a busy MAC leaves at the later of its own
// earliest instant and the end of the transmission ahead of it.
func TestEgressEntryLeavesAtOwnEarliestOrPreviousEnd(t *testing.T) {
	e := sim.NewEngine()
	var log latchLog
	eg := newEgress(e, 8, &log, EndpointFunc(func(*Frame, sim.Time, sim.Time) {}))
	big := SerializationTime(1518, Rate10G)
	small := SerializationTime(64, Rate10G)

	eg.Push(One(NewFrame(make([]byte, 1514))), 0, DropEgressOverflow)
	eg.Push(One(NewFrame(make([]byte, 60))), 100, DropEgressOverflow)                     // ready mid-transmission: waits
	eg.Push(One(NewFrame(make([]byte, 60))), sim.Time(0).Add(10*big), DropEgressOverflow) // ready after: leaves then
	e.Run()

	second := sim.Time(0).Add(big)
	third := sim.Time(0).Add(10 * big)
	want := []latch{
		{1518, 0, second},
		{64, second, second.Add(small)},
		{64, third, third.Add(small)},
	}
	if len(log.got) != len(want) {
		t.Fatalf("latched %d frames, want %d", len(log.got), len(want))
	}
	for i := range want {
		if log.got[i] != want[i] {
			t.Errorf("frame %d latched %+v, want %+v", i, log.got[i], want[i])
		}
	}
	if !eg.Idle() || eg.Link().busyUntil != third.Add(small) {
		t.Fatalf("idle %v, link busy until %v", eg.Idle(), eg.Link().busyUntil)
	}
}

// Overflow consumes the frame: the drop is counted, attributed to the
// drop site under the caller's reason, and the pooled frame goes home.
func TestEgressOverflowCountsReportsAndReleases(t *testing.T) {
	e := sim.NewEngine()
	eg := newEgress(e, 1, &latchLog{}, EndpointFunc(func(*Frame, sim.Time, sim.Time) {}))
	ledger := &DropLedger{}
	hop := ledger.Add("port")
	eg.SetDropSite(ledger, hop)
	pool := NewPool()

	// The first frame goes straight onto the wire, the second fills the
	// one queue slot, the third overflows.
	for i, wantOK := range []bool{true, true, false} {
		if ok := eg.Push(One(pool.Get(60)), 0, DropRateBoundary); ok != wantOK {
			t.Fatalf("push %d accepted = %v, want %v", i, ok, wantOK)
		}
	}
	if eg.Drops() != 1 || eg.Frames() != 1 {
		t.Fatalf("drops %d frames %d, want 1 and 1", eg.Drops(), eg.Frames())
	}
	if got := ledger.Count(hop, DropRateBoundary); got != 1 || total(ledger) != 1 {
		t.Fatalf("ledger rate-boundary %d of %d total, want 1 of 1", got, total(ledger))
	}
	if _, puts, _ := pool.Stats(); puts != 1 {
		t.Fatalf("overflowed frame not released to its pool (puts=%d)", puts)
	}
}

// Push admits an entry exactly when Frames() is below the capacity
// before the push, whatever the entry's length: a refused entry counts,
// reports and releases every one of its frames.
func TestEgressPushAdmitsBelowCapacity(t *testing.T) {
	for _, n := range []int{1, 3} {
		e := sim.NewEngine()
		eg := newEgress(e, 4, &latchLog{}, EndpointFunc(func(*Frame, sim.Time, sim.Time) {}))
		ledger := &DropLedger{}
		hop := ledger.Add("port")
		eg.SetDropSite(ledger, hop)
		pool := NewPool()
		run := func() Run {
			tr := pool.GetTrain()
			for i := 0; i < n; i++ {
				tr.Frames = append(tr.Frames, pool.Get(60))
			}
			return tr.Run()
		}
		eg.Push(run(), 0, DropEgressOverflow) // straight onto the wire
		var drops uint64
		for push := 0; push < 8; push++ {
			before := eg.Frames()
			ok := eg.Push(run(), 0, DropEgressOverflow)
			if ok != (before < 4) {
				t.Fatalf("len %d push %d: accepted %v with %d of 4 frames queued", n, push, ok, before)
			}
			if !ok {
				drops += uint64(n)
			}
		}
		if eg.Drops() != drops || ledger.Count(hop, DropEgressOverflow) != drops {
			t.Fatalf("len %d: drops %d, ledger %d, want %d", n, eg.Drops(), ledger.Count(hop, DropEgressOverflow), drops)
		}
		if _, puts, _ := pool.Stats(); puts != drops {
			t.Fatalf("len %d: %d frames released, want the %d refused", n, puts, drops)
		}
	}
}

// A train entry latches every frame at exactly the instants N single
// pushes would, and leaves the link in the same state.
func TestEgressTrainMatchesSinglePushes(t *testing.T) {
	lens := []int{60, 1514, 124, 508}
	run := func(asTrain bool) ([]latch, *Link) {
		e := sim.NewEngine()
		var log latchLog
		delivered := 0
		eg := newEgress(e, 8, &log, EndpointFunc(func(*Frame, sim.Time, sim.Time) { delivered++ }))
		const earliest = sim.Time(5000)
		if asTrain {
			eg.Push(trainRun(lens...), earliest, DropEgressOverflow)
		} else {
			for _, f := range trainFrames(lens...) {
				eg.Push(One(f), earliest, DropEgressOverflow)
			}
		}
		e.Run()
		if delivered != len(lens) {
			t.Fatalf("train=%v delivered %d, want %d", asTrain, delivered, len(lens))
		}
		return log.got, eg.Link()
	}
	ref, refLink := run(false)
	got, link := run(true)
	if len(got) != len(lens) || len(ref) != len(lens) {
		t.Fatalf("latches: train %d, single %d, want %d", len(got), len(ref), len(lens))
	}
	for i := range ref {
		if got[i] != ref[i] {
			t.Errorf("frame %d: train latch %+v, single %+v", i, got[i], ref[i])
		}
	}
	if link.txBytes != refLink.txBytes || link.busyUntil != refLink.busyUntil {
		t.Fatalf("link after train: %d B busy to %v; after singles: %d B busy to %v",
			link.txBytes, link.busyUntil, refLink.txBytes, refLink.busyUntil)
	}
}

// Idle and Frames count a train by its frames and clear once it leaves.
func TestEgressIdleAndFramesAroundTrain(t *testing.T) {
	e := sim.NewEngine()
	delivered := 0
	eg := newEgress(e, 16, &latchLog{}, EndpointFunc(func(*Frame, sim.Time, sim.Time) { delivered++ }))
	if !eg.Idle() || eg.Frames() != 0 {
		t.Fatal("fresh egress not idle and empty")
	}
	eg.Push(trainRun(60, 60, 60), 0, DropEgressOverflow)
	if eg.Idle() || eg.Frames() != 0 {
		t.Fatalf("train on the wire: idle %v frames %d, want busy with 0 queued", eg.Idle(), eg.Frames())
	}
	eg.Push(One(NewFrame(make([]byte, 60))), 0, DropEgressOverflow)
	eg.Push(trainRun(60, 60), 0, DropEgressOverflow)
	if eg.Frames() != 3 {
		t.Fatalf("queued frames %d, want 3 (a train counts by its frames)", eg.Frames())
	}
	e.Run()
	if !eg.Idle() || eg.Frames() != 0 {
		t.Fatalf("drained egress: idle %v frames %d", eg.Idle(), eg.Frames())
	}
	if delivered != 6 {
		t.Fatalf("link carried %d frames, want 6", delivered)
	}
}

// countLatch is a Latcher that only counts, so it allocates nothing.
type countLatch int

func (c *countLatch) Latch(*Frame, sim.Time, sim.Time) { *c++ }

// The steady-state push → send → transmit-done → deliver cycle allocates
// nothing.
func TestEgressSteadyStateZeroAlloc(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops Puts under -race; strict alloc bound only holds in normal builds")
	}
	e := sim.NewEngine()
	pool := NewPool()
	var n countLatch
	eg := newEgress(e, 64, &n, EndpointFunc(func(f *Frame, _, _ sim.Time) { f.Release() }))
	cycle := func() {
		for i := 0; i < 32; i++ {
			eg.Push(One(pool.Get(60)), e.Now(), DropEgressOverflow)
		}
		e.Run()
	}
	cycle() // warm the pool and the FIFOs
	if avg := testing.AllocsPerRun(20, cycle); avg != 0 {
		t.Fatalf("steady-state egress cycle allocates %.1f per 32 frames", avg)
	}
	if n != 32*22 {
		t.Fatalf("latched %d frames, want %d", n, 32*22)
	}
}

// hopFrames is how many frames each hop test pushes through its Egress.
const hopFrames = 8

// A bare frame on a zero-delay, unkeyed link costs one event: its
// delivery carries the Egress's transmit-done. A delayed link, a keyed
// link, an export link and a train keep the transmit-done as an event
// of its own.
func TestEgressEventsPerHop(t *testing.T) {
	for _, tc := range []struct {
		name  string
		link  func(*sim.Engine, Endpoint) *Link
		train bool
		want  uint64 // events fired for hopFrames frames
	}{
		{name: "zero-delay", want: hopFrames,
			link: func(e *sim.Engine, p Endpoint) *Link { return NewLink(e, Rate10G, 0, p) }},
		{name: "1us", want: 2 * hopFrames,
			link: func(e *sim.Engine, p Endpoint) *Link { return NewLink(e, Rate10G, sim.Microsecond, p) }},
		{name: "keyed", want: 2 * hopFrames,
			link: func(e *sim.Engine, p Endpoint) *Link {
				l := NewLink(e, Rate10G, 0, p)
				l.SetDeliveryKey(1)
				return l
			}},
		// Only the transmit-dones fire locally; delivery is the
		// destination shard's.
		{name: "export", want: hopFrames,
			link: func(e *sim.Engine, _ Endpoint) *Link {
				return NewExportLink(e, Rate10G, sim.Microsecond, &captureExporter{})
			}},
		// Trains of two: one delivery and one transmit-done per train.
		{name: "train", train: true, want: hopFrames,
			link: func(e *sim.Engine, p Endpoint) *Link { return NewLink(e, Rate10G, 0, p) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := sim.NewEngine()
			var latched countLatch
			delivered := 0
			eg := &Egress{}
			eg.Init(e, hopFrames, &latched)
			eg.SetLink(tc.link(e, EndpointFunc(func(*Frame, sim.Time, sim.Time) { delivered++ })))
			for i := 0; i < hopFrames; {
				if tc.train {
					eg.Push(trainRun(60, 60), 0, DropEgressOverflow)
					i += 2
				} else {
					eg.Push(One(NewFrame(make([]byte, 60))), 0, DropEgressOverflow)
					i++
				}
			}
			e.Run()
			if int(latched) != hopFrames || !eg.Idle() {
				t.Fatalf("latched %d, idle %v; want %d frames and an idle MAC",
					latched, eg.Idle(), hopFrames)
			}
			if eg.Link().exporter == nil && delivered != hopFrames {
				t.Fatalf("delivered %d frames, want %d", delivered, hopFrames)
			}
			if got := e.Fired(); got != tc.want {
				t.Fatalf("fired %d events for %d frames, want %d", got, hopFrames, tc.want)
			}
		})
	}
}

// The transmit-done a zero-delay delivery carries runs where its own
// event fired: after the peer's Receive and after every event armed
// earlier for the instant, before any event Receive arms for it. A
// keyed link's delivery sorts ahead of the instant's default-priority
// events, so its transmit-done stays an event and fires among them in
// arming order. The log is the sequence the two-event Egress records;
// instants are in picoseconds.
func TestEgressTransmitDoneOrder(t *testing.T) {
	t1 := sim.Time(0).Add(SerializationTime(64, Rate10G)) // 67,200 ps
	for _, tc := range []struct {
		name string
		key  uint64
		want []string
	}{
		{name: "unkeyed", key: sim.PrioDefault, want: []string{
			"latch 1 [0,67200]",
			"early @67200 idle=false frames=1",
			"receive 1 @67200 idle=false frames=1",
			"latch 2 [67200,134400]",
			"peer event @67200 idle=false frames=0",
			"receive 2 @134400 idle=false frames=0",
			"peer event @134400 idle=true frames=0",
		}},
		{name: "keyed", key: 1, want: []string{
			"latch 1 [0,67200]",
			"receive 1 @67200 idle=false frames=1",
			"early @67200 idle=false frames=1",
			"latch 2 [67200,134400]",
			"peer event @67200 idle=false frames=0",
			"receive 2 @134400 idle=false frames=0",
			"peer event @134400 idle=true frames=0",
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := sim.NewEngine()
			var log []string
			eg := &Egress{}
			state := func(what string) {
				log = append(log, fmt.Sprintf("%s @%d idle=%v frames=%d", what, e.Now(), eg.Idle(), eg.Frames()))
			}
			eg.Init(e, 8, latchFunc(func(f *Frame, start, end sim.Time) {
				log = append(log, fmt.Sprintf("latch %d [%d,%d]", f.SrcPort, start, end))
			}))
			l := NewLink(e, Rate10G, 0, EndpointFunc(func(f *Frame, _, _ sim.Time) {
				state(fmt.Sprintf("receive %d", f.SrcPort))
				e.Schedule(e.Now(), func() { state("peer event") })
			}))
			if tc.key != sim.PrioDefault {
				l.SetDeliveryKey(tc.key)
			}
			eg.SetLink(l)
			e.Schedule(t1, func() { state("early") })
			for i := 1; i <= 2; i++ {
				f := NewFrame(make([]byte, 60))
				f.SrcPort = i
				eg.Push(One(f), 0, DropEgressOverflow)
			}
			e.Run()
			if len(log) != len(tc.want) {
				t.Fatalf("recorded %d steps, want %d:\n%s", len(log), len(tc.want), strings.Join(log, "\n"))
			}
			for i := range tc.want {
				if log[i] != tc.want[i] {
					t.Fatalf("step %d: %q, want %q; full log:\n%s", i, log[i], tc.want[i], strings.Join(log, "\n"))
				}
			}
		})
	}
}

// latchFunc adapts a function to the Latcher interface.
type latchFunc func(f *Frame, start, end sim.Time)

func (fn latchFunc) Latch(f *Frame, start, end sim.Time) { fn(f, start, end) }

// BenchmarkEgressHop pushes bursts of pooled bare frames through an
// Egress onto a zero-delay link, whose deliveries carry the
// transmit-dones, and onto a 1 µs link, which fires both events per
// frame. One op is one frame; events/frame reports the engine events it
// cost.
func BenchmarkEgressHop(b *testing.B) {
	for _, bc := range []struct {
		name  string
		delay sim.Duration
	}{{"zero-delay", 0}, {"1us", sim.Microsecond}} {
		b.Run(bc.name, func(b *testing.B) {
			const burst = 64
			e := sim.NewEngine()
			pool := NewPool()
			var n countLatch
			eg := &Egress{}
			eg.Init(e, burst, &n)
			eg.SetLink(NewLink(e, Rate10G, bc.delay, EndpointFunc(func(f *Frame, _, _ sim.Time) { f.Release() })))
			hop := func(frames int) {
				for j := 0; j < frames; j++ {
					eg.Push(One(pool.Get(60)), e.Now(), DropEgressOverflow)
				}
				e.Run()
			}
			hop(burst) // warm the pool and the FIFOs
			fired := e.Fired()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i += burst {
				hop(min(burst, b.N-i))
			}
			b.ReportMetric(float64(e.Fired()-fired)/float64(b.N), "events/frame")
		})
	}
}
