package shard_test

import (
	"fmt"
	"testing"

	"osnt/internal/gen"
	"osnt/internal/netfpga"
	"osnt/internal/packet"
	"osnt/internal/shard"
	"osnt/internal/sim"
	"osnt/internal/timing"
	"osnt/internal/topo"
	"osnt/internal/wire"
)

func TestNewClusterRejectsZeroShards(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewCluster(0) did not panic")
		}
	}()
	shard.NewCluster(0)
}

func TestCrossLinkRejectsZeroDelay(t *testing.T) {
	c := shard.NewCluster(2)
	defer c.Close()
	defer func() {
		if recover() == nil {
			t.Fatal("CrossLink with zero delay did not panic")
		}
	}()
	c.CrossLink(0, 1, c.Engines()[0], wire.Rate10G, 0, nil)
}

func TestLookaheadIsMinimumCutDelay(t *testing.T) {
	// windows runs 20 µs with work on both shards every microsecond, so
	// no window can be skipped and each spans the lookahead.
	windows := func(delays ...sim.Duration) uint64 {
		c := shard.NewCluster(2)
		defer c.Close()
		var sink topo.Sink
		for i, d := range delays {
			src := i % 2
			c.CrossLink(src, 1-src, c.Engines()[src], wire.Rate10G, d, &sink)
		}
		for _, e := range c.Engines() {
			e.ScheduleEvery(0, sim.Microsecond, func() {})
		}
		c.RunUntil(sim.Time(20 * sim.Microsecond))
		return c.Windows()
	}
	if got := windows(); got != 1 {
		t.Fatalf("%d windows before any boundary link, want 1 (unbounded lookahead)", got)
	}
	// RunUntil is inclusive, so the ticks at 20 µs take one window past
	// the ten 2 µs windows.
	if got := windows(5*sim.Microsecond, 2*sim.Microsecond, 9*sim.Microsecond); got != 11 {
		t.Fatalf("%d windows over 20µs, want 11 (the 2µs minimum cut delay)", got)
	}
}

func TestSingleShardPassthrough(t *testing.T) {
	c := shard.NewCluster(1)
	defer c.Close()
	if len(c.Engines()) != 1 {
		t.Fatalf("1-shard cluster reports %d engines", len(c.Engines()))
	}
	fired := 0
	c.Engines()[0].Schedule(sim.Time(100), func() { fired++ })
	c.RunUntil(sim.Time(50))
	if fired != 0 {
		t.Fatal("event before its instant")
	}
	c.RunUntil(sim.Time(100))
	if fired != 1 {
		t.Fatalf("event at t=100 fired %d times after RunUntil(100)", fired)
	}
	c.Close() // idempotent, no goroutines to stop
	c.Close()
}

// randomScenario describes one randomized delayed topology: n testers
// whose ports are joined by a random permutation of cables, each with
// its own positive propagation delay, plus per-port generator seeds.
// The description is plain data so the same scenario can be declared
// again for every shard count (a topo.Builder is single-use).
type randomScenario struct {
	testers int
	ports   int
	// wire[i] is the receiving port index (global: tester*ports+port)
	// of the cable headed by transmit port i.
	wire []int
	// delay[i] is cable i's propagation delay, always positive so every
	// partition of the testers is a legal cut.
	delay []sim.Duration
	seed  []uint64
}

func makeScenario(rng *sim.Rand) randomScenario {
	s := randomScenario{testers: 3 + rng.Intn(3), ports: 2}
	n := s.testers * s.ports
	s.wire = make([]int, n) // a Fisher–Yates permutation of the ports
	for i := range s.wire {
		s.wire[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := rng.Intn(i + 1)
		s.wire[i], s.wire[j] = s.wire[j], s.wire[i]
	}
	s.delay = make([]sim.Duration, n)
	s.seed = make([]uint64, n)
	for i := range s.delay {
		// 200 ns – 2.2 µs: cuts get lookaheads spanning an order of
		// magnitude, so windows and barrier cadence vary per scenario.
		s.delay[i] = sim.Duration(200+rng.Intn(2000)) * sim.Nanosecond
		s.seed[i] = rng.Uint64()
	}
	return s
}

// runScenario declares the scenario onto a cluster partitioned by
// shardOf (tester index → shard) and returns the traffic digest: per
// receiving port, an FNV-1a fold over every delivered frame's embedded
// send timestamp, measured latency and size, combined in global port
// order. Any retiming, reordering or loss anywhere changes it.
//
// A positive slice runs the traffic phase as RunUntil calls slice apart,
// and between calls the caller touches devices on every shard: it folds
// each generator's sent count into the digest, stops generator 0 after
// the second call and restarts it after the fourth.
func runScenario(t *testing.T, s randomScenario, shards int, shardOf func(i int) int, slice sim.Duration) uint64 {
	t.Helper()
	cl := shard.NewCluster(shards)
	defer cl.Close()

	b := topo.New()
	for i := 0; i < s.testers; i++ {
		b.Tester(fmt.Sprintf("t%d", i), netfpga.Config{Ports: s.ports})
	}
	ref := func(global int) string {
		return fmt.Sprintf("t%d:%d", global/s.ports, global%s.ports)
	}
	for from, to := range s.wire {
		b.LinkAt(ref(from), ref(to), 0, s.delay[from])
	}
	tp, err := b.BuildPartitioned(cl.Partition(func(name string) int {
		var i int
		fmt.Sscanf(name, "t%d", &i)
		return shardOf(i)
	}))
	if err != nil {
		t.Fatal(err)
	}

	digests := make([]uint64, s.testers*s.ports)
	for i := range digests {
		digests[i] = 14695981039346656037
		d := &digests[i]
		tp.Port(ref(i)).OnReceive = func(f *wire.Frame, _ sim.Time, ts timing.Timestamp) {
			if t0, ok := gen.ExtractTimestamp(f.Data, gen.DefaultTimestampOffset); ok {
				*d = fnvMix(fnvMix(fnvMix(*d, uint64(t0)), uint64(ts.Sub(t0))), uint64(f.Size))
			}
		}
	}

	var gens []*gen.Generator
	for i := range s.wire {
		g, err := gen.New(tp.Port(ref(i)), gen.Config{
			Source: &gen.UDPFlowSource{Spec: packet.UDPSpec{
				SrcMAC: packet.MAC{2, 0, 0, 0, 0, byte(i + 1)},
				DstMAC: packet.MAC{2, 0, 0, 0, 1, byte(s.wire[i] + 1)},
				SrcIP:  packet.IP4{10, 0, 0, byte(i + 1)},
				DstIP:  packet.IP4{10, 0, 1, byte(s.wire[i] + 1)},
			}, NumFlows: 4, FrameSize: 512},
			Spacing:        gen.Poisson{Mean: 2 * wire.SerializationTime(512, wire.Rate10G)},
			EmbedTimestamp: true,
			Pool:           wire.DefaultPool,
			Seed:           s.seed[i],
		})
		if err != nil {
			t.Fatal(err)
		}
		g.Start(0)
		gens = append(gens, g)
	}
	const end = sim.Time(50 * sim.Microsecond)
	var sent uint64 = 14695981039346656037
	if slice > 0 {
		for i, at := 0, sim.Time(0).Add(slice); at < end; i, at = i+1, at.Add(slice) {
			cl.RunUntil(at)
			for _, g := range gens {
				sent = fnvMix(sent, g.Sent().Packets)
			}
			switch i {
			case 1:
				gens[0].Stop()
			case 3:
				gens[0].Start(at.Add(1))
			}
		}
	}
	cl.RunUntil(end)
	for _, g := range gens {
		g.Stop()
	}
	cl.Run() // drain in-flight frames

	digest := sent
	for _, d := range digests {
		digest = fnvMix(digest, d)
	}
	return digest
}

// fnvMix folds one 64-bit value into an FNV-1a digest byte by byte
// (the same fold the E20 experiment uses).
func fnvMix(h, v uint64) uint64 {
	const prime = 1099511628211
	for i := 0; i < 8; i++ {
		h = (h ^ (v & 0xff)) * prime
		v >>= 8
	}
	return h
}

// TestRandomPartitionDigest is the fuzz-style partition test: for a set
// of seeded random delayed topologies, ANY cut — every tester assigned
// to a uniformly random shard, including lopsided and empty-shard
// assignments — reproduces the single-shard stream digest exactly.
// Every cable carries a positive delay, so every assignment is legal;
// determinism must come from the structural delivery keys and the
// sorted boundary replay, not from any property of a particular
// partition shape.
func TestRandomPartitionDigest(t *testing.T) {
	for trial := 0; trial < 4; trial++ {
		trial := trial
		t.Run(fmt.Sprintf("trial%d", trial), func(t *testing.T) {
			rng := sim.NewRand(0x5eed<<8 | uint64(trial))
			s := makeScenario(rng)
			want := runScenario(t, s, 1, func(int) int { return 0 }, 0)
			for _, shards := range []int{2, 3, 4} {
				for cut := 0; cut < 3; cut++ {
					assign := make([]int, s.testers)
					for i := range assign {
						assign[i] = rng.Intn(shards)
					}
					got := runScenario(t, s, shards, func(i int) int { return assign[i] }, 0)
					if got != want {
						t.Fatalf("digest %016x at %d shards (cut %v) != single-shard %016x",
							got, shards, assign, want)
					}
				}
			}
		})
	}
}

// Alternating RunUntil with direct caller access to devices on every
// shard — reading counters, stopping and restarting a generator — must
// stay race-free and reproduce the 1-shard digest of the same call
// sequence. The slice is deliberately not a multiple of any lookahead,
// so calls end mid-window and the next call resumes from there.
func TestSlicedRunsWithCallerAccess(t *testing.T) {
	const slice = 3300 * sim.Nanosecond
	for trial := 0; trial < 2; trial++ {
		rng := sim.NewRand(0x511ce<<8 | uint64(trial))
		s := makeScenario(rng)
		want := runScenario(t, s, 1, func(int) int { return 0 }, slice)
		for _, shards := range []int{2, 3} {
			got := runScenario(t, s, shards, func(i int) int { return i % shards }, slice)
			if got != want {
				t.Fatalf("trial %d: sliced digest %016x at %d shards != single-shard %016x",
					trial, got, shards, want)
			}
		}
	}
}

// A panic in any shard's event is re-raised on the caller only after
// every other shard has finished the same window, and the cluster can
// still be closed afterwards. The bystander's event shares the window
// with the panicking one; under -race the read of its counter also
// certifies that the bystander's window happens-before the re-raise.
func TestPanicReraisedAfterEveryShardQuiesces(t *testing.T) {
	for panicking := 0; panicking < 2; panicking++ {
		c := shard.NewCluster(2)
		var sink topo.Sink
		c.CrossLink(0, 1, c.Engines()[0], wire.Rate10G, sim.Microsecond, &sink)
		bystander := 1 - panicking
		fired := 0
		c.Engines()[panicking].Schedule(sim.Time(5*sim.Microsecond), func() { panic("boom") })
		c.Engines()[bystander].Schedule(sim.Time(5500*sim.Nanosecond), func() { fired++ })
		func() {
			defer func() {
				if r := recover(); r != "boom" {
					t.Fatalf("shard %d panicked: recovered %v, want boom", panicking, r)
				}
			}()
			c.RunUntil(sim.Time(100 * sim.Microsecond))
		}()
		if fired != 1 {
			t.Fatalf("shard %d panicked: bystander shard fired %d events of its window before the re-raise, want 1",
				panicking, fired)
		}
		c.Close()
		c.Close()
	}
}

// Windows open only where work is: one frame every 100 µs across a 1 µs
// cut must cost a handful of windows per frame, not one per lookahead
// of the 10 ms span.
func TestSparseTrafficStepsWindowsPerFrame(t *testing.T) {
	c := shard.NewCluster(2)
	defer c.Close()
	b := topo.New()
	b.Tester("a", netfpga.Config{Ports: 1})
	b.Tester("z", netfpga.Config{Ports: 1})
	b.LinkAt("a:0", "z:0", 0, sim.Microsecond)
	tp, err := b.BuildPartitioned(c.Partition(func(name string) int {
		if name == "z" {
			return 1
		}
		return 0
	}))
	if err != nil {
		t.Fatal(err)
	}
	received := 0
	tp.Port("z:0").OnReceive = func(*wire.Frame, sim.Time, timing.Timestamp) { received++ }
	g, err := gen.New(tp.Port("a:0"), gen.Config{
		Source: &gen.UDPFlowSource{Spec: packet.UDPSpec{
			SrcMAC: packet.MAC{2, 0, 0, 0, 0, 1}, DstMAC: packet.MAC{2, 0, 0, 0, 0, 2},
			SrcIP: packet.IP4{10, 0, 0, 1}, DstIP: packet.IP4{10, 0, 0, 2},
		}, NumFlows: 1, FrameSize: 512},
		Spacing: gen.CBR{Interval: 100 * sim.Microsecond},
		Pool:    wire.DefaultPool,
	})
	if err != nil {
		t.Fatal(err)
	}
	g.Start(0)
	const span = 10 * sim.Millisecond
	c.RunUntil(sim.Time(span))
	g.Stop()
	c.Run()
	if received != 100 && received != 101 {
		t.Fatalf("received %d frames over %v at one per 100µs", received, span)
	}
	perFrame := float64(c.Windows()) / float64(received)
	t.Logf("%d windows for %d frames (%.1f per frame; fixed windows would step %d)",
		c.Windows(), received, perFrame, span/sim.Microsecond)
	if perFrame > 4 {
		t.Fatalf("%d windows for %d frames: %.1f per frame, want ≤ 4", c.Windows(), received, perFrame)
	}
}

// BenchmarkClusterWindow is the barrier protocol's cost per window: two
// shards, each with one reusable ticker firing once per lookahead, so
// every window holds work on both shards and none can be skipped.
// Steady state allocates nothing.
func BenchmarkClusterWindow(b *testing.B) {
	c := shard.NewCluster(2)
	defer c.Close()
	var sink topo.Sink
	c.CrossLink(0, 1, c.Engines()[0], wire.Rate10G, sim.Microsecond, &sink)
	const la = sim.Microsecond // the lookahead: the one cut delay
	for _, e := range c.Engines() {
		e.ScheduleEvery(0, la, func() {})
	}
	warm := sim.Time(0).Add(100 * la)
	c.RunUntil(warm) // first windows: slot and buffer growth
	w0 := c.Windows()
	b.ReportAllocs()
	b.ResetTimer()
	c.RunUntil(warm.Add(sim.Duration(b.N) * la))
	b.StopTimer()
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(c.Windows()-w0), "ns/window")
}
