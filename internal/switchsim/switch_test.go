package switchsim

import (
	"testing"

	"osnt/internal/gen"
	"osnt/internal/netfpga"
	"osnt/internal/packet"
	"osnt/internal/sim"
	"osnt/internal/stats"
	"osnt/internal/timing"
	"osnt/internal/wire"
)

var (
	macA = packet.MAC{2, 0, 0, 0, 0, 0xa}
	macB = packet.MAC{2, 0, 0, 0, 0, 0xb}
	macC = packet.MAC{2, 0, 0, 0, 0, 0xc}
)

// rate1G is the slow port of the mixed-rate rigs.
const rate1G = wire.Rate(1_000_000_000)

func udpFrame(src, dst packet.MAC, size int) *wire.Frame {
	return wire.NewFrame(packet.UDPSpec{
		SrcMAC: src, DstMAC: dst,
		SrcIP: packet.IP4{10, 0, 0, 1}, DstIP: packet.IP4{10, 0, 0, 2},
		SrcPort: 1000, DstPort: 2000, FrameSize: size,
	}.Build())
}

// topo: three hosts (cards) on switch ports 0,1,2.
type topo struct {
	e     *sim.Engine
	sw    *Switch
	hosts []*netfpga.Card
	rx    [][]sim.Time // arrival times per host
}

func newTopo(t *testing.T, cfg Config, hosts int) *topo {
	t.Helper()
	tp := &topo{e: sim.NewEngine()}
	tp.sw = New(tp.e, cfg)
	tp.rx = make([][]sim.Time, hosts)
	for i := 0; i < hosts; i++ {
		i := i
		card := netfpga.New(tp.e, netfpga.Config{Ports: 1})
		toSwitch, toHost := wire.NewLink(tp.e, wire.Rate10G, 0, tp.sw.Port(i)), wire.NewLink(tp.e, wire.Rate10G, 0, card.Port(0))
		card.Port(0).SetLink(toSwitch)
		tp.sw.Port(i).SetLink(toHost)
		card.Port(0).OnReceive = func(f *wire.Frame, at sim.Time, _ timing.Timestamp) {
			tp.rx[i] = append(tp.rx[i], at)
		}
		tp.hosts = append(tp.hosts, card)
	}
	return tp
}

func (tp *topo) send(host int, f *wire.Frame) { tp.hosts[host].Port(0).Enqueue(wire.One(f)) }

func TestFloodThenLearn(t *testing.T) {
	tp := newTopo(t, Config{}, 3)
	// A → B: B unknown, flood to ports 1 and 2.
	tp.send(0, udpFrame(macA, macB, 64))
	tp.e.Run()
	if len(tp.rx[1]) != 1 || len(tp.rx[2]) != 1 {
		t.Fatalf("flood delivery %d/%d", len(tp.rx[1]), len(tp.rx[2]))
	}
	// B → A: A learned on port 0, unicast only.
	tp.send(1, udpFrame(macB, macA, 64))
	tp.e.Run()
	if len(tp.rx[0]) != 1 {
		t.Fatal("unicast to A missing")
	}
	if len(tp.rx[2]) != 1 {
		t.Fatalf("C received unicast: %d", len(tp.rx[2]))
	}
	// A → B again: B now learned.
	tp.send(0, udpFrame(macA, macB, 64))
	tp.e.Run()
	if len(tp.rx[1]) != 2 || len(tp.rx[2]) != 1 {
		t.Fatal("learned unicast flooded")
	}
}

func TestNoHairpin(t *testing.T) {
	tp := newTopo(t, Config{}, 2)
	// Teach the switch that both MACs live on port 0, then send A→B from
	// port 0: the frame must not be sent back out port 0.
	tp.send(0, udpFrame(macA, macC, 64))
	tp.e.Run()
	tp.send(0, udpFrame(macB, macC, 64))
	tp.e.Run()
	before := len(tp.rx[0])
	tp.send(0, udpFrame(macA, macB, 64))
	tp.e.Run()
	if len(tp.rx[0]) != before {
		t.Fatal("hairpin forwarding")
	}
}

func TestBroadcastFloods(t *testing.T) {
	tp := newTopo(t, Config{}, 3)
	bc := packet.MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}
	tp.send(0, udpFrame(macA, bc, 64))
	tp.e.Run()
	if len(tp.rx[1]) != 1 || len(tp.rx[2]) != 1 || len(tp.rx[0]) != 0 {
		t.Fatal("broadcast delivery wrong")
	}
}

func TestStoreAndForwardLatency(t *testing.T) {
	// Single 1518B frame at idle: latency from first bit at switch to
	// last bit at receiver = frame serialisation (store) + lookup +
	// egress serialisation.
	cfg := Config{Mode: StoreAndForward}
	cfg.fill()
	tp := newTopo(t, cfg, 2)
	tp.send(0, udpFrame(macA, macB, 1518))
	tp.e.Run()
	tp.rx[1] = nil
	// Second frame unicasts (learned? B never spoke: still flood). Teach B:
	tp.send(1, udpFrame(macB, macA, 64))
	tp.e.Run()
	tp.rx[1] = nil

	start := tp.e.Now()
	tp.send(0, udpFrame(macA, macB, 1518))
	tp.e.Run()
	if len(tp.rx[1]) != 1 {
		t.Fatal("frame not delivered")
	}
	ser := wire.SerializationTime(1518, wire.Rate10G)
	lookup := cfg.LookupPerPacket + 1518*sim.Duration(cfg.LookupPerByte) + cfg.PipelineLatency
	want := start.Add(ser).Add(lookup).Add(ser) // ingress store + lookup + egress
	got := tp.rx[1][0]
	if got != want {
		t.Fatalf("SF delivery at %v, want %v", got, want)
	}
}

func TestCutThroughBeatsStoreAndForward(t *testing.T) {
	run := func(mode ForwardingMode) sim.Duration {
		cfg := Config{Mode: mode}
		tp := newTopo(t, cfg, 2)
		// learn both directions
		tp.send(0, udpFrame(macA, macB, 64))
		tp.e.Run()
		tp.send(1, udpFrame(macB, macA, 64))
		tp.e.Run()
		tp.rx[1] = nil
		start := tp.e.Now()
		tp.send(0, udpFrame(macA, macB, 1518))
		tp.e.Run()
		return tp.rx[1][0].Sub(start)
	}
	sf := run(StoreAndForward)
	ct := run(CutThrough)
	if ct >= sf {
		t.Fatalf("cut-through %v not faster than store-and-forward %v", ct, sf)
	}
	// The gap is the full store time (serialisation slot including
	// preamble and IFG) minus the 64B cut-through window.
	wantGap := wire.SerializationTime(1518, wire.Rate10G) - 64*wire.Rate10G.ByteTime()
	gap := sf - ct
	if gap != wantGap {
		t.Fatalf("CT advantage %v, want %v", gap, wantGap)
	}
}

func TestLatencyGrowsWithLoad(t *testing.T) {
	// Poisson traffic port0→port1 at 30% vs 95% of line rate: mean
	// latency must grow substantially (M/D/1 queueing at the lookup).
	meanLatency := func(load float64) float64 {
		e := sim.NewEngine()
		// Capacity slightly below line rate plus jittered service: the
		// configuration E3 uses to reproduce the latency-vs-load curve.
		sw := New(e, Config{LookupPerByte: sim.Picoseconds(820), LookupJitter: 0.5, Seed: 7})
		cardA := netfpga.New(e, netfpga.Config{Ports: 1})
		cardB := netfpga.New(e, netfpga.Config{Ports: 1})
		aOut, aIn := wire.NewLink(e, wire.Rate10G, 0, sw.Port(0)), wire.NewLink(e, wire.Rate10G, 0, cardA.Port(0))
		cardA.Port(0).SetLink(aOut)
		sw.Port(0).SetLink(aIn)
		bOut, bIn := wire.NewLink(e, wire.Rate10G, 0, sw.Port(1)), wire.NewLink(e, wire.Rate10G, 0, cardB.Port(0))
		cardB.Port(0).SetLink(bOut)
		sw.Port(1).SetLink(bIn)

		// Pre-teach the FDB.
		cardB.Port(0).Enqueue(wire.One(udpFrame(macB, macA, 64)))
		e.Run()

		var sum float64
		var n int
		cardB.Port(0).OnReceive = func(f *wire.Frame, at sim.Time, _ timing.Timestamp) {
			if ts, ok := gen.ExtractTimestamp(f.Data, gen.DefaultTimestampOffset); ok {
				sum += float64(at.Sub(ts.Sim()))
				n++
			}
		}
		slot := wire.SerializationTime(512, wire.Rate10G)
		g, err := gen.New(cardA.Port(0), gen.Config{
			Source:         &gen.UDPFlowSource{Spec: packet.UDPSpec{SrcMAC: macA, DstMAC: macB, SrcIP: packet.IP4{10, 0, 0, 1}, DstIP: packet.IP4{10, 0, 0, 2}, SrcPort: 1, DstPort: 2}, FrameSize: 512},
			Spacing:        gen.Poisson{Mean: sim.Duration(float64(slot) / load)},
			EmbedTimestamp: true,
			Seed:           99,
		})
		if err != nil {
			t.Fatal(err)
		}
		g.Start(e.Now())
		e.RunUntil(e.Now() + 20*sim.Time(sim.Millisecond))
		g.Stop()
		if n < 100 {
			t.Fatalf("too few samples at load %v: %d", load, n)
		}
		return sum / float64(n)
	}
	low := meanLatency(0.3)
	high := meanLatency(0.95)
	if high < low*1.5 {
		t.Fatalf("latency at 95%% load (%v ps) not ≫ 30%% load (%v ps)", high, low)
	}
}

func TestEgressContentionQueues(t *testing.T) {
	// Two senders at 70% each into one receiver: egress is oversubscribed,
	// the queue must build and eventually drop.
	e := sim.NewEngine()
	sw := New(e, Config{EgressQueueCap: 32})
	var cards []*netfpga.Card
	for i := 0; i < 3; i++ {
		card := netfpga.New(e, netfpga.Config{Ports: 1})
		out, in := wire.NewLink(e, wire.Rate10G, 0, sw.Port(i)), wire.NewLink(e, wire.Rate10G, 0, card.Port(0))
		card.Port(0).SetLink(out)
		sw.Port(i).SetLink(in)
		cards = append(cards, card)
	}
	// Teach the receiver's MAC.
	cards[2].Port(0).Enqueue(wire.One(udpFrame(macC, macA, 64)))
	e.Run()

	mk := func(i int, srcMAC packet.MAC) *gen.Generator {
		g, err := gen.New(cards[i].Port(0), gen.Config{
			Source: &gen.UDPFlowSource{Spec: packet.UDPSpec{
				SrcMAC: srcMAC, DstMAC: macC,
				SrcIP: packet.IP4{10, 0, 0, byte(i)}, DstIP: packet.IP4{10, 0, 0, 9},
				SrcPort: 1, DstPort: 2}, FrameSize: 512},
			Spacing: gen.CBRForLoad(512, wire.Rate10G, 0.7),
			Seed:    uint64(i),
		})
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	g0, g1 := mk(0, macA), mk(1, macB)
	g0.Start(e.Now())
	g1.Start(e.Now())
	e.RunUntil(e.Now() + 5*sim.Time(sim.Millisecond))
	g0.Stop()
	g1.Stop()
	if sw.Port(2).Drops() == 0 {
		t.Fatal("oversubscribed egress did not drop")
	}
	if sw.Port(2).Egress().Packets == 0 {
		t.Fatal("nothing forwarded")
	}
}

func TestLookupQueueOverflow(t *testing.T) {
	e := sim.NewEngine()
	sw := New(e, Config{LookupQueueCap: 4, LookupPerPacket: 100 * sim.Microsecond})
	card := netfpga.New(e, netfpga.Config{Ports: 1})
	out, in := wire.NewLink(e, wire.Rate10G, 0, sw.Port(0)), wire.NewLink(e, wire.Rate10G, 0, card.Port(0))
	card.Port(0).SetLink(out)
	sw.Port(0).SetLink(in)
	sw.Port(1).SetLink(wire.NewLink(e, wire.Rate10G, 0, nil))
	for i := 0; i < 20; i++ {
		card.Port(0).Enqueue(wire.One(udpFrame(macA, macB, 64)))
	}
	e.RunUntil(sim.Time(sim.Millisecond))
	if sw.LookupDrops() == 0 {
		t.Fatal("slow lookup pipeline did not overflow")
	}
}

func TestRuntFrameDropped(t *testing.T) {
	e := sim.NewEngine()
	sw := New(e, Config{})
	sw.Port(1).SetLink(wire.NewLink(e, wire.Rate10G, 0, nil))
	got := 0
	sw.Port(0).SetLink(wire.NewLink(e, wire.Rate10G, 0, nil))
	l := wire.NewLink(e, wire.Rate10G, 0, sw.Port(0))
	l.Transmit(wire.One(&wire.Frame{Data: make([]byte, 8), Size: 12}), e.Now())
	e.Run()
	if got != 0 || sw.Forwarded().Packets != 0 {
		t.Fatal("runt frame forwarded")
	}
}

func TestModeString(t *testing.T) {
	if StoreAndForward.String() != "store-and-forward" || CutThrough.String() != "cut-through" {
		t.Fatal("mode strings")
	}
}

func BenchmarkSwitchForwarding(b *testing.B) {
	e := sim.NewEngine()
	sw := New(e, Config{})
	cardA := netfpga.New(e, netfpga.Config{Ports: 1, TxQueueCap: 1 << 20})
	cardB := netfpga.New(e, netfpga.Config{Ports: 1})
	aOut, aIn := wire.NewLink(e, wire.Rate10G, 0, sw.Port(0)), wire.NewLink(e, wire.Rate10G, 0, cardA.Port(0))
	cardA.Port(0).SetLink(aOut)
	sw.Port(0).SetLink(aIn)
	bOut, bIn := wire.NewLink(e, wire.Rate10G, 0, sw.Port(1)), wire.NewLink(e, wire.Rate10G, 0, cardB.Port(0))
	cardB.Port(0).SetLink(bOut)
	sw.Port(1).SetLink(bIn)
	cardB.Port(0).Enqueue(wire.One(udpFrame(macB, macA, 64)))
	e.Run()
	f := udpFrame(macA, macB, 512)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cardA.Port(0).Enqueue(wire.One(f.Clone()))
		for e.Step() {
		}
	}
}

// mixedTopo wires a two-port mixed-rate switch: host 0 on a fast ingress
// port, host 1 on a slow egress port, each link at its port's own rate.
func mixedTopo(t *testing.T, cfg Config) *topo {
	t.Helper()
	tp := &topo{e: sim.NewEngine()}
	tp.sw = New(tp.e, cfg)
	tp.rx = make([][]sim.Time, 2)
	for i := 0; i < 2; i++ {
		i := i
		rate := tp.sw.PortRate(i)
		card := netfpga.New(tp.e, netfpga.Config{Ports: 1, Rate: rate, TxQueueCap: 1 << 16})
		toSwitch, toHost := wire.NewLink(tp.e, rate, 0, tp.sw.Port(i)), wire.NewLink(tp.e, rate, 0, card.Port(0))
		card.Port(0).SetLink(toSwitch)
		tp.sw.Port(i).SetLink(toHost)
		card.Port(0).OnReceive = func(f *wire.Frame, at sim.Time, _ timing.Timestamp) {
			tp.rx[i] = append(tp.rx[i], at)
		}
		tp.hosts = append(tp.hosts, card)
	}
	tp.sw.Learn(macA, 0)
	tp.sw.Learn(macB, 1)
	return tp
}

func TestPortRateDefaultsAndOverrides(t *testing.T) {
	e := sim.NewEngine()
	uniform := New(e, Config{})
	if uniform.PortRate(3) != wire.Rate10G {
		t.Fatalf("uniform switch: rate %v", uniform.PortRate(3))
	}
	mixed := New(e, Config{PortRates: []wire.Rate{0, wire.Rate40G}})
	if mixed.PortRate(0) != wire.Rate10G || mixed.PortRate(1) != wire.Rate40G {
		t.Fatalf("mixed switch: rates %v/%v", mixed.PortRate(0), mixed.PortRate(1))
	}
}

func TestTooManyPortRatesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for 5 rates on a 4-port switch")
		}
	}()
	New(sim.NewEngine(), Config{PortRates: []wire.Rate{0, 0, 0, 0, wire.Rate40G}})
}

// Store-and-forward speed conversion: a burst entering a 10G port bound
// for a 1G egress drains the egress FIFO at the egress port's own rate —
// the frames leave back-to-back at 1G spacing, not 10G spacing.
func TestSpeedConversionDrainsAtEgressRate(t *testing.T) {
	tp := mixedTopo(t, Config{Ports: 2, PortRates: []wire.Rate{wire.Rate10G, rate1G}})
	const n = 8
	for i := 0; i < n; i++ {
		tp.send(0, udpFrame(macA, macB, 512))
	}
	tp.e.Run()
	if len(tp.rx[1]) != n {
		t.Fatalf("delivered %d of %d", len(tp.rx[1]), n)
	}
	gap := wire.SerializationTime(512, rate1G)
	for i := 1; i < n; i++ {
		if got := tp.rx[1][i].Sub(tp.rx[1][i-1]); got != gap {
			t.Fatalf("inter-arrival %d: %v, want 1G slot %v", i, got, gap)
		}
	}
}

// Sustained fan-in overload past the bounded egress FIFO becomes tail
// drop, with the drop counter accounting for every missing frame.
func TestSpeedConversionTailDrop(t *testing.T) {
	tp := mixedTopo(t, Config{
		Ports: 2, PortRates: []wire.Rate{wire.Rate10G, rate1G},
		EgressQueueCap: 2,
	})
	const n = 16
	for i := 0; i < n; i++ {
		tp.send(0, udpFrame(macA, macB, 512))
	}
	tp.e.Run()
	drops := tp.sw.Port(1).Drops()
	if drops == 0 {
		t.Fatal("10G→1G overload with a 2-deep egress queue dropped nothing")
	}
	if got := uint64(len(tp.rx[1])) + drops; got != n {
		t.Fatalf("delivered %d + dropped %d != sent %d", len(tp.rx[1]), drops, n)
	}
}

// Crossing a rate boundary forces store-and-forward even in cut-through
// mode: egress serialisation cannot begin before the frame has fully
// arrived at the ingress MAC.
func TestCutThroughConversionStoresFully(t *testing.T) {
	tp := mixedTopo(t, Config{
		Ports: 2, PortRates: []wire.Rate{wire.Rate10G, rate1G},
		Mode: CutThrough,
		// Near-zero lookup and pipeline so the cut-through decision is
		// ready long before the frame has arrived — only the conversion
		// clamp can delay egress.
		LookupPerPacket: sim.Nanosecond,
		LookupPerByte:   sim.Picosecond,
		PipelineLatency: sim.Nanosecond,
	})
	start := tp.e.Now()
	tp.send(0, udpFrame(macA, macB, 1518))
	tp.e.Run()
	if len(tp.rx[1]) != 1 {
		t.Fatal("frame not delivered")
	}
	want := start.
		Add(wire.SerializationTime(1518, wire.Rate10G)). // full ingress store
		Add(wire.SerializationTime(1518, rate1G))        // egress at port rate
	if got := tp.rx[1][0]; got != want {
		t.Fatalf("converted cut-through delivery at %v, want store-and-forward %v", got, want)
	}
}

// A switch with a hop ID stamps every forwarded frame's trace at the
// instant the last bit leaves its egress port.
func TestHopStamping(t *testing.T) {
	tp := mixedTopo(t, Config{Ports: 2, HopID: 7})
	var hops []wire.Hop
	tp.hosts[1].Port(0).OnReceive = func(f *wire.Frame, at sim.Time, _ timing.Timestamp) {
		tp.rx[1] = append(tp.rx[1], at)
		if f.Trace.Len() == 1 {
			hops = append(hops, f.Trace.At(0))
		}
	}
	tp.send(0, udpFrame(macA, macB, 512))
	tp.e.Run()
	if len(tp.rx[1]) != 1 || len(hops) != 1 {
		t.Fatalf("delivered %d frames, %d single-hop traces", len(tp.rx[1]), len(hops))
	}
	// Zero propagation delay: the egress last-bit instant is the arrival
	// instant at the host.
	if hops[0].Node != 7 || hops[0].At != tp.rx[1][0] {
		t.Fatalf("hop stamp %+v, want node 7 at %v", hops[0], tp.rx[1][0])
	}
}

// The previously silent runt drop must now be counted and attributed.
func TestRuntDropCountedAndAttributed(t *testing.T) {
	e := sim.NewEngine()
	sw := New(e, Config{HopID: 3})
	ledger := &wire.DropLedger{}
	ledger.Register(3, "sw")
	sw.SetDropSite(ledger, 3)
	sw.Port(0).SetLink(wire.NewLink(e, wire.Rate10G, 0, nil))
	sw.Port(1).SetLink(wire.NewLink(e, wire.Rate10G, 0, nil))
	l := wire.NewLink(e, wire.Rate10G, 0, sw.Port(0))
	l.Transmit(wire.One(&wire.Frame{Data: make([]byte, 8), Size: 12}), e.Now())
	l.Transmit(wire.One(udpFrame(macA, macB, 64)), e.Now()) // a parseable frame is not a runt
	e.Run()
	if got := ledger.Count(3, wire.DropRunt); got != 1 {
		t.Fatalf("ledger runts at hop 3 = %d, want 1", got)
	}
	if got := stats.NewLossMap(0, 0, ledger).Attributed(); got != 1 {
		t.Fatalf("ledger total = %d (parseable frame misattributed?)", got)
	}
}

// Hairpin drops (destination learned on the ingress port) are counted
// and attributed like every other loss.
func TestHairpinDropCountedAndAttributed(t *testing.T) {
	tp := newTopo(t, Config{}, 2)
	ledger := &wire.DropLedger{}
	hop := ledger.Add("sw")
	tp.sw.SetDropSite(ledger, hop)
	tp.sw.Learn(macB, 0) // B behind port 0
	tp.send(0, udpFrame(macA, macB, 64))
	tp.e.Run()
	if got := ledger.Count(hop, wire.DropHairpin); got != 1 {
		t.Fatalf("ledger hairpins = %d, want 1", got)
	}
	if len(tp.rx[0]) != 0 && len(tp.rx[1]) != 0 {
		t.Fatal("hairpin frame was forwarded")
	}
}

// Drop classification: overflowing an egress FIFO at a speed-conversion
// point is rate-boundary, same-rate overflow is egress-overflow; the
// Port.Drops view counts both.
func TestDropReasonClassifiesRateBoundary(t *testing.T) {
	e := sim.NewEngine()
	// Port 0 ingress at 40G, port 1 egress at 10G, queue of 2: sustained
	// 40G input must tail-drop at the conversion point.
	sw := New(e, Config{
		Ports:           2,
		PortRates:       []wire.Rate{wire.Rate40G},
		EgressQueueCap:  2,
		LookupPerPacket: sim.Nanosecond,
		LookupPerByte:   sim.Picoseconds(10),
	})
	ledger := &wire.DropLedger{}
	hop := ledger.Add("conv")
	sw.SetDropSite(ledger, hop)
	sw.Learn(macB, 1)
	sink := wire.EndpointFunc(func(f *wire.Frame, _, _ sim.Time) { f.Release() })
	sw.Port(1).SetLink(wire.NewLink(e, wire.Rate10G, 0, &sink))
	in := wire.NewLink(e, wire.Rate40G, 0, sw.Port(0))
	for i := 0; i < 64; i++ {
		in.Transmit(wire.One(udpFrame(macA, macB, 512)), e.Now())
	}
	e.Run()
	rb := ledger.Count(hop, wire.DropRateBoundary)
	if rb == 0 {
		t.Fatal("conversion overflow not classified as rate-boundary")
	}
	if eo := ledger.Count(hop, wire.DropEgressOverflow); eo != 0 {
		t.Fatalf("conversion overflow misclassified as egress-overflow ×%d", eo)
	}
	if got := sw.Port(1).Drops(); got != rb {
		t.Fatalf("Port.Drops view %d != ledger rate-boundary %d", got, rb)
	}
}

// ECMP groups: flows spray deterministically across members, each flow
// sticks to one member, and both members carry traffic for a multi-flow
// workload.
func TestECMPSprayPerFlowSticky(t *testing.T) {
	tp := newTopo(t, Config{Ports: 3}, 3)
	gid := tp.sw.AddGroup(1, 2)
	tp.sw.LearnGroup(macB, gid)

	// 8 flows × 4 packets each: every packet of one flow must take the
	// same member port.
	for rep := 0; rep < 4; rep++ {
		for flow := 0; flow < 8; flow++ {
			f := wire.NewFrame(packet.UDPSpec{
				SrcMAC: macA, DstMAC: macB,
				SrcIP: packet.IP4{10, 0, 0, 1}, DstIP: packet.IP4{10, 0, 0, 2},
				SrcPort: uint16(1000 + flow), DstPort: 2000, FrameSize: 128,
			}.Build())
			tp.send(0, f)
		}
	}
	tp.e.Run()
	got1, got2 := len(tp.rx[1]), len(tp.rx[2])
	if got1+got2 != 32 {
		t.Fatalf("delivered %d+%d, want 32", got1, got2)
	}
	if got1 == 0 || got2 == 0 {
		t.Fatalf("8 flows collapsed onto one member: %d/%d", got1, got2)
	}
	if got1%4 != 0 || got2%4 != 0 {
		t.Fatalf("a flow straddled members: %d/%d (want multiples of 4)", got1, got2)
	}
	if tp.sw.Sprays() != 32 {
		t.Fatalf("Sprays = %d, want 32", tp.sw.Sprays())
	}
}

// A flood treats a group as one logical port: exactly one member
// carries the copy.
func TestFloodSendsOneCopyPerGroup(t *testing.T) {
	tp := newTopo(t, Config{Ports: 3}, 3)
	tp.sw.AddGroup(1, 2)
	tp.send(0, udpFrame(macA, macC, 64)) // unknown dst: flood
	tp.e.Run()
	if got := len(tp.rx[1]) + len(tp.rx[2]); got != 1 {
		t.Fatalf("flood delivered %d copies into a 2-member group, want 1", got)
	}
}

// Group bookkeeping is validated at registration.
func TestAddGroupValidates(t *testing.T) {
	e := sim.NewEngine()
	sw := New(e, Config{Ports: 4})
	gid := sw.AddGroup(1, 2)
	if gid != 1 {
		t.Fatalf("first group id %d, want 1 (groups are 1-based)", gid)
	}
	for _, fn := range []func(){
		func() { sw.AddGroup(3) },          // too few members
		func() { sw.AddGroup(2, 3) },       // port 2 already grouped
		func() { sw.AddGroup(0, 9) },       // out of range
		func() { sw.LearnGroup(macA, 99) }, // unknown group
		func() { sw.LearnGroup(macA, 0) },  // groups are 1-based
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("invalid group operation did not panic")
				}
			}()
			fn()
		}()
	}
}

// LAG-aware learning: reverse traffic arriving over a bundle member
// must not collapse a group-learned station onto that single member;
// arrival on a non-member port (a real station move) must relearn.
func TestGroupLearningSurvivesReverseTraffic(t *testing.T) {
	tp := newTopo(t, Config{Ports: 4}, 4)
	gid := tp.sw.AddGroup(1, 2)
	tp.sw.LearnGroup(macB, gid)

	// B replies over member port 2: the group pin must survive, so
	// traffic for B keeps spraying (8 flows must still use both members).
	tp.sw.Learn(macA, 0)
	tp.send(2, udpFrame(macB, macA, 64))
	for flow := 0; flow < 8; flow++ {
		f := wire.NewFrame(packet.UDPSpec{
			SrcMAC: macA, DstMAC: macB,
			SrcIP: packet.IP4{10, 0, 0, 1}, DstIP: packet.IP4{10, 0, 0, 2},
			SrcPort: uint16(1000 + flow), DstPort: 2000, FrameSize: 128,
		}.Build())
		tp.send(0, f)
	}
	tp.e.Run()
	if len(tp.rx[1]) == 0 || len(tp.rx[2]) == 0 {
		t.Fatalf("reverse traffic collapsed the bundle: member counts %d/%d",
			len(tp.rx[1]), len(tp.rx[2]))
	}

	// B then shows up on non-member port 3: the station moved, so the
	// group pin is replaced and traffic follows it there.
	tp.send(3, udpFrame(macB, macA, 64))
	before := len(tp.rx[3])
	tp.send(0, udpFrame(macA, macB, 64))
	tp.e.Run()
	if len(tp.rx[3]) != before+1 {
		t.Fatal("station move off the bundle was not relearned")
	}
}

// A frame must never be sprayed back into the bundle it arrived on:
// ingress on one member, destination group-learned on the same bundle,
// is a hairpin drop even when the hash picks the sibling member.
func TestGroupHairpinDropped(t *testing.T) {
	tp := newTopo(t, Config{Ports: 4}, 4)
	gid := tp.sw.AddGroup(1, 2)
	tp.sw.LearnGroup(macB, gid)
	ledger := &wire.DropLedger{}
	hop := ledger.Add("sw")
	tp.sw.SetDropSite(ledger, hop)

	// 8 flows in from member port 1 toward the group: with a correct
	// hairpin rule nothing leaves on either member.
	for flow := 0; flow < 8; flow++ {
		f := wire.NewFrame(packet.UDPSpec{
			SrcMAC: macC, DstMAC: macB,
			SrcIP: packet.IP4{10, 0, 0, 3}, DstIP: packet.IP4{10, 0, 0, 2},
			SrcPort: uint16(4000 + flow), DstPort: 2000, FrameSize: 128,
		}.Build())
		tp.send(1, f)
	}
	tp.e.Run()
	if got := len(tp.rx[1]) + len(tp.rx[2]); got != 0 {
		t.Fatalf("%d frames sprayed back into their own bundle", got)
	}
	if got := ledger.Count(hop, wire.DropHairpin); got != 8 {
		t.Fatalf("ledger hairpins = %d, want 8", got)
	}
}
