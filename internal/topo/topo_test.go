package topo

import (
	"strings"
	"testing"

	"osnt/internal/filter"
	"osnt/internal/gen"
	"osnt/internal/mon"
	"osnt/internal/netfpga"
	"osnt/internal/ofswitch"
	"osnt/internal/packet"
	"osnt/internal/sim"
	"osnt/internal/stats"
	"osnt/internal/switchsim"
	"osnt/internal/timing"
	"osnt/internal/wire"
)

var testSpec = packet.UDPSpec{
	SrcMAC:  packet.MAC{0x02, 0x05, 0x17, 0, 0, 0x01},
	DstMAC:  packet.MAC{0x02, 0x05, 0x17, 0, 0, 0x02},
	SrcIP:   packet.IP4{10, 0, 0, 1},
	DstIP:   packet.IP4{10, 0, 0, 2},
	SrcPort: 5000, DstPort: 7000,
}

// wantBuildError asserts Build fails and the message mentions every
// fragment (validation must name the offending nodes/ports).
func wantBuildError(t *testing.T, b *Builder, fragments ...string) {
	t.Helper()
	_, err := b.Build(sim.NewEngine())
	if err == nil {
		t.Fatal("Build succeeded, want validation error")
	}
	for _, frag := range fragments {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("error %q does not mention %q", err, frag)
		}
	}
}

func TestValidationDanglingEdge(t *testing.T) {
	wantBuildError(t,
		New().Tester("osnt", netfpga.Config{}).Link("osnt:0", "ghost:1"),
		"unknown node", "ghost")
}

func TestValidationPortOutOfRange(t *testing.T) {
	wantBuildError(t,
		New().Tester("osnt", netfpga.Config{}).Sink("s").Link("osnt:4", "s"),
		"out of range", "osnt:4")
	wantBuildError(t,
		New().Tester("a", netfpga.Config{Ports: 2}).DUT("sw", switchsim.Config{}).Link("a:0", "sw:7"),
		"out of range", "sw:7")
}

func TestValidationTransmitPortReuse(t *testing.T) {
	wantBuildError(t,
		New().Tester("osnt", netfpga.Config{}).Sink("a").Sink("b").
			Link("osnt:0", "a").Link("osnt:0", "b"),
		"transmit port osnt:0")
}

func TestValidationReceivePortReuse(t *testing.T) {
	wantBuildError(t,
		New().Tester("osnt", netfpga.Config{}).Sink("a").
			Link("osnt:0", "a").Link("osnt:1", "a"),
		"receive port a:0")
}

func TestValidationRateMismatch(t *testing.T) {
	// Explicit 40G edge into a 10G DUT port.
	wantBuildError(t,
		New().Tester("osnt", netfpga.Config{Rate: wire.Rate40G}).
			DUT("sw", switchsim.Config{}).
			LinkAt("osnt:0", "sw:0", wire.Rate40G, 0),
		"40Gb/s", `dut "sw"`)
	// Inherited rates that disagree between the endpoints.
	wantBuildError(t,
		New().Tester("osnt", netfpga.Config{Rate: wire.Rate40G}).
			DUT("sw", switchsim.Config{}).
			Link("osnt:0", "sw:0"),
		"40Gb/s", "10Gb/s")
}

func TestValidationSinkCannotTransmit(t *testing.T) {
	wantBuildError(t,
		New().Tester("osnt", netfpga.Config{}).Sink("s").Link("s", "osnt:0"),
		"sink", "cannot transmit")
}

func TestValidationDuplicateAndBadNames(t *testing.T) {
	wantBuildError(t,
		New().Tester("x", netfpga.Config{}).DUT("x", switchsim.Config{}),
		"duplicate node name")
	wantBuildError(t, New().Sink("a:b"), "contains ':'")
	wantBuildError(t, New().Sink(""), "empty name")
}

func TestValidationReportsAllErrorsAtOnce(t *testing.T) {
	wantBuildError(t,
		New().Tester("osnt", netfpga.Config{}).
			Link("osnt:0", "ghost").
			Link("osnt:9", "osnt:1"),
		"ghost", "osnt:9")
}

// The builder must wire a working rig: generator traffic through a DUT
// arrives at the far tester port, and sinks count what reaches them.
func TestBuildWiresWorkingTopology(t *testing.T) {
	e := sim.NewEngine()
	tp := New().
		Tester("osnt", netfpga.Config{}).
		DUT("sw", switchsim.Config{}).
		Sink("drop").
		Link("osnt:0", "sw:0").
		Duplex("sw:1", "osnt:1").
		Link("osnt:2", "drop").
		MustBuild(e)

	sw := tp.DUT("sw")
	sw.Learn(testSpec.DstMAC, 1)

	g, err := gen.New(tp.Port("osnt:0"), gen.Config{
		Source:  &gen.UDPFlowSource{Spec: testSpec, FrameSize: 64},
		Spacing: gen.CBRForLoad(64, wire.Rate10G, 0.5),
	})
	if err != nil {
		t.Fatal(err)
	}
	g.Start(0)
	e.RunUntil(sim.Time(100 * sim.Microsecond))
	g.Stop()
	e.Run()

	sent := g.Sent().Packets
	if sent == 0 {
		t.Fatal("generator sent nothing")
	}
	if got := tp.Port("osnt:1").RxStats().Packets; got != sent {
		t.Fatalf("tester port 1 received %d of %d packets through the DUT", got, sent)
	}

	// Sinks count and release.
	g2, err := gen.New(tp.Port("osnt:2"), gen.Config{
		Source:  &gen.UDPFlowSource{Spec: testSpec, FrameSize: 64},
		Spacing: gen.CBRForLoad(64, wire.Rate10G, 1.0),
	})
	if err != nil {
		t.Fatal(err)
	}
	g2.Start(e.Now())
	e.RunUntil(e.Now().Add(10 * sim.Microsecond))
	g2.Stop()
	e.Run()
	if got := tp.Sink("drop").Received().Packets; got != g2.Sent().Packets {
		t.Fatalf("sink received %d of %d", got, g2.Sent().Packets)
	}
}

// An OFSwitch node wires the oflops-style rig: the edge inherits the
// switch's native rate and the ports implement wire.Endpoint.
func TestBuildOFSwitchNode(t *testing.T) {
	e := sim.NewEngine()
	tp := New().
		Tester("osnt", netfpga.Config{}).
		OFSwitch("sw", ofswitch.Config{}).
		Duplex("osnt:0", "sw:0").
		Duplex("osnt:1", "sw:1").
		MustBuild(e)
	if tp.OFSwitch("sw").NumPorts() != 4 {
		t.Fatal("OF switch not instantiated with default ports")
	}
	if tp.Tester("osnt").Port(0).Link() == nil {
		t.Fatal("tester port 0 has no egress link")
	}
}

// Handle lookups with the wrong name or kind are programming errors and
// must panic loudly rather than return nil handles.
func TestHandlePanics(t *testing.T) {
	e := sim.NewEngine()
	tp := New().Tester("osnt", netfpga.Config{}).MustBuild(e)
	for name, fn := range map[string]func(){
		"unknown node": func() { tp.Tester("nope") },
		"wrong kind":   func() { tp.DUT("osnt") },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}

// AttachMonitor validates the capture configuration per monitor node:
// queue counts are checked against the card's DMA budget, reference and
// config errors panic with topo-level messages, and a valid attach wires
// a working capture engine.
func TestAttachMonitorValidatesQueues(t *testing.T) {
	e := sim.NewEngine()
	tp := New().
		Tester("osnt", netfpga.Config{Ports: 2, CaptureQueues: 4}).
		Tester("tx", netfpga.Config{Ports: 1}).
		DUT("sw", switchsim.Config{}).
		Link("tx:0", "osnt:1").
		Duplex("osnt:0", "sw:0").
		MustBuild(e)

	for name, fn := range map[string]func(){
		"beyond card budget": func() {
			tp.AttachMonitor("osnt:1", mon.Config{Queues: make([]mon.QueueConfig, 5)})
		},
		"negative ring": func() {
			tp.AttachMonitor("osnt:1", mon.Config{Queues: []mon.QueueConfig{{RingSize: -1}}})
		},
		"unknown node": func() {
			tp.AttachMonitor("nope:0", mon.Config{})
		},
		"not a tester": func() {
			tp.AttachMonitor("sw:0", mon.Config{})
		},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}

	// Within budget: the monitor attaches and captures.
	m := tp.AttachMonitor("osnt:1", mon.Config{Queues: make([]mon.QueueConfig, 4), Steer: mon.SteerRoundRobin})
	g, err := gen.New(tp.Port("tx:0"), gen.Config{
		Source:  &gen.UDPFlowSource{Spec: testSpec, FrameSize: 64},
		Spacing: gen.CBR{Interval: 10 * sim.Microsecond},
		Count:   8,
	})
	if err != nil {
		t.Fatal(err)
	}
	g.Start(0)
	e.Run()
	if m.Seen().Packets != 8 {
		t.Fatalf("monitor saw %d of 8", m.Seen().Packets)
	}
	for q := 0; q < m.NumQueues(); q++ {
		if got := m.QueueStats(q).Delivered.Packets; got != 2 {
			t.Fatalf("queue %d delivered %d, want 2 (round-robin over 4 queues)", q, got)
		}
	}
}

// Build is terminal: a second Build on the same Builder must fail rather
// than silently re-pointing the first Topology's handles at a second
// engine's devices.
func TestBuildIsTerminal(t *testing.T) {
	b := New().Tester("osnt", netfpga.Config{})
	t1, err := b.Build(sim.NewEngine())
	if err != nil {
		t.Fatal(err)
	}
	dev := t1.Tester("osnt")
	if _, err := b.Build(sim.NewEngine()); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("second Build: err = %v, want reuse error", err)
	}
	if t1.Tester("osnt") != dev {
		t.Fatal("first topology's handle changed")
	}
}

// Topology.Port holds references to the same grammar Build validates.
func TestPortReferenceStrictness(t *testing.T) {
	tp := New().Tester("osnt", netfpga.Config{}).MustBuild(sim.NewEngine())
	for _, ref := range []string{"osnt:-1", "osnt:", "osnt:x", "osnt:4"} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Port(%q): no panic", ref)
				}
			}()
			tp.Port(ref)
		}()
	}
	if tp.Port("osnt") != tp.Port("osnt:0") {
		t.Fatal("bare node reference is not port 0")
	}
}

// A 40G scenario builds end to end: the first consumer of wire.Rate40G
// outside the experiments.
func TestBuild40GLoopback(t *testing.T) {
	e := sim.NewEngine()
	tp := New().
		Tester("osnt", netfpga.Config{Ports: 2, Rate: wire.Rate40G}).
		Link("osnt:0", "osnt:1").
		MustBuild(e)
	l := tp.Port("osnt:0").Link()
	if l == nil || l.Rate != wire.Rate40G {
		t.Fatalf("loopback link rate = %v, want 40G", l.Rate)
	}
}

// A DUT with mixed per-port rates validates each edge against the rate
// of the specific port it joins — the E12 fan-in rig in miniature.
func TestMixedRateDUTValidatesPerPort(t *testing.T) {
	build := func() *Builder {
		return New().
			Tester("osnt", netfpga.Config{}).
			Tester("cap", netfpga.Config{Ports: 1, Rate: wire.Rate40G}).
			DUT("dut", switchsim.Config{
				Ports:     5,
				PortRates: []wire.Rate{0, 0, 0, 0, wire.Rate40G},
			})
	}
	// Edge ports at matching rates: builds.
	build().
		Link("osnt:0", "dut:0").
		Link("dut:4", "cap:0").
		MustBuild(sim.NewEngine())
	// The 40G uplink port cannot take a plain edge from a 10G tester.
	wantBuildError(t,
		build().Link("osnt:0", "dut:4"),
		"10Gb/s", "40Gb/s")
}

// DUTs get sequential hop IDs in declaration order unless pinned.
func TestDUTHopIDAssignment(t *testing.T) {
	e := sim.NewEngine()
	tp := New().
		Tester("osnt", netfpga.Config{Ports: 2}).
		DUT("sw1", switchsim.Config{}).
		DUT("sw2", switchsim.Config{HopID: 9}).
		DUT("sw3", switchsim.Config{}).
		Link("osnt:0", "sw1:0").
		Link("sw1:1", "sw2:0").
		Link("sw2:1", "sw3:0").
		Link("sw3:1", "osnt:1").
		MustBuild(e)
	for name, want := range map[string]int{"sw1": 1, "sw2": 9, "sw3": 2} {
		if got := tp.Hop(name); got != want {
			t.Errorf("%s hop ID %d, want %d", name, got, want)
		}
	}
}

// Pinned hop IDs are claimed before auto-assignment (so an auto DUT can
// never collide with a pinned one), and two DUTs pinning the same ID is
// a validation error — a shared Hop.Node would silently merge two
// devices' latency in every decomposition.
func TestDUTHopIDClash(t *testing.T) {
	e := sim.NewEngine()
	tp := New().
		DUT("auto", switchsim.Config{}).
		DUT("pin", switchsim.Config{HopID: 1}).
		MustBuild(e)
	if a, p := tp.Hop("auto"), tp.Hop("pin"); a == p || a != 2 {
		t.Fatalf("auto=%d pin=%d, want auto to skip the pinned 1", a, p)
	}
	wantBuildError(t,
		New().DUT("a", switchsim.Config{HopID: 3}).DUT("b", switchsim.Config{HopID: 3}),
		"both pin hop ID 3")
}

// End to end through a 2-DUT chain: the capture side sees a two-entry
// hop trace in traversal order, with non-decreasing stamps.
func TestChainHopTraceEndToEnd(t *testing.T) {
	e := sim.NewEngine()
	tp := New().
		Tester("osnt", netfpga.Config{Ports: 2}).
		DUT("sw1", switchsim.Config{}).
		DUT("sw2", switchsim.Config{}).
		Link("osnt:0", "sw1:0").
		Link("sw1:1", "sw2:0").
		Link("sw2:1", "osnt:1").
		MustBuild(e)
	tp.DUT("sw1").Learn(testSpec.DstMAC, 1)
	tp.DUT("sw2").Learn(testSpec.DstMAC, 1)
	var traces []wire.HopTrace
	tp.Port("osnt:1").OnReceive = func(f *wire.Frame, _ sim.Time, _ timing.Timestamp) {
		traces = append(traces, f.Trace)
	}
	g, err := gen.New(tp.Port("osnt:0"), gen.Config{
		Source:  &gen.UDPFlowSource{Spec: testSpec, FrameSize: 512},
		Spacing: gen.CBRForLoad(512, wire.Rate10G, 0.5),
		Count:   3,
		Pool:    wire.DefaultPool,
	})
	if err != nil {
		t.Fatal(err)
	}
	g.Start(0)
	e.Run()
	if len(traces) != 3 {
		t.Fatalf("captured %d traces, want 3", len(traces))
	}
	for _, tr := range traces {
		if tr.Len() != 2 {
			t.Fatalf("trace has %d hops, want 2", tr.Len())
		}
		h1, h2 := tr.At(0), tr.At(1)
		if h1.Node != 1 || h2.Node != 2 {
			t.Fatalf("hop order %d,%d, want 1,2", h1.Node, h2.Node)
		}
		if h2.At < h1.At {
			t.Fatalf("hop stamps go backwards: %v then %v", h1.At, h2.At)
		}
	}
}

// A mixed-rate DUT converts a slower ingress wire to a faster egress
// port; even in cut-through mode the switch must then store the whole
// frame before egress — otherwise the recorded delivery would precede
// the frame's own arrival (causality violation in every downstream
// timestamp).
func TestConvertEdgeCutThroughStoresFully(t *testing.T) {
	e := sim.NewEngine()
	tp := New().
		Tester("src", netfpga.Config{}). // 10G
		Tester("dst", netfpga.Config{Ports: 1, Rate: wire.Rate40G}).
		DUT("sw", switchsim.Config{
			Ports:     2,
			PortRates: []wire.Rate{wire.Rate10G, wire.Rate40G},
			Mode:      switchsim.CutThrough,
			// Near-zero lookup/pipeline: only the store clamp can delay
			// egress.
			LookupPerPacket: sim.Nanosecond,
			LookupPerByte:   sim.Picosecond,
			PipelineLatency: sim.Nanosecond,
		}).
		Link("src:0", "sw:0"). // 10G wire into the 10G DUT port
		Link("sw:1", "dst:0"). // out of the 40G DUT port
		MustBuild(e)
	tp.DUT("sw").Learn(testSpec.DstMAC, 1)
	var arrivals []sim.Time
	tp.Port("dst:0").OnReceive = func(_ *wire.Frame, at sim.Time, _ timing.Timestamp) {
		arrivals = append(arrivals, at)
	}
	spec := testSpec
	spec.FrameSize = 1518
	tp.Port("src:0").Enqueue(wire.One(wire.NewFrame(spec.Build())))
	e.Run()
	if len(arrivals) != 1 {
		t.Fatal("frame not delivered")
	}
	// Last bit enters the switch only after full 10G serialisation; the
	// 40G egress must start no earlier, so delivery lands at exactly
	// ingress-store + 40G egress serialisation.
	want := sim.Time(0).
		Add(wire.SerializationTime(1518, wire.Rate10G)).
		Add(wire.SerializationTime(1518, wire.Rate40G))
	if arrivals[0] != want {
		t.Fatalf("delivery at %v, want stored-then-forwarded %v", arrivals[0], want)
	}
}

// Group links expand to N parallel member edges on consecutive ports:
// Group("leaf:2", "spine:0", 2) claims leaf:2→spine:0 and
// leaf:3→spine:1, so re-using any member port afterwards is the usual
// port-reuse validation error.
func TestGroupLinkExpands(t *testing.T) {
	New().
		DUT("leaf", switchsim.Config{Ports: 4}).
		DUT("spine", switchsim.Config{Ports: 2}).
		Group("leaf:2", "spine:0", 2).
		MustBuild(sim.NewEngine())
	wantBuildError(t,
		New().
			DUT("leaf", switchsim.Config{Ports: 4}).
			DUT("spine", switchsim.Config{Ports: 4}).
			Group("leaf:2", "spine:0", 2).
			Link("leaf:3", "spine:3"), // second member's TX port is taken
		"transmit port leaf:3 used by two edges")
}

// GroupDuplexAt wires both directions of the bundle.
func TestGroupDuplexWiresBothDirections(t *testing.T) {
	e := sim.NewEngine()
	tp := New().
		DUT("leaf", switchsim.Config{Ports: 4}).
		DUT("spine", switchsim.Config{Ports: 4}).
		GroupDuplexAt("leaf:0", "spine:0", 2, 0, 0).
		MustBuild(e)
	// Both switches can transmit across the bundle: their member ports
	// have egress links (enqueue panics on a link-less port).
	tp.DUT("leaf").Learn(testSpec.DstMAC, 0)
	tp.DUT("spine").Learn(testSpec.SrcMAC, 0)
}

// Group validation: too few members, out-of-range member ports, port
// reuse against an existing edge, and mixed member rates all fail.
func TestGroupLinkValidation(t *testing.T) {
	wantBuildError(t,
		New().DUT("a", switchsim.Config{Ports: 4}).DUT("b", switchsim.Config{Ports: 4}).
			Group("a:0", "b:0", 1),
		"≥2 members")
	wantBuildError(t,
		New().DUT("a", switchsim.Config{Ports: 2}).DUT("b", switchsim.Config{Ports: 4}).
			Group("a:1", "b:0", 2),
		"out of range")
	wantBuildError(t,
		New().DUT("a", switchsim.Config{Ports: 4}).DUT("b", switchsim.Config{Ports: 4}).
			Link("a:1", "b:3").
			Group("a:0", "b:0", 2),
		"used by two edges")
	wantBuildError(t,
		New().
			DUT("a", switchsim.Config{Ports: 4, PortRates: []wire.Rate{0, 0, 0, wire.Rate40G}}).
			DUT("b", switchsim.Config{Ports: 4, PortRates: []wire.Rate{0, wire.Rate40G}}).
			Group("a:2", "b:0", 2),
		"mixes member rates")
}

// A failing group member must name itself: on a synthesized fabric a
// bundle is k ports wide, and "group link a:1 → b:0 member 1 (a:2)" is
// what makes the error actionable. The member index and the concrete
// offending port both appear.
func TestGroupMemberErrorsNameTheMember(t *testing.T) {
	// Member 1 of a 2-wide group resolves to out-of-range port a:2.
	wantBuildError(t,
		New().DUT("a", switchsim.Config{Ports: 2}).DUT("b", switchsim.Config{Ports: 4}).
			Group("a:1", "b:0", 2),
		"group link a:1 → b:0 member 1", "a:2")
	// Member 1 collides with a pre-existing edge on b:1.
	wantBuildError(t,
		New().DUT("a", switchsim.Config{Ports: 4}).DUT("b", switchsim.Config{Ports: 4}).
			Link("a:3", "b:1").
			Group("a:0", "b:0", 2),
		"group link a:0 → b:0 member 1", "b:1")
	// Mixed member rates name member 0 and the diverging member with
	// their resolved ports.
	wantBuildError(t,
		New().
			DUT("a", switchsim.Config{Ports: 4, PortRates: []wire.Rate{0, 0, 0, wire.Rate40G}}).
			DUT("b", switchsim.Config{Ports: 4}).
			Group("a:2", "b:0", 2),
		"mixes member rates", "member 0 (a:2)", "member 1 (a:3)")
}

// GroupAt/GroupDuplexAt carry an explicit member rate and propagation
// delay: a 40G trunk between two 40G ports builds, and traffic sprayed
// across it arrives after the configured delay.
func TestGroupAtRateAndDelay(t *testing.T) {
	e := sim.NewEngine()
	tp := New().
		DUT("a", switchsim.Config{Ports: 4, PortRates: []wire.Rate{0, 0, wire.Rate40G, wire.Rate40G}}).
		DUT("b", switchsim.Config{Ports: 4, PortRates: []wire.Rate{wire.Rate40G, wire.Rate40G}}).
		GroupDuplexAt("a:2", "b:0", 2, wire.Rate40G, sim.Microsecond).
		MustBuild(e)
	// Mismatched explicit rate against the native port rate still fails.
	wantBuildError(t,
		New().
			DUT("a", switchsim.Config{Ports: 4}).
			DUT("b", switchsim.Config{Ports: 4}).
			GroupAt("a:0", "b:0", 2, wire.Rate40G, 0),
		"group link a:0 → b:0 member 0", "ports run at")
	if tp.DUT("a") == nil || tp.DUT("b") == nil {
		t.Fatal("trunk endpoints missing")
	}
}

// The scenario ledger is threaded through every device Build
// instantiates: a DUT's drops land under its HopTrace hop ID, and
// conservation closes over the topology's own counters.
func TestBuildThreadsDropLedger(t *testing.T) {
	e := sim.NewEngine()
	tp := New().
		Tester("osnt", netfpga.Config{Ports: 2}).
		DUT("sw", switchsim.Config{EgressQueueCap: 2, LookupPerPacket: sim.Nanosecond, LookupPerByte: sim.Picoseconds(10)}).
		Sink("drain").
		Link("osnt:0", "sw:0").
		Link("sw:1", "drain").
		MustBuild(e)
	if tp.Drops() == nil {
		t.Fatal("topology owns no drop ledger")
	}
	if hop := tp.Hop("sw"); hop != 1 {
		t.Fatalf("ledger hop %d, want the sole DUT's HopTrace hop 1", hop)
	}
	if label := tp.Drops().Label(tp.Hop("sw")); label != "sw" {
		t.Fatalf("hop label %q", label)
	}
	tp.DUT("sw").Learn(testSpec.DstMAC, 1)
	g, err := gen.New(tp.Port("osnt:0"), gen.Config{
		Source:  &gen.UDPFlowSource{Spec: testSpec, FrameSize: 1518},
		Spacing: gen.CBRForLoad(1518, wire.Rate10G, 1.0),
		Count:   200,
		Pool:    wire.DefaultPool,
	})
	if err != nil {
		t.Fatal(err)
	}
	g.Start(0)
	e.Run()
	ledger := tp.Drops()
	// The 2-deep egress FIFO cannot absorb bursts created by lookup
	// jitter... it can: CBR at exactly line rate through an overspeed
	// lookup is lossless. So conservation is the assertion here:
	sent := g.Sent().Packets
	delivered := tp.Sink("drain").Received().Packets
	if lm := stats.NewLossMap(sent, delivered, ledger); !lm.Conserved() {
		t.Fatalf("sent %d != delivered %d + attributed %d", sent, delivered, lm.Attributed())
	}
}

// AttachMonitor registers the monitor as a loss point: filter rejects
// and ring overflows land in the scenario ledger.
func TestAttachMonitorJoinsLedger(t *testing.T) {
	e := sim.NewEngine()
	tp := New().
		Tester("tx", netfpga.Config{}).
		Tester("rx", netfpga.Config{}).
		Link("tx:0", "rx:0").
		MustBuild(e)
	filters := filter.NewTable(filter.Drop) // default-drop: everything rejected
	m := tp.AttachMonitor("rx:0", mon.Config{Filters: filters})
	g, err := gen.New(tp.Port("tx:0"), gen.Config{
		Source:  &gen.UDPFlowSource{Spec: testSpec, FrameSize: 64},
		Spacing: gen.CBRForLoad(64, wire.Rate10G, 0.5),
		Count:   50,
		Pool:    wire.DefaultPool,
	})
	if err != nil {
		t.Fatal(err)
	}
	g.Start(0)
	e.Run()
	if m.Filtered() != 50 {
		t.Fatalf("filtered %d, want 50", m.Filtered())
	}
	// The monitor registers at the next hop after the last device.
	if got := tp.Drops().Count(tp.Hop("rx")+1, wire.DropFilterReject); got != 50 {
		t.Fatalf("ledger filter rejects at the monitor = %d, want 50", got)
	}
	if got := filters.DefaultHits(); got != 50 {
		t.Fatalf("filter default-drop hits = %d, want 50 (cross-check broken)", got)
	}
}

// TestReadmeLossSnippet mirrors the README's group-link +
// loss-attribution example so the documentation stays compile-verified
// and behaviour-verified.
func TestReadmeLossSnippet(t *testing.T) {
	engine := sim.NewEngine()
	tp := New().
		Tester("osnt", netfpga.Config{Rate: wire.Rate40G}).
		DUT("leaf", switchsim.Config{Ports: 6, Rate: wire.Rate40G}).
		DUT("spine", switchsim.Config{Ports: 3, Rate: wire.Rate40G}).
		Sink("server").
		Link("osnt:0", "leaf:0").
		Group("leaf:4", "spine:0", 2). // 2×40G uplink bundle
		Link("spine:2", "server").
		MustBuild(engine)

	leaf := tp.DUT("leaf")
	gid := leaf.AddGroup(4, 5)                // ECMP over the bundle's ports
	leaf.LearnGroup(testSpec.DstMAC, gid)     // flows spray across members
	tp.DUT("spine").Learn(testSpec.DstMAC, 2) // spine forwards to the server

	// ... run traffic ...
	g, err := gen.New(tp.Port("osnt:0"), gen.Config{
		Source:  &gen.UDPFlowSource{Spec: testSpec, NumFlows: 16, FrameSize: 512},
		Spacing: gen.CBRForLoad(512, wire.Rate40G, 1.0),
		Count:   500,
		Pool:    wire.DefaultPool,
	})
	if err != nil {
		t.Fatal(err)
	}
	g.Start(0)
	engine.Run()

	sent := g.Sent().Packets
	delivered := tp.Sink("server").Received().Packets
	lm := stats.NewLossMap(sent, delivered, tp.Drops())
	if !lm.Conserved() { // sent = delivered + Σ attributed drops, exactly
		t.Fatalf("loss map does not conserve:\n%s", lm.Table().String())
	}
}
