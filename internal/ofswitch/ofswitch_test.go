package ofswitch

import (
	"testing"

	"osnt/internal/netfpga"
	"osnt/internal/openflow"
	"osnt/internal/packet"
	"osnt/internal/sim"
	"osnt/internal/stats"
	"osnt/internal/wire"
)

func netfpgaCard(e *sim.Engine) *netfpga.Card {
	return netfpga.New(e, netfpga.Config{Ports: 1})
}

var (
	macA = packet.MAC{2, 0, 0, 0, 0, 1}
	macB = packet.MAC{2, 0, 0, 0, 0, 2}
	ipA  = packet.IP4{10, 0, 0, 1}
	ipB  = packet.IP4{10, 0, 0, 2}
)

func probe(dport uint16, size int) []byte {
	return packet.UDPSpec{
		SrcMAC: macA, DstMAC: macB, SrcIP: ipA, DstIP: ipB,
		SrcPort: 4000, DstPort: dport, FrameSize: size,
	}.Build()
}

// rig: host cards on switch ports 1 and 2 (OF numbering), controller
// attached.
type rig struct {
	e    *sim.Engine
	sw   *Switch
	ctl  *Controller
	in   *wire.Link // into switch port index 0
	rx   []sim.Time // deliveries at host behind port index 1
	rxD  [][]byte
	msgs []openflow.Message
	xids []uint32
}

func newRig(t *testing.T, cfg Config) *rig {
	t.Helper()
	r := &rig{e: sim.NewEngine()}
	r.sw = New(r.e, cfg)
	r.in = wire.NewLink(r.e, wire.Rate10G, 0, r.sw.Port(0))
	sink := wire.EndpointFunc(func(f *wire.Frame, _, at sim.Time) {
		r.rx = append(r.rx, at)
		r.rxD = append(r.rxD, f.Data)
	})
	r.sw.Port(1).SetLink(wire.NewLink(r.e, wire.Rate10G, 0, sink))
	r.sw.Port(2).SetLink(wire.NewLink(r.e, wire.Rate10G, 0, nil))
	r.ctl = Connect(r.sw)
	r.ctl.OnMessage = func(m openflow.Message, xid uint32) {
		r.msgs = append(r.msgs, m)
		r.xids = append(r.xids, xid)
	}
	return r
}

// addFlow installs dport→port2 (OF port 2 = index 1) and waits for
// install.
func (r *rig) addFlow(t *testing.T, dport uint16, outPort uint16) {
	t.Helper()
	m := openflow.MatchAll()
	m.Wildcards &^= openflow.WildDlType | openflow.WildNwProto | openflow.WildTpDst
	m.DlType = packet.EtherTypeIPv4
	m.NwProto = packet.ProtoUDP
	m.TpDst = dport
	r.ctl.Send(&openflow.FlowMod{
		Match: m, Command: openflow.FCAdd, Priority: 100,
		BufferID: 0xffffffff, OutPort: openflow.PortNone,
		Actions: []openflow.Action{&openflow.ActionOutput{Port: outPort}},
	}, uint32(dport))
	r.e.Run() // control latency + CPU + HW install all drain
}

func TestFlowInstallAndForward(t *testing.T) {
	r := newRig(t, Config{})
	r.addFlow(t, 80, 2)
	if r.sw.Table().Len() != 1 {
		t.Fatalf("table len %d", r.sw.Table().Len())
	}
	r.in.Transmit(wire.One(wire.NewFrame(probe(80, 256))), r.e.Now())
	r.e.Run()
	if len(r.rx) != 1 {
		t.Fatalf("delivered %d", len(r.rx))
	}
	if got := r.sw.Port(1).TxStats().Packets; got != 1 {
		t.Fatalf("egress port counted %d frames, want 1", got)
	}
	if got := r.sw.Table().Entries()[0].Packets; got != 1 {
		t.Fatalf("flow entry matched %d packets, want 1", got)
	}
}

// A frame queued behind a busy egress leaves at its own ready instant
// (arrival + pipeline latency), not when the frame ahead of it finishes:
// at 50% load every frame through one rule takes pipeline latency plus
// serialisation, however long the frame ahead held the MAC.
func TestQueuedFrameWaitsForItsOwnPipeline(t *testing.T) {
	r := newRig(t, Config{})
	r.addFlow(t, 80, 2)
	slot := wire.SerializationTime(128, wire.Rate10G)
	var arrived []sim.Time
	for i := 0; i < 6; i++ {
		at := r.e.Now().Add(sim.Duration(2*i) * slot) // two slots apart
		arrived = append(arrived, at.Add(slot))       // last bit at the switch
		r.e.Schedule(at, func() { r.in.Transmit(wire.One(wire.NewFrame(probe(80, 128))), r.e.Now()) })
	}
	r.e.Run()
	if len(r.rx) != len(arrived) {
		t.Fatalf("delivered %d of %d", len(r.rx), len(arrived))
	}
	want := 600*sim.Nanosecond + slot // default PipelineLatency + egress serialisation
	for i, at := range r.rx {
		if got := at.Sub(arrived[i]); got != want {
			t.Errorf("frame %d took %v, want %v", i, got, want)
		}
	}
}

func TestTableMissGeneratesPacketIn(t *testing.T) {
	r := newRig(t, Config{})
	r.in.Transmit(wire.One(wire.NewFrame(probe(9999, 512))), r.e.Now())
	r.e.Run()
	if len(r.msgs) != 1 {
		t.Fatalf("controller messages %d", len(r.msgs))
	}
	pin, ok := r.msgs[0].(*openflow.PacketIn)
	if !ok {
		t.Fatalf("got %T", r.msgs[0])
	}
	if pin.Reason != openflow.ReasonNoMatch || pin.InPort != 1 {
		t.Fatalf("%+v", pin)
	}
	if len(pin.Data) != 128 { // default MissSendLen
		t.Fatalf("miss data %d", len(pin.Data))
	}
	if int(pin.TotalLen) != 508 {
		t.Fatalf("total len %d", pin.TotalLen)
	}
}

func TestMissWithoutControllerDrops(t *testing.T) {
	e := sim.NewEngine()
	sw := New(e, Config{})
	ledger := &wire.DropLedger{}
	hop := ledger.Add("of")
	sw.SetDropSite(ledger, hop)
	in := wire.NewLink(e, wire.Rate10G, 0, sw.Port(0))
	in.Transmit(wire.One(wire.NewFrame(probe(1, 64))), e.Now())
	e.Run()
	if got, all := ledger.Count(hop, wire.DropNoRule), stats.NewLossMap(0, 0, ledger).Attributed(); got != 1 || all != 1 {
		t.Fatalf("ledger no-rule drops %d of %d total, want 1 of 1", got, all)
	}
}

func TestBarrierOrderingAndHWLag(t *testing.T) {
	// Send FLOW_MOD then BARRIER. The barrier reply must come after the
	// flow_mod's CPU work but BEFORE the dataplane applies the rule —
	// the forwarding-consistency window.
	r := newRig(t, Config{})
	m := openflow.MatchAll()
	r.ctl.Send(&openflow.FlowMod{
		Match: m, Command: openflow.FCAdd, Priority: 1,
		BufferID: 0xffffffff, OutPort: openflow.PortNone,
		Actions: []openflow.Action{&openflow.ActionOutput{Port: 2}},
	}, 1)
	r.ctl.Send(&openflow.BarrierRequest{}, 2)

	var barrierAt, installedAt sim.Time
	r.ctl.OnMessage = func(msg openflow.Message, xid uint32) {
		if msg.Type() == openflow.TypeBarrierReply {
			barrierAt = r.e.Now()
		}
	}
	// Poll for dataplane visibility.
	r.e.ScheduleEvery(0, 50*sim.Microsecond, func() {
		if installedAt == 0 && r.sw.Table().Len() > 0 {
			installedAt = r.e.Now()
		}
	})
	r.e.RunUntil(20 * sim.Time(sim.Millisecond))
	if barrierAt == 0 || installedAt == 0 {
		t.Fatalf("barrier %v installed %v", barrierAt, installedAt)
	}
	if barrierAt >= installedAt {
		t.Fatalf("barrier (%v) should precede dataplane install (%v)", barrierAt, installedAt)
	}
	gap := installedAt.Sub(barrierAt)
	if gap < sim.Millisecond {
		t.Fatalf("consistency window %v, expected ≈HWInstallDelay", gap)
	}
}

func TestEchoRTT(t *testing.T) {
	r := newRig(t, Config{})
	start := r.e.Now()
	var rtt sim.Duration
	r.ctl.OnMessage = func(m openflow.Message, xid uint32) {
		if m.Type() == openflow.TypeEchoReply && xid == 42 {
			rtt = r.e.Now().Sub(start)
		}
	}
	r.ctl.Send(&openflow.EchoRequest{Data: []byte("x")}, 42)
	r.e.Run()
	// 2×100µs channel + 5µs CPU.
	want := 205 * sim.Microsecond
	if rtt != want {
		t.Fatalf("echo RTT %v, want %v", rtt, want)
	}
}

func TestFeaturesHandshake(t *testing.T) {
	r := newRig(t, Config{DatapathID: 0xabc})
	r.ctl.Send(&openflow.FeaturesRequest{}, 5)
	r.e.Run()
	if len(r.msgs) != 1 {
		t.Fatalf("messages %d", len(r.msgs))
	}
	fr, ok := r.msgs[0].(*openflow.FeaturesReply)
	if !ok || fr.DatapathID != 0xabc || len(fr.Ports) != 4 {
		t.Fatalf("%+v", r.msgs[0])
	}
	if r.xids[0] != 5 {
		t.Fatal("xid not echoed")
	}
}

func TestModifyChangesActions(t *testing.T) {
	r := newRig(t, Config{})
	r.addFlow(t, 80, 2)
	r.in.Transmit(wire.One(wire.NewFrame(probe(80, 128))), r.e.Now())
	r.e.Run()
	n := len(r.rx)

	// Redirect port 80 traffic to OF port 3 (unconnected → vanishes).
	m := openflow.MatchAll()
	m.Wildcards &^= openflow.WildDlType | openflow.WildNwProto | openflow.WildTpDst
	m.DlType = packet.EtherTypeIPv4
	m.NwProto = packet.ProtoUDP
	m.TpDst = 80
	r.ctl.Send(&openflow.FlowMod{
		Match: m, Command: openflow.FCModify, Priority: 100,
		BufferID: 0xffffffff, OutPort: openflow.PortNone,
		Actions: []openflow.Action{&openflow.ActionOutput{Port: 3}},
	}, 9)
	r.e.Run()
	r.in.Transmit(wire.One(wire.NewFrame(probe(80, 128))), r.e.Now())
	r.e.Run()
	if len(r.rx) != n {
		t.Fatal("modified flow still reaches old port")
	}
	if r.sw.Table().Len() != 1 {
		t.Fatalf("modify duplicated the entry: %d", r.sw.Table().Len())
	}
}

func TestDeleteRemovesAndNotifies(t *testing.T) {
	r := newRig(t, Config{})
	m := openflow.MatchAll()
	m.Wildcards &^= openflow.WildTpDst
	m.TpDst = 80
	r.ctl.Send(&openflow.FlowMod{
		Match: m, Command: openflow.FCAdd, Priority: 7,
		BufferID: 0xffffffff, OutPort: openflow.PortNone,
		Flags:   openflow.FlagSendFlowRem,
		Actions: []openflow.Action{&openflow.ActionOutput{Port: 2}},
	}, 1)
	r.e.Run()
	if r.sw.Table().Len() != 1 {
		t.Fatal("not installed")
	}
	// Non-strict delete with a broader match.
	r.ctl.Send(&openflow.FlowMod{
		Match: openflow.MatchAll(), Command: openflow.FCDelete,
		BufferID: 0xffffffff, OutPort: openflow.PortNone,
	}, 2)
	r.e.Run()
	if r.sw.Table().Len() != 0 {
		t.Fatal("delete left entries")
	}
	var removed *openflow.FlowRemoved
	for _, msg := range r.msgs {
		if fr, ok := msg.(*openflow.FlowRemoved); ok {
			removed = fr
		}
	}
	if removed == nil || removed.Reason != openflow.RemovedDelete || removed.Priority != 7 {
		t.Fatalf("flow removed %+v", removed)
	}
}

func TestPriorityOrdering(t *testing.T) {
	r := newRig(t, Config{})
	// Low-priority catch-all → port 3 (unconnected), high-priority port
	// 80 → port 2.
	r.ctl.Send(&openflow.FlowMod{
		Match: openflow.MatchAll(), Command: openflow.FCAdd, Priority: 1,
		BufferID: 0xffffffff, OutPort: openflow.PortNone,
		Actions: []openflow.Action{&openflow.ActionOutput{Port: 3}},
	}, 1)
	r.addFlow(t, 80, 2)
	r.in.Transmit(wire.One(wire.NewFrame(probe(80, 128))), r.e.Now())
	r.in.Transmit(wire.One(wire.NewFrame(probe(81, 128))), r.e.Now())
	r.e.Run()
	if len(r.rx) != 1 {
		t.Fatalf("deliveries %d, want only the port-80 probe", len(r.rx))
	}
}

func TestHeaderRewriteActions(t *testing.T) {
	r := newRig(t, Config{})
	m := openflow.MatchAll()
	r.ctl.Send(&openflow.FlowMod{
		Match: m, Command: openflow.FCAdd, Priority: 1,
		BufferID: 0xffffffff, OutPort: openflow.PortNone,
		Actions: []openflow.Action{
			&openflow.ActionSetDlAddr{TypeCode: openflow.ActTypeSetDlDst, Addr: packet.MAC{9, 9, 9, 9, 9, 9}},
			&openflow.ActionSetNwAddr{TypeCode: openflow.ActTypeSetNwDst, Addr: packet.IP4{192, 168, 9, 9}},
			&openflow.ActionSetTpPort{TypeCode: openflow.ActTypeSetTpDst, Port: 9999},
			&openflow.ActionOutput{Port: 2},
		},
	}, 1)
	r.e.Run()
	r.in.Transmit(wire.One(wire.NewFrame(probe(80, 256))), r.e.Now())
	r.e.Run()
	if len(r.rxD) != 1 {
		t.Fatal("no delivery")
	}
	out := r.rxD[0]
	var eth packet.Ethernet
	var ip packet.IPv4
	var udp packet.UDP
	if err := eth.DecodeFromBytes(out); err != nil {
		t.Fatal(err)
	}
	if eth.Dst != (packet.MAC{9, 9, 9, 9, 9, 9}) {
		t.Fatalf("dl_dst %v", eth.Dst)
	}
	if err := ip.DecodeFromBytes(eth.Payload()); err != nil {
		t.Fatal(err)
	}
	if ip.Dst != (packet.IP4{192, 168, 9, 9}) {
		t.Fatalf("nw_dst %v", ip.Dst)
	}
	if !ip.VerifyChecksum(eth.Payload()) {
		t.Fatal("IP checksum broken by rewrite")
	}
	if err := udp.DecodeFromBytes(ip.Payload()); err != nil {
		t.Fatal(err)
	}
	if udp.DstPort != 9999 {
		t.Fatalf("tp_dst %d", udp.DstPort)
	}
	if !udp.VerifyChecksum(ip.Payload(), ip.Src, ip.Dst) {
		t.Fatal("UDP checksum broken by rewrite")
	}
}

func TestRewriteAfterOutputDoesNotCorruptQueuedFrame(t *testing.T) {
	// A rewrite action AFTER an output must not mutate the frame already
	// handed to the egress queue: [output:2, set_dl_dst X] transmits the
	// original bytes, exactly as the clone-per-output dataplane did.
	r := newRig(t, Config{})
	r.ctl.Send(&openflow.FlowMod{
		Match: openflow.MatchAll(), Command: openflow.FCAdd, Priority: 1,
		BufferID: 0xffffffff, OutPort: openflow.PortNone,
		Actions: []openflow.Action{
			&openflow.ActionOutput{Port: 2},
			&openflow.ActionSetDlAddr{TypeCode: openflow.ActTypeSetDlDst, Addr: packet.MAC{9, 9, 9, 9, 9, 9}},
		},
	}, 1)
	r.e.Run()
	r.in.Transmit(wire.One(wire.NewFrame(probe(80, 256))), r.e.Now())
	r.e.Run()
	if len(r.rxD) != 1 {
		t.Fatal("no delivery")
	}
	var eth packet.Ethernet
	if err := eth.DecodeFromBytes(r.rxD[0]); err != nil {
		t.Fatal(err)
	}
	if eth.Dst != macB {
		t.Fatalf("trailing rewrite leaked into the transmitted frame: dst %v", eth.Dst)
	}
}

func TestControllerOutputAfterPortOutput(t *testing.T) {
	// [output:2, output:CONTROLLER]: the port egress and the PACKET_IN
	// must both carry the probe's bytes — the trailing controller read
	// must not race the frame handed to (or dropped by) the egress
	// queue.
	r := newRig(t, Config{})
	r.ctl.Send(&openflow.FlowMod{
		Match: openflow.MatchAll(), Command: openflow.FCAdd, Priority: 1,
		BufferID: 0xffffffff, OutPort: openflow.PortNone,
		Actions: []openflow.Action{
			&openflow.ActionOutput{Port: 2},
			&openflow.ActionOutput{Port: openflow.PortController, MaxLen: 64},
		},
	}, 1)
	r.e.Run()
	want := probe(80, 256)
	r.msgs = nil
	r.in.Transmit(wire.One(wire.NewFrame(want)), r.e.Now())
	r.e.Run()
	if len(r.rxD) != 1 || string(r.rxD[0]) != string(want) {
		t.Fatalf("port egress: %d deliveries", len(r.rxD))
	}
	if len(r.msgs) != 1 {
		t.Fatalf("controller messages %d", len(r.msgs))
	}
	pin, ok := r.msgs[0].(*openflow.PacketIn)
	if !ok || pin.Reason != openflow.ReasonAction {
		t.Fatalf("got %+v", r.msgs[0])
	}
	if string(pin.Data) != string(want[:64]) {
		t.Fatal("PACKET_IN prefix does not match the probe")
	}
}

func TestVlanPushRewriteStrip(t *testing.T) {
	f := wire.NewFrame(probe(80, 128))
	origSize := f.Size
	rewriteFrame(f, &openflow.ActionSetVlanVid{Vid: 42})
	if f.Size != origSize+4 {
		t.Fatalf("push: size %d", f.Size)
	}
	key, err := openflow.KeyFromPacket(f.Data, 1)
	if err != nil || key.DlVlan != 42 {
		t.Fatalf("pushed vlan key %+v err %v", key, err)
	}
	rewriteFrame(f, &openflow.ActionSetVlanVid{Vid: 100})
	if f.Size != origSize+4 {
		t.Fatal("rewrite should not grow")
	}
	key, _ = openflow.KeyFromPacket(f.Data, 1)
	if key.DlVlan != 100 {
		t.Fatalf("rewritten vid %d", key.DlVlan)
	}
	rewriteFrame(f, &openflow.ActionStripVlan{})
	if f.Size != origSize {
		t.Fatalf("strip: size %d want %d", f.Size, origSize)
	}
	key, _ = openflow.KeyFromPacket(f.Data, 1)
	if key.DlVlan != openflow.VlanNone || key.TpDst != 80 {
		t.Fatalf("stripped key %+v", key)
	}
}

func TestFloodAction(t *testing.T) {
	r := newRig(t, Config{})
	r.ctl.Send(&openflow.FlowMod{
		Match: openflow.MatchAll(), Command: openflow.FCAdd, Priority: 1,
		BufferID: 0xffffffff, OutPort: openflow.PortNone,
		Actions: []openflow.Action{&openflow.ActionOutput{Port: openflow.PortFlood}},
	}, 1)
	r.e.Run()
	r.in.Transmit(wire.One(wire.NewFrame(probe(80, 64))), r.e.Now())
	r.e.Run()
	// Flood from port index 0 reaches the sink on index 1 exactly once
	// (index 2's link has no peer, index 3 unconnected).
	if len(r.rx) != 1 {
		t.Fatalf("flood deliveries %d", len(r.rx))
	}
}

func TestPacketOutInjection(t *testing.T) {
	r := newRig(t, Config{})
	r.ctl.Send(&openflow.PacketOut{
		BufferID: 0xffffffff, InPort: openflow.PortNone,
		Actions: []openflow.Action{&openflow.ActionOutput{Port: 2}},
		Data:    probe(80, 128),
	}, 1)
	r.e.Run()
	if len(r.rx) != 1 {
		t.Fatalf("packet-out deliveries %d", len(r.rx))
	}
}

func TestStatsReplies(t *testing.T) {
	r := newRig(t, Config{})
	r.addFlow(t, 80, 2)
	r.in.Transmit(wire.One(wire.NewFrame(probe(80, 256))), r.e.Now())
	r.e.Run()

	r.msgs = nil
	r.ctl.Send(&openflow.StatsRequest{StatsType: openflow.StatsFlow,
		Flow: &openflow.FlowStatsRequest{Match: openflow.MatchAll(), OutPort: openflow.PortNone}}, 1)
	r.ctl.Send(&openflow.StatsRequest{StatsType: openflow.StatsAggregate,
		Flow: &openflow.FlowStatsRequest{Match: openflow.MatchAll(), OutPort: openflow.PortNone}}, 2)
	r.ctl.Send(&openflow.StatsRequest{StatsType: openflow.StatsPort,
		Port: &openflow.PortStatsRequest{PortNo: openflow.PortNone}}, 3)
	r.e.Run()
	if len(r.msgs) != 3 {
		t.Fatalf("stats replies %d", len(r.msgs))
	}
	flow := r.msgs[0].(*openflow.StatsReply)
	if len(flow.Flows) != 1 || flow.Flows[0].PacketCount != 1 {
		t.Fatalf("flow stats %+v", flow.Flows)
	}
	agg := r.msgs[1].(*openflow.StatsReply)
	if agg.Aggregate.FlowCount != 1 || agg.Aggregate.PacketCount != 1 {
		t.Fatalf("aggregate %+v", agg.Aggregate)
	}
	ports := r.msgs[2].(*openflow.StatsReply)
	if len(ports.Ports) != 4 {
		t.Fatalf("port stats %d", len(ports.Ports))
	}
	if ports.Ports[0].RxPackets != 1 { // OF port 1 received the probe
		t.Fatalf("port1 rx %d", ports.Ports[0].RxPackets)
	}
}

func TestHardTimeoutExpiry(t *testing.T) {
	r := newRig(t, Config{})
	m := openflow.MatchAll()
	r.ctl.Send(&openflow.FlowMod{
		Match: m, Command: openflow.FCAdd, Priority: 1, HardTimeout: 1,
		BufferID: 0xffffffff, OutPort: openflow.PortNone,
		Flags:   openflow.FlagSendFlowRem,
		Actions: []openflow.Action{&openflow.ActionOutput{Port: 2}},
	}, 1)
	r.e.RunUntil(500 * sim.Time(sim.Millisecond))
	if r.sw.Table().Len() != 1 {
		t.Fatal("entry missing before timeout")
	}
	r.e.RunUntil(3 * sim.Time(sim.Second))
	if r.sw.Table().Len() != 0 {
		t.Fatal("hard timeout did not evict")
	}
	found := false
	for _, msg := range r.msgs {
		if fr, ok := msg.(*openflow.FlowRemoved); ok && fr.Reason == openflow.RemovedHardTimeout {
			found = true
		}
	}
	if !found {
		t.Fatal("no FLOW_REMOVED(hard timeout)")
	}
}

func TestTableCapacity(t *testing.T) {
	tab := NewFlowTable(2)
	mk := func(p uint16) *Entry {
		m := openflow.MatchAll()
		m.Wildcards &^= openflow.WildTpDst
		m.TpDst = p
		return &Entry{Match: m, Priority: p}
	}
	if !tab.Add(mk(1)) || !tab.Add(mk(2)) {
		t.Fatal("adds failed")
	}
	if tab.Add(mk(3)) {
		t.Fatal("overfull add accepted")
	}
	// Replacing an existing match succeeds at capacity.
	if !tab.Add(mk(2)) {
		t.Fatal("replacement rejected")
	}
}

func TestFlowModCostScalesWithTable(t *testing.T) {
	// Installing into a 2000-entry table must take measurably longer
	// than into an empty one (FlowModPerEntry).
	installTime := func(prefill int) sim.Duration {
		r := newRig(t, Config{HWInstallDelay: sim.Nanosecond})
		for i := 0; i < prefill; i++ {
			m := openflow.MatchAll()
			m.Wildcards &^= openflow.WildTpDst
			m.TpDst = uint16(i + 1)
			r.sw.Table().Add(&Entry{Match: m, Priority: 10})
		}
		start := r.e.Now()
		var done sim.Time
		r.ctl.OnMessage = func(msg openflow.Message, _ uint32) {
			if msg.Type() == openflow.TypeBarrierReply {
				done = r.e.Now()
			}
		}
		m := openflow.MatchAll()
		r.ctl.Send(&openflow.FlowMod{Match: m, Command: openflow.FCAdd, Priority: 1,
			BufferID: 0xffffffff, OutPort: openflow.PortNone,
			Actions: []openflow.Action{&openflow.ActionOutput{Port: 2}}}, 1)
		r.ctl.Send(&openflow.BarrierRequest{}, 2)
		r.e.Run()
		return done.Sub(start)
	}
	empty := installTime(0)
	full := installTime(2000)
	if full <= empty {
		t.Fatalf("install into full table (%v) not slower than empty (%v)", full, empty)
	}
}

func TestCutoverUsesTimestampClock(t *testing.T) {
	// Sanity: dataplane forwarding works with a card as the traffic
	// source, matching the OFLOPS topology.
	e := sim.NewEngine()
	sw := New(e, Config{})
	card := netfpgaCard(e)
	card.Port(0).SetLink(wire.NewLink(e, wire.Rate10G, 0, sw.Port(0)))
	got := 0
	sink := wire.EndpointFunc(func(*wire.Frame, sim.Time, sim.Time) { got++ })
	sw.Port(1).SetLink(wire.NewLink(e, wire.Rate10G, 0, sink))
	ctl := Connect(sw)
	ctl.Send(&openflow.FlowMod{Match: openflow.MatchAll(), Command: openflow.FCAdd,
		Priority: 1, BufferID: 0xffffffff, OutPort: openflow.PortNone,
		Actions: []openflow.Action{&openflow.ActionOutput{Port: 2}}}, 1)
	e.Run()
	card.Port(0).Enqueue(wire.One(wire.NewFrame(probe(80, 64))))
	e.Run()
	if got != 1 {
		t.Fatalf("delivered %d", got)
	}
}

func BenchmarkLookupLinear64Rules(b *testing.B) {
	tab := NewFlowTable(tableCap)
	for i := 0; i < 64; i++ {
		m := openflow.MatchAll()
		m.Wildcards &^= openflow.WildTpDst
		m.TpDst = uint16(i + 1)
		tab.Add(&Entry{Match: m, Priority: 50})
	}
	key, _ := openflow.KeyFromPacket(probe(64, 96), 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if tab.Lookup(&key) == nil {
			b.Fatal("miss")
		}
	}
}
