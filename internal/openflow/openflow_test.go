package openflow

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"

	"osnt/internal/packet"
)

var (
	macA = packet.MAC{2, 0, 0, 0, 0, 1}
	macB = packet.MAC{2, 0, 0, 0, 0, 2}
)

func roundTrip(t *testing.T, m Message, xid uint32) Message {
	t.Helper()
	raw := Encode(m, xid)
	got, gotXid, err := Decode(raw)
	if err != nil {
		t.Fatalf("decode %s: %v", m.Type(), err)
	}
	if gotXid != xid {
		t.Fatalf("xid %d, want %d", gotXid, xid)
	}
	if got.Type() != m.Type() {
		t.Fatalf("type %s, want %s", got.Type(), m.Type())
	}
	return got
}

func TestHeaderFormat(t *testing.T) {
	raw := Encode(&Hello{}, 0xdeadbeef)
	if len(raw) != 8 {
		t.Fatalf("hello len %d", len(raw))
	}
	if raw[0] != 0x01 || raw[1] != 0 {
		t.Fatalf("header %x", raw[:2])
	}
	if raw[2] != 0 || raw[3] != 8 {
		t.Fatalf("length field %x", raw[2:4])
	}
	if raw[4] != 0xde || raw[7] != 0xef {
		t.Fatalf("xid bytes %x", raw[4:8])
	}
}

func TestSimpleMessagesRoundTrip(t *testing.T) {
	for _, m := range []Message{
		&Hello{}, &BarrierRequest{}, &BarrierReply{}, &FeaturesRequest{},
	} {
		roundTrip(t, m, 7)
	}
}

func TestEchoRoundTrip(t *testing.T) {
	m := roundTrip(t, &EchoRequest{Data: []byte("osnt-ping")}, 3).(*EchoRequest)
	if string(m.Data) != "osnt-ping" {
		t.Fatalf("payload %q", m.Data)
	}
	r := roundTrip(t, &EchoReply{Data: []byte("pong")}, 4).(*EchoReply)
	if string(r.Data) != "pong" {
		t.Fatalf("payload %q", r.Data)
	}
}

func TestErrorRoundTrip(t *testing.T) {
	m := roundTrip(t, &Error{ErrType: 3, Code: 2, Data: []byte{1, 2, 3}}, 9).(*Error)
	if m.ErrType != 3 || m.Code != 2 || !bytes.Equal(m.Data, []byte{1, 2, 3}) {
		t.Fatalf("%+v", m)
	}
}

func TestFeaturesReplyRoundTrip(t *testing.T) {
	in := &FeaturesReply{
		DatapathID: 0x00004e4f46504741, NBuffers: 256, NTables: 2,
		Capabilities: 0x87, Actions: 0xfff,
		Ports: []PhyPort{
			{No: 1, HWAddr: macA, Name: "eth1", Curr: 1 << 6},
			{No: 2, HWAddr: macB, Name: "eth2"},
		},
	}
	m := roundTrip(t, in, 1).(*FeaturesReply)
	if m.DatapathID != in.DatapathID || m.NBuffers != 256 || m.NTables != 2 {
		t.Fatalf("%+v", m)
	}
	if len(m.Ports) != 2 || m.Ports[0].Name != "eth1" || m.Ports[1].HWAddr != macB {
		t.Fatalf("ports %+v", m.Ports)
	}
	if m.Ports[0].Curr != 1<<6 {
		t.Fatal("port curr")
	}
}

func TestPacketInRoundTrip(t *testing.T) {
	in := &PacketIn{BufferID: 0xffffffff, TotalLen: 1500, InPort: 3,
		Reason: ReasonNoMatch, Data: []byte{0xaa, 0xbb}}
	m := roundTrip(t, in, 77).(*PacketIn)
	if !reflect.DeepEqual(m, in) {
		t.Fatalf("%+v != %+v", m, in)
	}
}

func TestPacketOutRoundTrip(t *testing.T) {
	in := &PacketOut{
		BufferID: 0xffffffff, InPort: PortNone,
		Actions: []Action{&ActionOutput{Port: 2, MaxLen: 0}},
		Data:    []byte{1, 2, 3, 4},
	}
	m := roundTrip(t, in, 5).(*PacketOut)
	if !reflect.DeepEqual(m, in) {
		t.Fatalf("%+v != %+v", m, in)
	}
}

func TestFlowModRoundTrip(t *testing.T) {
	match := MatchAll()
	match.Wildcards &^= WildDlType | WildNwProto | WildTpDst
	match.DlType = packet.EtherTypeIPv4
	match.NwProto = packet.ProtoUDP
	match.TpDst = 53
	match.SetNwDstPrefix(packet.IP4{10, 1, 2, 0}, 24)
	in := &FlowMod{
		Match: match, Cookie: 0xc00c1e, Command: FCAdd,
		IdleTimeout: 30, HardTimeout: 300, Priority: 100,
		BufferID: 0xffffffff, OutPort: PortNone, Flags: FlagSendFlowRem,
		Actions: []Action{
			&ActionSetDlAddr{TypeCode: ActTypeSetDlDst, Addr: macB},
			&ActionOutput{Port: 1},
		},
	}
	m := roundTrip(t, in, 42).(*FlowMod)
	if !reflect.DeepEqual(m, in) {
		t.Fatalf("\n got %+v\nwant %+v", m, in)
	}
	if m.Match.NwDstWildBits() != 8 {
		t.Fatalf("nw_dst wild bits %d", m.Match.NwDstWildBits())
	}
}

func TestFlowRemovedRoundTrip(t *testing.T) {
	in := &FlowRemoved{
		Match: MatchAll(), Cookie: 1, Priority: 10, Reason: RemovedIdleTimeout,
		DurationSec: 5, DurationNsec: 500, IdleTimeout: 30,
		PacketCount: 1000, ByteCount: 64000,
	}
	m := roundTrip(t, in, 8).(*FlowRemoved)
	if !reflect.DeepEqual(m, in) {
		t.Fatalf("%+v != %+v", m, in)
	}
}

func TestPortStatusRoundTrip(t *testing.T) {
	in := &PortStatus{Reason: 2, Desc: PhyPort{No: 4, HWAddr: macA, Name: "nf3"}}
	m := roundTrip(t, in, 2).(*PortStatus)
	if m.Reason != 2 || m.Desc.No != 4 || m.Desc.Name != "nf3" {
		t.Fatalf("%+v", m)
	}
}

func TestStatsFlowRoundTrip(t *testing.T) {
	req := &StatsRequest{StatsType: StatsFlow,
		Flow: &FlowStatsRequest{Match: MatchAll(), OutPort: PortNone}}
	m := roundTrip(t, req, 11).(*StatsRequest)
	if m.StatsType != StatsFlow || m.Flow == nil || m.Flow.OutPort != PortNone {
		t.Fatalf("%+v", m)
	}

	rep := &StatsReply{StatsType: StatsFlow, Flows: []FlowStats{
		{
			TableID: 0, Match: MatchAll(), DurationSec: 1, Priority: 5,
			Cookie: 7, PacketCount: 100, ByteCount: 6400,
			Actions: []Action{&ActionOutput{Port: 3}},
		},
		{TableID: 1, Match: MatchAll(), PacketCount: 1},
	}}
	rm := roundTrip(t, rep, 12).(*StatsReply)
	if len(rm.Flows) != 2 {
		t.Fatalf("flows %d", len(rm.Flows))
	}
	if rm.Flows[0].PacketCount != 100 || rm.Flows[0].Cookie != 7 {
		t.Fatalf("%+v", rm.Flows[0])
	}
	if len(rm.Flows[0].Actions) != 1 {
		t.Fatal("actions lost")
	}
	if rm.Flows[1].TableID != 1 {
		t.Fatal("second entry")
	}
}

func TestStatsAggregateAndPortRoundTrip(t *testing.T) {
	agg := roundTrip(t, &StatsReply{StatsType: StatsAggregate,
		Aggregate: &AggregateStats{PacketCount: 10, ByteCount: 640, FlowCount: 2}}, 1).(*StatsReply)
	if agg.Aggregate.FlowCount != 2 || agg.Aggregate.ByteCount != 640 {
		t.Fatalf("%+v", agg.Aggregate)
	}

	port := roundTrip(t, &StatsReply{StatsType: StatsPort, Ports: []PortStats{
		{PortNo: 1, RxPackets: 5, TxPackets: 6, RxBytes: 7, TxBytes: 8, RxDropped: 1},
		{PortNo: 2},
	}}, 2).(*StatsReply)
	if len(port.Ports) != 2 || port.Ports[0].TxPackets != 6 || port.Ports[0].RxDropped != 1 {
		t.Fatalf("%+v", port.Ports)
	}

	preq := roundTrip(t, &StatsRequest{StatsType: StatsPort,
		Port: &PortStatsRequest{PortNo: 3}}, 3).(*StatsRequest)
	if preq.Port.PortNo != 3 {
		t.Fatalf("%+v", preq)
	}
}

func TestAllActionsRoundTrip(t *testing.T) {
	in := &PacketOut{BufferID: 1, InPort: 1, Actions: []Action{
		&ActionOutput{Port: 1, MaxLen: 128},
		&ActionSetVlanVid{Vid: 100},
		&ActionStripVlan{},
		&ActionSetDlAddr{TypeCode: ActTypeSetDlSrc, Addr: macA},
		&ActionSetDlAddr{TypeCode: ActTypeSetDlDst, Addr: macB},
		&ActionSetNwAddr{TypeCode: ActTypeSetNwSrc, Addr: packet.IP4{1, 2, 3, 4}},
		&ActionSetNwAddr{TypeCode: ActTypeSetNwDst, Addr: packet.IP4{5, 6, 7, 8}},
		&ActionSetTpPort{TypeCode: ActTypeSetTpSrc, Port: 80},
		&ActionSetTpPort{TypeCode: ActTypeSetTpDst, Port: 443},
	}}
	m := roundTrip(t, in, 1).(*PacketOut)
	if !reflect.DeepEqual(m.Actions, in.Actions) {
		t.Fatalf("\n got %+v\nwant %+v", m.Actions, in.Actions)
	}
}

func TestDecodeErrors(t *testing.T) {
	if _, _, err := Decode([]byte{1, 0, 0}); err != ErrTruncated {
		t.Fatalf("short: %v", err)
	}
	bad := Encode(&Hello{}, 1)
	bad[0] = 4 // OF 1.3
	if _, _, err := Decode(bad); err != ErrBadVersion {
		t.Fatalf("version: %v", err)
	}
	tooLong := Encode(&Hello{}, 1)
	tooLong[3] = 200 // length > buffer
	if _, _, err := Decode(tooLong); err != ErrBadLength {
		t.Fatalf("length: %v", err)
	}
	truncBody := Encode(&FlowMod{Match: MatchAll()}, 1)[:HeaderLen+10]
	truncBody[2] = 0
	truncBody[3] = HeaderLen + 10
	if _, _, err := Decode(truncBody); err == nil {
		t.Fatal("truncated flow_mod accepted")
	}
}

func TestMatchCoversSemantics(t *testing.T) {
	frame := packet.UDPSpec{
		SrcMAC: macA, DstMAC: macB,
		SrcIP: packet.IP4{10, 1, 2, 3}, DstIP: packet.IP4{10, 9, 8, 7},
		SrcPort: 1234, DstPort: 80, FrameSize: 128,
	}.Build()
	key, err := KeyFromPacket(frame, 2)
	if err != nil {
		t.Fatal(err)
	}
	if key.InPort != 2 || key.DlVlan != VlanNone || key.NwProto != packet.ProtoUDP ||
		key.TpDst != 80 || key.NwSrc != (packet.IP4{10, 1, 2, 3}).Uint32() {
		t.Fatalf("key %+v", key)
	}

	all := MatchAll()
	if !all.Covers(&key) {
		t.Fatal("wildcard-all must cover everything")
	}

	exact := exactMatch(key)
	if !exact.Covers(&key) {
		t.Fatal("exact match must cover its own key")
	}
	other := key
	other.TpDst = 81
	if exact.Covers(&other) {
		t.Fatal("exact match covered a different key")
	}

	// Prefix semantics.
	m := MatchAll()
	m.Wildcards &^= WildDlType
	m.DlType = packet.EtherTypeIPv4
	m.SetNwDstPrefix(packet.IP4{10, 9, 0, 0}, 16)
	if !m.Covers(&key) {
		t.Fatal("10.9/16 must cover 10.9.8.7")
	}
	m.SetNwDstPrefix(packet.IP4{10, 2, 0, 0}, 16)
	if m.Covers(&key) {
		t.Fatal("10.2/16 must not cover 10.9.8.7")
	}

	// Field-specific mismatch.
	mp := MatchAll()
	mp.Wildcards &^= WildInPort
	mp.InPort = 3
	if mp.Covers(&key) {
		t.Fatal("in_port=3 covered in_port=2")
	}
}

func TestKeyFromPacketVLANAndARP(t *testing.T) {
	inner := packet.UDPSpec{
		SrcMAC: macA, DstMAC: macB,
		SrcIP: packet.IP4{1, 1, 1, 1}, DstIP: packet.IP4{2, 2, 2, 2},
		SrcPort: 5, DstPort: 6, FrameSize: 64,
	}.Build()
	eth := &packet.Ethernet{Dst: macB, Src: macA, EtherType: packet.EtherTypeVLAN}
	vlan := &packet.VLAN{ID: 300, Priority: 4, EtherType: packet.EtherTypeIPv4}
	buf := packet.NewSerializeBuffer(18, len(inner))
	tagged, _ := packet.Serialize(buf, packet.SerializeOptions{}, eth, vlan,
		packet.Payload(inner[packet.EthernetHeaderLen:]))
	key, err := KeyFromPacket(tagged, 1)
	if err != nil {
		t.Fatal(err)
	}
	if key.DlVlan != 300 || key.DlVlanPcp != 4 || key.DlType != packet.EtherTypeIPv4 || key.TpDst != 6 {
		t.Fatalf("vlan key %+v", key)
	}

	arp := &packet.ARP{Op: packet.ARPRequest, SenderHW: macA,
		SenderIP: packet.IP4{10, 0, 0, 1}, TargetIP: packet.IP4{10, 0, 0, 2}}
	ethArp := &packet.Ethernet{Dst: macB, Src: macA, EtherType: packet.EtherTypeARP}
	buf2 := packet.NewSerializeBuffer(48, 0)
	arpFrame, _ := packet.Serialize(buf2, packet.SerializeOptions{}, ethArp, arp)
	akey, err := KeyFromPacket(arpFrame, 1)
	if err != nil {
		t.Fatal(err)
	}
	if akey.NwProto != uint8(packet.ARPRequest) || akey.NwSrc != (packet.IP4{10, 0, 0, 1}).Uint32() {
		t.Fatalf("arp key %+v", akey)
	}
}

// Property: every FlowMod round trips exactly through encode/decode.
func TestPropertyFlowModRoundTrip(t *testing.T) {
	f := func(wild uint32, inPort, prio, tpDst uint16, proto uint8, nwsrc uint32, outPort uint16) bool {
		m := &FlowMod{
			Match: Match{
				Wildcards: wild & WildAll, InPort: inPort,
				NwProto: proto, NwSrc: nwsrc, TpDst: tpDst,
			},
			Command: FCAdd, Priority: prio, BufferID: 0xffffffff, OutPort: PortNone,
			Actions: []Action{&ActionOutput{Port: outPort}},
		}
		got, _, err := Decode(Encode(m, 1))
		if err != nil {
			return false
		}
		return reflect.DeepEqual(got, m)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// exactMatch is the match that wildcards none of k's fields.
func exactMatch(k Key) Match {
	return Match{
		InPort: k.InPort, DlSrc: k.DlSrc, DlDst: k.DlDst,
		DlVlan: k.DlVlan, DlVlanPcp: k.DlVlanPcp, DlType: k.DlType,
		NwTos: k.NwTos, NwProto: k.NwProto, NwSrc: k.NwSrc, NwDst: k.NwDst,
		TpSrc: k.TpSrc, TpDst: k.TpDst,
	}
}

// Property: match covering is reflexive for exact matches built from
// arbitrary keys.
func TestPropertyExactCoversSelf(t *testing.T) {
	f := func(inPort uint16, vlan uint16, dlType uint16, proto uint8, src, dst uint32, sp, dp uint16) bool {
		k := Key{InPort: inPort, DlVlan: vlan, DlType: dlType, NwProto: proto,
			NwSrc: src, NwDst: dst, TpSrc: sp, TpDst: dp}
		m := exactMatch(k)
		return m.Covers(&k)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Fatal(err)
	}
}

func TestMatchString(t *testing.T) {
	m := MatchAll()
	if m.String() != "any" {
		t.Fatalf("wildcard string %q", m.String())
	}
	m.Wildcards &^= WildTpDst
	m.TpDst = 80
	m.SetNwDstPrefix(packet.IP4{10, 0, 0, 0}, 8)
	s := m.String()
	if s != "nw_dst=10.0.0.0/8,tp_dst=80" {
		t.Fatalf("match string %q", s)
	}
}

func BenchmarkFlowModEncodeDecode(b *testing.B) {
	fm := &FlowMod{Match: MatchAll(), Command: FCAdd, Priority: 100,
		BufferID: 0xffffffff, OutPort: PortNone,
		Actions: []Action{&ActionOutput{Port: 1}}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		raw := Encode(fm, uint32(i))
		if _, _, err := Decode(raw); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkMatchCovers(b *testing.B) {
	frame := packet.UDPSpec{
		SrcMAC: macA, DstMAC: macB,
		SrcIP: packet.IP4{10, 1, 2, 3}, DstIP: packet.IP4{10, 9, 8, 7},
		SrcPort: 1234, DstPort: 80, FrameSize: 128,
	}.Build()
	key, _ := KeyFromPacket(frame, 2)
	m := MatchAll()
	m.Wildcards &^= WildDlType | WildNwProto
	m.DlType = packet.EtherTypeIPv4
	m.NwProto = packet.ProtoUDP
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if !m.Covers(&key) {
			b.Fatal("no cover")
		}
	}
}
