package filter

import (
	"strings"
	"testing"
	"testing/quick"

	"osnt/internal/packet"
)

var (
	macA = packet.MAC{0x02, 0, 0, 0, 0, 0x01}
	macB = packet.MAC{0x02, 0, 0, 0, 0, 0x02}
	ip1  = packet.IP4{10, 1, 0, 5}
	ip2  = packet.IP4{10, 2, 0, 9}
)

func udpFrame(sport, dport uint16) []byte {
	return packet.UDPSpec{
		SrcMAC: macA, DstMAC: macB, SrcIP: ip1, DstIP: ip2,
		SrcPort: sport, DstPort: dport, FrameSize: 128,
	}.Build()
}

func tcpFrame(dport uint16) []byte {
	return packet.TCPSpec{
		SrcMAC: macA, DstMAC: macB, SrcIP: ip1, DstIP: ip2,
		SrcPort: 40000, DstPort: dport, Flags: packet.TCPSyn,
	}.Build()
}

func TestEmptyTableDefault(t *testing.T) {
	tb := NewTable(Capture)
	act, idx, snap := tb.Match(udpFrame(1, 2))
	if act != Capture || idx != -1 || snap != 0 {
		t.Fatalf("default path: %v %d %d", act, idx, snap)
	}
	if tb.DefaultHits() != 1 {
		t.Fatalf("default hits = %d", tb.DefaultHits())
	}

	drop := NewTable(Drop)
	if act, _, _ := drop.Match(udpFrame(1, 2)); act != Drop {
		t.Fatal("default drop not honoured")
	}
}

func TestFirstMatchWins(t *testing.T) {
	tb := NewTable(Drop)
	if err := tb.Append(&Rule{Name: "dns", Action: Capture, Proto: packet.ProtoUDP, DstPortMin: 53, DstPortMax: 53}); err != nil {
		t.Fatal(err)
	}
	if err := tb.Append(&Rule{Name: "udp-any", Action: Drop, Proto: packet.ProtoUDP}); err != nil {
		t.Fatal(err)
	}
	act, idx, _ := tb.Match(udpFrame(1234, 53))
	if act != Capture || idx != 0 {
		t.Fatalf("dns packet: %v %d", act, idx)
	}
	act, idx, _ = tb.Match(udpFrame(1234, 80))
	if act != Drop || idx != 1 {
		t.Fatalf("other udp: %v %d", act, idx)
	}
	if tb.Hits(0) != 1 || tb.Hits(1) != 1 || tb.DefaultHits() != 0 {
		t.Fatalf("hits %d %d default %d", tb.Hits(0), tb.Hits(1), tb.DefaultHits())
	}
}

func TestMACMasking(t *testing.T) {
	tb := NewTable(Drop)
	// Match any source MAC in the 02:00:00:00:00:xx range except by last byte.
	r := &Rule{
		Name: "vendor", Action: Capture,
		SrcMAC:     packet.MAC{0x02, 0, 0, 0, 0, 0},
		SrcMACMask: packet.MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0x00},
	}
	if err := tb.Append(r); err != nil {
		t.Fatal(err)
	}
	if act, _, _ := tb.Match(udpFrame(1, 2)); act != Capture {
		t.Fatal("masked MAC should match")
	}
	exact := &Rule{Name: "exact", Action: Capture, SrcMAC: macB,
		SrcMACMask: packet.MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}}
	tb2 := NewTable(Drop)
	_ = tb2.Append(exact)
	if act, _, _ := tb2.Match(udpFrame(1, 2)); act != Drop {
		t.Fatal("exact MAC mismatch should not match")
	}
}

func TestIPPrefix(t *testing.T) {
	tb := NewTable(Drop)
	_ = tb.Append(&Rule{Name: "net10.1", Action: Capture, SrcIP: packet.IP4{10, 1, 0, 0}, SrcPrefixLen: 16})
	if act, _, _ := tb.Match(udpFrame(5, 6)); act != Capture {
		t.Fatal("10.1.0.5 should match 10.1/16")
	}
	tb2 := NewTable(Drop)
	_ = tb2.Append(&Rule{Name: "net10.3", Action: Capture, SrcIP: packet.IP4{10, 3, 0, 0}, SrcPrefixLen: 16})
	if act, _, _ := tb2.Match(udpFrame(5, 6)); act != Drop {
		t.Fatal("10.1.0.5 should not match 10.3/16")
	}
	// /32 exact.
	tb3 := NewTable(Drop)
	_ = tb3.Append(&Rule{Name: "host", Action: Capture, DstIP: ip2, DstPrefixLen: 32})
	if act, _, _ := tb3.Match(udpFrame(5, 6)); act != Capture {
		t.Fatal("/32 dst failed")
	}
}

func TestPortRanges(t *testing.T) {
	tb := NewTable(Drop)
	_ = tb.Append(&Rule{Name: "ephemeral", Action: Capture, SrcPortMin: 1024, SrcPortMax: 65535})
	if act, _, _ := tb.Match(udpFrame(2000, 80)); act != Capture {
		t.Fatal("2000 in [1024,65535]")
	}
	if act, _, _ := tb.Match(udpFrame(80, 80)); act != Drop {
		t.Fatal("80 not in [1024,65535]")
	}
}

func TestProtoAndEtherType(t *testing.T) {
	tb := NewTable(Drop)
	_ = tb.Append(&Rule{Name: "tcp", Action: Capture, Proto: packet.ProtoTCP})
	if act, _, _ := tb.Match(tcpFrame(80)); act != Capture {
		t.Fatal("tcp frame should match proto 6")
	}
	if act, _, _ := tb.Match(udpFrame(1, 2)); act != Drop {
		t.Fatal("udp frame should not match proto 6")
	}

	arp := &packet.ARP{Op: packet.ARPRequest, SenderHW: macA, SenderIP: ip1, TargetIP: ip2}
	eth := &packet.Ethernet{Dst: macB, Src: macA, EtherType: packet.EtherTypeARP}
	b := packet.NewSerializeBuffer(48, 0)
	arpFrame, _ := packet.Serialize(b, packet.SerializeOptions{}, eth, arp)
	tb2 := NewTable(Drop)
	_ = tb2.Append(&Rule{Name: "arp", Action: Capture, EtherType: packet.EtherTypeARP})
	if act, _, _ := tb2.Match(arpFrame); act != Capture {
		t.Fatal("ARP EtherType should match")
	}
	if act, _, _ := tb2.Match(udpFrame(1, 2)); act != Drop {
		t.Fatal("IPv4 frame should not match ARP rule")
	}
}

func TestVLANMatching(t *testing.T) {
	inner := udpFrame(1, 2)
	eth := &packet.Ethernet{Dst: macB, Src: macA, EtherType: packet.EtherTypeVLAN}
	vlan := &packet.VLAN{ID: 100, EtherType: packet.EtherTypeIPv4}
	b := packet.NewSerializeBuffer(18, len(inner))
	tagged, _ := packet.Serialize(b, packet.SerializeOptions{}, eth, vlan,
		packet.Payload(inner[packet.EthernetHeaderLen:]))

	tb := NewTable(Drop)
	_ = tb.Append(&Rule{Name: "vlan100", Action: Capture, VLANID: 100})
	if act, _, _ := tb.Match(tagged); act != Capture {
		t.Fatal("VLAN 100 should match")
	}
	if act, _, _ := tb.Match(inner); act != Drop {
		t.Fatal("untagged should not match VLAN rule")
	}

	tbAny := NewTable(Drop)
	_ = tbAny.Append(&Rule{Name: "anyvlan", Action: Capture, MatchVLAN: true})
	if act, _, _ := tbAny.Match(tagged); act != Capture {
		t.Fatal("MatchVLAN should accept tagged")
	}
	if act, _, _ := tbAny.Match(inner); act != Drop {
		t.Fatal("MatchVLAN should reject untagged")
	}

	// Typed IP fields still work through the tag.
	tbIP := NewTable(Drop)
	_ = tbIP.Append(&Rule{Name: "ip-through-vlan", Action: Capture, DstIP: ip2, DstPrefixLen: 32})
	if act, _, _ := tbIP.Match(tagged); act != Capture {
		t.Fatal("IP match through VLAN failed")
	}
}

func TestRawValueMask(t *testing.T) {
	fr := udpFrame(1, 2)
	tb := NewTable(Drop)
	// Match the first 3 bytes of the destination MAC via raw mask.
	r := &Rule{
		Name: "raw", Action: Capture,
		RawValue: []byte{macB[0], macB[1], macB[2]},
		RawMask:  []byte{0xff, 0xff, 0xff},
	}
	if err := tb.Append(r); err != nil {
		t.Fatal(err)
	}
	if act, _, _ := tb.Match(fr); act != Capture {
		t.Fatal("raw prefix should match")
	}
	// Short frame: raw beyond length never matches.
	if act, _, _ := tb.Match(fr[:2]); act != Drop {
		t.Fatal("short frame matched raw rule")
	}
}

func TestSnapLenOverride(t *testing.T) {
	tb := NewTable(Capture)
	_ = tb.Append(&Rule{Name: "thin-udp", Action: Capture, Proto: packet.ProtoUDP, SnapLen: 64})
	_, _, snap := tb.Match(udpFrame(1, 2))
	if snap != 64 {
		t.Fatalf("snap = %d, want 64", snap)
	}
}

func TestValidate(t *testing.T) {
	bad := []*Rule{
		{RawValue: []byte{1}, RawMask: []byte{}},
		{SrcPrefixLen: 33},
		{DstPrefixLen: -1},
		{SrcPortMin: 10, SrcPortMax: 5},
		{DstPortMin: 10, DstPortMax: 5},
		{SnapLen: -2},
		{PinQueue: -1},
	}
	for i, r := range bad {
		if err := r.Validate(); err == nil {
			t.Errorf("bad rule %d validated", i)
		}
		tb := NewTable(Capture)
		if err := tb.Append(r); err == nil {
			t.Errorf("bad rule %d appended", i)
		}
	}
	good := &Rule{Proto: packet.ProtoUDP, DstPortMin: 53, DstPortMax: 53}
	if err := good.Validate(); err != nil {
		t.Errorf("good rule rejected: %v", err)
	}
	pinned := &Rule{Proto: packet.ProtoUDP, PinQueue: 4}
	if err := pinned.Validate(); err != nil {
		t.Errorf("queue-pinned rule rejected: %v", err)
	}
}

func TestNonIPFieldsRejectIPRules(t *testing.T) {
	// An IP-field rule must not match a non-IP frame.
	arpEth := &packet.Ethernet{Dst: macB, Src: macA, EtherType: packet.EtherTypeARP}
	arp := &packet.ARP{Op: packet.ARPReply, SenderHW: macA, SenderIP: ip1, TargetIP: ip2}
	b := packet.NewSerializeBuffer(48, 0)
	fr, _ := packet.Serialize(b, packet.SerializeOptions{}, arpEth, arp)
	tb := NewTable(Drop)
	_ = tb.Append(&Rule{Name: "ip", Action: Capture, SrcIP: ip1, SrcPrefixLen: 8})
	if act, _, _ := tb.Match(fr); act != Drop {
		t.Fatal("ARP matched an IP-prefix rule")
	}
}

func TestRuleString(t *testing.T) {
	r := &Rule{Name: "x", Proto: 17, DstPortMin: 53, DstPortMax: 53}
	s := r.String()
	if !strings.Contains(s, "proto=17") || !strings.Contains(s, "dport=53-53") {
		t.Fatalf("String = %q", s)
	}
	if !strings.Contains((&Rule{Name: "all"}).String(), "any") {
		t.Fatal("wildcard rule should describe as any")
	}
	if Drop.String() != "drop" || Capture.String() != "capture" {
		t.Fatal("action strings")
	}
}

// Property: a rule built from a packet's own 5-tuple always matches that
// packet, and the all-wildcard rule matches everything.
func TestPropertySelfMatch(t *testing.T) {
	f := func(sp, dp uint16, a, b, c, d byte) bool {
		src := packet.IP4{10, a, b, 1}
		dst := packet.IP4{10, c, d, 2}
		fr := packet.UDPSpec{
			SrcMAC: macA, DstMAC: macB, SrcIP: src, DstIP: dst,
			SrcPort: sp, DstPort: dp, FrameSize: 96,
		}.Build()
		tb := NewTable(Drop)
		err := tb.Append(&Rule{
			Action: Capture, Proto: packet.ProtoUDP,
			SrcIP: src, SrcPrefixLen: 32, DstIP: dst, DstPrefixLen: 32,
			SrcPortMin: sp, SrcPortMax: sp, DstPortMin: dp, DstPortMax: dp,
		})
		if sp == 0 || dp == 0 {
			// Port 0 can't be expressed as an exact range (0 = wildcard);
			// skip those inputs.
			return true
		}
		if err != nil {
			return false
		}
		act, idx, _ := tb.Match(fr)
		if act != Capture || idx != 0 {
			return false
		}
		wild := NewTable(Drop)
		_ = wild.Append(&Rule{Action: Capture})
		wact, _, _ := wild.Match(fr)
		return wact == Capture
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkMatch16Rules(b *testing.B) {
	tb := NewTable(Capture)
	for i := 0; i < 16; i++ {
		_ = tb.Append(&Rule{
			Action: Drop, Proto: packet.ProtoTCP,
			DstPortMin: uint16(i*100 + 1), DstPortMax: uint16(i*100 + 50),
		})
	}
	fr := udpFrame(1234, 9999)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tb.Match(fr)
	}
}
