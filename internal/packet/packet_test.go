package packet

import (
	"bytes"
	"testing"
	"testing/quick"
)

var (
	mac1 = MAC{0x00, 0x11, 0x22, 0x33, 0x44, 0x55}
	mac2 = MAC{0x66, 0x77, 0x88, 0x99, 0xaa, 0xbb}
	ipA  = IP4{10, 0, 0, 1}
	ipB  = IP4{192, 168, 1, 200}
)

func TestSerializeBufferPrependAppend(t *testing.T) {
	b := NewSerializeBuffer(4, 4)
	copy(b.PrependBytes(3), []byte{1, 2, 3})
	copy(b.PrependBytes(1), []byte{0})
	want := []byte{0, 1, 2, 3}
	if !bytes.Equal(b.Bytes(), want) {
		t.Fatalf("Bytes = %v, want %v", b.Bytes(), want)
	}
	b.Clear()
	if b.Len() != 0 {
		t.Fatalf("Len after Clear = %d", b.Len())
	}
	copy(b.PrependBytes(2), []byte{9, 9})
	if !bytes.Equal(b.Bytes(), []byte{9, 9}) {
		t.Fatalf("after Clear+Prepend: %v", b.Bytes())
	}
}

func TestSerializeBufferGrowsFront(t *testing.T) {
	b := NewSerializeBuffer(0, 0)
	copy(b.PrependBytes(100), make([]byte, 100))
	if b.Len() != 100 {
		t.Fatalf("Len = %d", b.Len())
	}
	b.Clear()
	// Second round with the same shape must work and keep content correct.
	p := b.PrependBytes(100)
	for i := range p {
		p[i] = byte(i)
	}
	if b.Bytes()[99] != 99 {
		t.Fatal("content corrupted after regrow")
	}
}

func TestSerializeBufferSteadyStateNoAlloc(t *testing.T) {
	b := NewSerializeBuffer(64, 128)
	round := func() {
		b.Clear()
		copy(b.PrependBytes(40), make([]byte, 40))
		copy(b.PrependBytes(20), make([]byte, 20))
	}
	round()
	allocs := testing.AllocsPerRun(100, round)
	if allocs != 0 {
		t.Fatalf("steady-state serialize allocates %v/op", allocs)
	}
}

func TestEthernetRoundTrip(t *testing.T) {
	e := &Ethernet{Dst: mac2, Src: mac1, EtherType: EtherTypeIPv4}
	b := NewSerializeBuffer(14, 0)
	out, err := Serialize(b, SerializeOptions{}, e, Payload([]byte{0xde, 0xad}))
	if err != nil {
		t.Fatal(err)
	}
	var d Ethernet
	if err := d.DecodeFromBytes(out); err != nil {
		t.Fatal(err)
	}
	if d.Dst != mac2 || d.Src != mac1 || d.EtherType != EtherTypeIPv4 {
		t.Fatalf("decoded %+v", d)
	}
	if !bytes.Equal(d.Payload(), []byte{0xde, 0xad}) {
		t.Fatalf("payload %v", d.Payload())
	}
}

func TestEthernetTooShort(t *testing.T) {
	var d Ethernet
	if err := d.DecodeFromBytes(make([]byte, 13)); err != ErrTooShort {
		t.Fatalf("err = %v, want ErrTooShort", err)
	}
}

func TestMACHelpers(t *testing.T) {
	if mac1.String() != "00:11:22:33:44:55" {
		t.Fatalf("String = %q", mac1.String())
	}
	bcast := MAC{0xff, 0xff, 0xff, 0xff, 0xff, 0xff}
	if !bcast.IsMulticast() {
		t.Fatal("broadcast misclassified")
	}
	if mac1.IsMulticast() {
		t.Fatal("unicast misclassified")
	}
	mcast := MAC{0x01, 0, 0x5e, 0, 0, 1}
	if !mcast.IsMulticast() {
		t.Fatal("multicast misclassified")
	}
}

func TestVLANRoundTrip(t *testing.T) {
	v := &VLAN{Priority: 5, DropOK: true, ID: 0x123, EtherType: EtherTypeIPv4}
	b := NewSerializeBuffer(4, 0)
	out, err := Serialize(b, SerializeOptions{}, v, Payload([]byte{1}))
	if err != nil {
		t.Fatal(err)
	}
	var d VLAN
	if err := d.DecodeFromBytes(out); err != nil {
		t.Fatal(err)
	}
	if d.Priority != 5 || !d.DropOK || d.ID != 0x123 || d.EtherType != EtherTypeIPv4 {
		t.Fatalf("decoded %+v", d)
	}
}

func TestARPRoundTrip(t *testing.T) {
	a := &ARP{Op: ARPRequest, SenderHW: mac1, SenderIP: ipA, TargetIP: ipB}
	b := NewSerializeBuffer(28, 0)
	out, err := Serialize(b, SerializeOptions{}, a)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != ARPLen {
		t.Fatalf("len = %d", len(out))
	}
	var d ARP
	if err := d.DecodeFromBytes(out); err != nil {
		t.Fatal(err)
	}
	if d.Op != ARPRequest || d.SenderHW != mac1 || d.SenderIP != ipA || d.TargetIP != ipB {
		t.Fatalf("decoded %+v", d)
	}
}

func TestIPv4RoundTripAndChecksum(t *testing.T) {
	ip := &IPv4{TOS: 0x10, ID: 0xbeef, Flags: IPv4DontFragment, TTL: 63, Proto: ProtoUDP, Src: ipA, Dst: ipB}
	b := NewSerializeBuffer(34, 0)
	payload := Payload(bytes.Repeat([]byte{0xab}, 30))
	out, err := Serialize(b, SerializeOptions{FixLengths: true, ComputeChecksums: true}, ip, payload)
	if err != nil {
		t.Fatal(err)
	}
	var d IPv4
	if err := d.DecodeFromBytes(out); err != nil {
		t.Fatal(err)
	}
	if d.TotalLen != 50 {
		t.Fatalf("TotalLen = %d, want 50", d.TotalLen)
	}
	if d.TOS != 0x10 || d.ID != 0xbeef || d.Flags != IPv4DontFragment || d.TTL != 63 ||
		d.Proto != ProtoUDP || d.Src != ipA || d.Dst != ipB {
		t.Fatalf("decoded %+v", d)
	}
	if !d.VerifyChecksum(out) {
		t.Fatal("checksum does not verify")
	}
	out[8] = 10 // corrupt TTL
	if d.VerifyChecksum(out) {
		t.Fatal("corrupted header passed checksum")
	}
}

func TestIPv4Options(t *testing.T) {
	ip := &IPv4{TTL: 1, Proto: ProtoTCP, Src: ipA, Dst: ipB, Options: []byte{0x94, 0x04, 0, 0}} // router alert
	b := NewSerializeBuffer(64, 0)
	out, err := Serialize(b, SerializeOptions{FixLengths: true, ComputeChecksums: true}, ip)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 24 {
		t.Fatalf("header with options len = %d, want 24", len(out))
	}
	var d IPv4
	if err := d.DecodeFromBytes(out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(d.Options, []byte{0x94, 0x04, 0, 0}) {
		t.Fatalf("options %v", d.Options)
	}
	if !d.VerifyChecksum(out) {
		t.Fatal("options checksum")
	}
}

func TestIPv4PayloadTrimsPadding(t *testing.T) {
	// 20B header + 6B payload inside a 60B buffer (Ethernet padding).
	ip := &IPv4{TTL: 64, Proto: ProtoUDP, Src: ipA, Dst: ipB}
	b := NewSerializeBuffer(20, 40)
	out, _ := Serialize(b, SerializeOptions{FixLengths: true, ComputeChecksums: true},
		ip, Payload([]byte{1, 2, 3, 4, 5, 6}))
	padded := append(append([]byte{}, out...), make([]byte, 34)...)
	var d IPv4
	if err := d.DecodeFromBytes(padded); err != nil {
		t.Fatal(err)
	}
	if len(d.Payload()) != 6 {
		t.Fatalf("payload len = %d, want 6 (padding must be trimmed)", len(d.Payload()))
	}
}

func TestIPv4Malformed(t *testing.T) {
	var d IPv4
	if err := d.DecodeFromBytes(make([]byte, 10)); err != ErrTooShort {
		t.Fatalf("short: %v", err)
	}
	bad := make([]byte, 20)
	bad[0] = 0x65 // version 6
	if err := d.DecodeFromBytes(bad); err != ErrVersion {
		t.Fatalf("version: %v", err)
	}
	bad[0] = 0x43 // IHL 3 (<5)
	if err := d.DecodeFromBytes(bad); err != ErrTooShort {
		t.Fatalf("ihl: %v", err)
	}
}

// IPv6 is read only by flow extraction: a hand-built Ethernet/IPv6/UDP
// frame must come back as its v6 5-tuple.
func TestIPv6RoundTrip(t *testing.T) {
	src := IP6{0x20, 0x01, 0x0d, 0xb8}
	dst := IP6{0xfe, 0x80, 15: 0x01}
	l3 := make([]byte, IPv6HeaderLen+UDPHeaderLen)
	l3[0] = 6 << 4
	l3[6], l3[7] = ProtoUDP, 64 // next header, hop limit
	copy(l3[8:24], src[:])
	copy(l3[24:40], dst[:])
	putU16(l3[40:42], 1111)
	putU16(l3[42:44], 2222)
	eth := &Ethernet{Dst: mac2, Src: mac1, EtherType: EtherTypeIPv6}
	out, err := Serialize(NewSerializeBuffer(EthernetHeaderLen, 0), SerializeOptions{}, eth, Payload(l3))
	if err != nil {
		t.Fatal(err)
	}
	f, ok := ExtractFlow(out)
	if !ok || !f.V6 || f.Src != src || f.Dst != dst || f.Proto != ProtoUDP ||
		f.SrcPort != 1111 || f.DstPort != 2222 {
		t.Fatalf("flow %+v (ok=%v)", f, ok)
	}
}

func TestUDPRoundTripChecksum(t *testing.T) {
	u := &UDP{SrcPort: 1234, DstPort: 80}
	u.SetNetworkForChecksum(ipA, ipB)
	b := NewSerializeBuffer(8, 16)
	out, err := Serialize(b, SerializeOptions{FixLengths: true, ComputeChecksums: true},
		u, Payload([]byte("hello world")))
	if err != nil {
		t.Fatal(err)
	}
	var d UDP
	if err := d.DecodeFromBytes(out); err != nil {
		t.Fatal(err)
	}
	if d.SrcPort != 1234 || d.DstPort != 80 || d.Length != 19 {
		t.Fatalf("decoded %+v", d)
	}
	if string(d.Payload()) != "hello world" {
		t.Fatalf("payload %q", d.Payload())
	}
	if !d.VerifyChecksum(out, ipA, ipB) {
		t.Fatal("checksum does not verify")
	}
	out[9]++ // corrupt payload
	if d.VerifyChecksum(out, ipA, ipB) {
		t.Fatal("corrupted segment passed checksum")
	}
}

func TestTCPRoundTripChecksum(t *testing.T) {
	tc := &TCP{
		SrcPort: 443, DstPort: 55555, Seq: 0x01020304, Ack: 0x05060708,
		Flags: TCPSyn | TCPAck, Window: 65535,
		Options: []byte{2, 4, 5, 0xb4}, // MSS
	}
	tc.SetNetworkForChecksum(ipA, ipB)
	b := NewSerializeBuffer(64, 16)
	out, err := Serialize(b, SerializeOptions{FixLengths: true, ComputeChecksums: true},
		tc, Payload([]byte("GET /")))
	if err != nil {
		t.Fatal(err)
	}
	var d TCP
	if err := d.DecodeFromBytes(out); err != nil {
		t.Fatal(err)
	}
	if d.SrcPort != 443 || d.Seq != 0x01020304 || d.Flags != TCPSyn|TCPAck || d.Window != 65535 {
		t.Fatalf("decoded %+v", d)
	}
	if !bytes.Equal(d.Options, []byte{2, 4, 5, 0xb4}) {
		t.Fatalf("options %v", d.Options)
	}
	if string(d.Payload()) != "GET /" {
		t.Fatalf("payload %q", d.Payload())
	}
	if !d.VerifyChecksum(out, ipA, ipB) {
		t.Fatal("checksum does not verify")
	}
}

func TestChecksumKnownVector(t *testing.T) {
	// RFC 1071 example data.
	data := []byte{0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7}
	if got := Checksum(data, 0); got != ^uint16(0xddf2) {
		t.Fatalf("Checksum = %#x, want %#x", got, ^uint16(0xddf2))
	}
}

// Property: the checksum of any buffer with its own checksum appended
// verifies to zero.
func TestPropertyChecksumSelfVerifies(t *testing.T) {
	f := func(data []byte) bool {
		if len(data)%2 == 1 {
			data = append(data, 0)
		}
		c := Checksum(data, 0)
		whole := append(append([]byte{}, data...), byte(c>>8), byte(c))
		return Checksum(whole, 0) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestUDPSpecBuild(t *testing.T) {
	p := UDPSpec{
		SrcMAC: mac1, DstMAC: mac2, SrcIP: ipA, DstIP: ipB,
		SrcPort: 5000, DstPort: 6000, FrameSize: 128,
	}.Build()
	if len(p) != 124 { // 128 minus FCS
		t.Fatalf("len = %d, want 124", len(p))
	}
	var eth Ethernet
	if err := eth.DecodeFromBytes(p); err != nil {
		t.Fatal(err)
	}
	var ip IPv4
	if err := ip.DecodeFromBytes(eth.Payload()); err != nil {
		t.Fatal(err)
	}
	if !ip.VerifyChecksum(eth.Payload()) {
		t.Fatal("crafted IP checksum invalid")
	}
	var udp UDP
	if err := udp.DecodeFromBytes(ip.Payload()); err != nil {
		t.Fatal(err)
	}
	if !udp.VerifyChecksum(ip.Payload(), ip.Src, ip.Dst) {
		t.Fatal("crafted UDP checksum invalid")
	}
	if udp.SrcPort != 5000 || udp.DstPort != 6000 {
		t.Fatalf("ports %d %d", udp.SrcPort, udp.DstPort)
	}
}

func TestTCPSpecBuild(t *testing.T) {
	p := TCPSpec{
		SrcMAC: mac1, DstMAC: mac2, SrcIP: ipA, DstIP: ipB,
		SrcPort: 80, DstPort: 2000, Flags: TCPSyn, Payload: []byte("x"),
	}.Build()
	var eth Ethernet
	var ip IPv4
	var tcp TCP
	if err := eth.DecodeFromBytes(p); err != nil {
		t.Fatal(err)
	}
	if err := ip.DecodeFromBytes(eth.Payload()); err != nil {
		t.Fatal(err)
	}
	if err := tcp.DecodeFromBytes(ip.Payload()); err != nil {
		t.Fatal(err)
	}
	if !tcp.VerifyChecksum(ip.Payload(), ip.Src, ip.Dst) {
		t.Fatal("crafted TCP checksum invalid")
	}
}

func TestExtractFlow(t *testing.T) {
	p := UDPSpec{
		SrcMAC: mac1, DstMAC: mac2, SrcIP: ipA, DstIP: ipB,
		SrcPort: 1111, DstPort: 2222, FrameSize: 64,
	}.Build()
	f, ok := ExtractFlow(p)
	if !ok {
		t.Fatal("ExtractFlow failed")
	}
	if f.SrcIP4() != ipA || f.DstIP4() != ipB || f.Proto != ProtoUDP ||
		f.SrcPort != 1111 || f.DstPort != 2222 || f.V6 {
		t.Fatalf("flow %+v", f)
	}
}

func TestExtractFlowVLAN(t *testing.T) {
	inner := UDPSpec{
		SrcMAC: mac1, DstMAC: mac2, SrcIP: ipA, DstIP: ipB,
		SrcPort: 7, DstPort: 9, FrameSize: 64,
	}.Build()
	// Rebuild with a VLAN tag inserted.
	eth := &Ethernet{Dst: mac2, Src: mac1, EtherType: EtherTypeVLAN}
	vlan := &VLAN{ID: 42, EtherType: EtherTypeIPv4}
	b := NewSerializeBuffer(18, len(inner))
	out, err := Serialize(b, SerializeOptions{}, eth, vlan, Payload(inner[EthernetHeaderLen:]))
	if err != nil {
		t.Fatal(err)
	}
	f, ok := ExtractFlow(out)
	if !ok || f.SrcPort != 7 || f.DstPort != 9 {
		t.Fatalf("VLAN flow %+v ok=%v", f, ok)
	}
}

func TestExtractFlowNonIP(t *testing.T) {
	arp := &ARP{Op: ARPRequest, SenderHW: mac1, SenderIP: ipA, TargetIP: ipB}
	eth := &Ethernet{Dst: mac2, Src: mac1, EtherType: EtherTypeARP}
	b := NewSerializeBuffer(42, 0)
	out, _ := Serialize(b, SerializeOptions{}, eth, arp)
	if _, ok := ExtractFlow(out); ok {
		t.Fatal("ARP should have no flow")
	}
}

func TestExtractFlowFragment(t *testing.T) {
	p := UDPSpec{SrcMAC: mac1, DstMAC: mac2, SrcIP: ipA, DstIP: ipB, SrcPort: 1, DstPort: 2, FrameSize: 64}.Build()
	// Set a nonzero fragment offset; ports must be zeroed.
	ff := beU16(p[EthernetHeaderLen+6 : EthernetHeaderLen+8])
	putU16(p[EthernetHeaderLen+6:EthernetHeaderLen+8], ff|100)
	f, ok := ExtractFlow(p)
	if !ok {
		t.Fatal("fragment should still have a network flow")
	}
	if f.SrcPort != 0 || f.DstPort != 0 {
		t.Fatalf("fragment ports %d %d, want 0 0", f.SrcPort, f.DstPort)
	}
}

func TestExtractFlowAllocFree(t *testing.T) {
	p := UDPSpec{SrcMAC: mac1, DstMAC: mac2, SrcIP: ipA, DstIP: ipB, SrcPort: 1, DstPort: 2, FrameSize: 256}.Build()
	allocs := testing.AllocsPerRun(100, func() {
		if _, ok := ExtractFlow(p); !ok {
			t.Fatal("extract failed")
		}
	})
	if allocs != 0 {
		t.Fatalf("ExtractFlow allocates %v/op", allocs)
	}
}

func TestPacketDigest(t *testing.T) {
	p1 := UDPSpec{SrcMAC: mac1, DstMAC: mac2, SrcIP: ipA, DstIP: ipB, SrcPort: 1, DstPort: 2, FrameSize: 256}.Build()
	p2 := append([]byte{}, p1...)
	if PacketDigest(p1, 64) != PacketDigest(p2, 64) {
		t.Fatal("identical packets digest differently")
	}
	p2[100] = ^p2[100]
	if PacketDigest(p1, 64) != PacketDigest(p2, 64) {
		t.Fatal("digest over first 64B must ignore byte 100")
	}
	if PacketDigest(p1, 0) == PacketDigest(p1, 64) && len(p1) != 64 {
		t.Fatal("full digest should differ from 64B digest")
	}
	if PacketDigest(p1, 9999) != PacketDigest(p1, len(p1)) {
		t.Fatal("overlong n must clamp to packet length")
	}
}

func TestIPHelpers(t *testing.T) {
	if ipA.String() != "10.0.0.1" {
		t.Fatalf("IP4 String = %q", ipA.String())
	}
	if IP4FromUint32(ipB.Uint32()) != ipB {
		t.Fatal("IP4 uint32 round trip")
	}
	var v6 IP6
	v6[0], v6[15] = 0x20, 0x01
	if v6.String() != "2000:0:0:0:0:0:0:1" {
		t.Fatalf("IP6 String = %q", v6.String())
	}
}

func TestFlowString(t *testing.T) {
	p := UDPSpec{SrcMAC: mac1, DstMAC: mac2, SrcIP: ipA, DstIP: ipB, SrcPort: 5, DstPort: 6, FrameSize: 64}.Build()
	f, _ := ExtractFlow(p)
	if got := f.String(); got != "10.0.0.1:5 > 192.168.1.200:6/17" {
		t.Fatalf("String = %q", got)
	}
}

func BenchmarkUDPSerialize(b *testing.B) {
	udp := &UDP{SrcPort: 1, DstPort: 2}
	udp.SetNetworkForChecksum(ipA, ipB)
	ip := &IPv4{TTL: 64, Proto: ProtoUDP, Src: ipA, Dst: ipB}
	eth := &Ethernet{Dst: mac2, Src: mac1, EtherType: EtherTypeIPv4}
	payload := Payload(make([]byte, 64))
	buf := NewSerializeBuffer(42, 64)
	opts := SerializeOptions{FixLengths: true, ComputeChecksums: true}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Serialize(buf, opts, eth, ip, udp, payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeStack(b *testing.B) {
	p := UDPSpec{SrcMAC: mac1, DstMAC: mac2, SrcIP: ipA, DstIP: ipB, SrcPort: 1, DstPort: 2, FrameSize: 512}.Build()
	var eth Ethernet
	var ip IPv4
	var udp UDP
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := eth.DecodeFromBytes(p); err != nil {
			b.Fatal(err)
		}
		if err := ip.DecodeFromBytes(eth.Payload()); err != nil {
			b.Fatal(err)
		}
		if err := udp.DecodeFromBytes(ip.Payload()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExtractFlow(b *testing.B) {
	p := UDPSpec{SrcMAC: mac1, DstMAC: mac2, SrcIP: ipA, DstIP: ipB, SrcPort: 1, DstPort: 2, FrameSize: 512}.Build()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, ok := ExtractFlow(p); !ok {
			b.Fatal("extract failed")
		}
	}
}
