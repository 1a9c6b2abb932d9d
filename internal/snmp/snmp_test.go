package snmp

import (
	"net"
	"testing"
	"testing/quick"
	"time"
)

func TestOIDParseString(t *testing.T) {
	o := MustOID("1.3.6.1.2.1.2.2.1.10.1")
	if o.String() != "1.3.6.1.2.1.2.2.1.10.1" {
		t.Fatalf("round trip %q", o.String())
	}
	if _, err := ParseOID("1"); err == nil {
		t.Fatal("one-arc OID accepted")
	}
	if _, err := ParseOID("1.x.3"); err == nil {
		t.Fatal("junk arc accepted")
	}
}

func TestOIDCmpAppend(t *testing.T) {
	a := MustOID("1.3.6.1")
	b := MustOID("1.3.6.1.2")
	c := MustOID("1.3.7")
	if a.Cmp(b) != -1 || b.Cmp(a) != 1 || a.Cmp(a) != 0 || b.Cmp(c) != -1 {
		t.Fatal("Cmp ordering")
	}
	d := a.Append(9)
	if d.String() != "1.3.6.1.9" || a.String() != "1.3.6.1" {
		t.Fatal("Append aliasing")
	}
}

func TestMessageRoundTrip(t *testing.T) {
	m := Message{
		Version:   Version2c,
		Community: "public",
		PDU: PDU{
			Type: GetRequest, RequestID: 0x1234567,
			VarBinds: []VarBind{
				{OID: MustOID("1.3.6.1.2.1.1.3.0"), Value: Null},
				{OID: MustOID("1.3.6.1.2.1.2.2.1.10.2"), Value: Null},
			},
		},
	}
	got, err := Decode(Encode(m))
	if err != nil {
		t.Fatal(err)
	}
	if got.Community != "public" || got.PDU.RequestID != 0x1234567 || got.PDU.Type != GetRequest {
		t.Fatalf("%+v", got)
	}
	if len(got.PDU.VarBinds) != 2 || got.PDU.VarBinds[1].OID.String() != "1.3.6.1.2.1.2.2.1.10.2" {
		t.Fatalf("varbinds %+v", got.PDU.VarBinds)
	}
}

func TestValueEncodings(t *testing.T) {
	m := Message{Version: Version2c, Community: "c", PDU: PDU{
		Type: GetResponse, RequestID: 1,
		VarBinds: []VarBind{
			{OID: MustOID("1.3.1"), Value: Value{Kind: tagInteger, Int: -300}},
			{OID: MustOID("1.3.2"), Value: Value{Kind: tagCounter32, Int: 4000000000}},
			{OID: MustOID("1.3.3"), Value: Counter64(1 << 40)},
			{OID: MustOID("1.3.4"), Value: TimeTicks(8640000)},
			{OID: MustOID("1.3.5"), Value: Value{Kind: tagOctetString, Bytes: []byte("osnt")}},
		},
	}}
	got, err := Decode(Encode(m))
	if err != nil {
		t.Fatal(err)
	}
	vb := got.PDU.VarBinds
	if vb[0].Value.Int != -300 {
		t.Fatalf("int %d", vb[0].Value.Int)
	}
	if vb[1].Value.Int != 4000000000 {
		t.Fatalf("counter32 %d", vb[1].Value.Int)
	}
	if vb[2].Value.Int != 1<<40 {
		t.Fatalf("counter64 %d", vb[2].Value.Int)
	}
	if vb[3].Value.Int != 8640000 {
		t.Fatalf("ticks %d", vb[3].Value.Int)
	}
	if string(vb[4].Value.Bytes) != "osnt" {
		t.Fatalf("string %q", vb[4].Value.Bytes)
	}
}

// Property: arbitrary request IDs, communities and counter values round
// trip.
func TestPropertyRoundTrip(t *testing.T) {
	f := func(reqID int32, comm string, v uint64, arc uint16) bool {
		if len(comm) > 100 {
			comm = comm[:100]
		}
		m := Message{Version: Version2c, Community: comm, PDU: PDU{
			Type: GetResponse, RequestID: reqID,
			VarBinds: []VarBind{
				{OID: OID{1, 3, 6, 1, uint32(arc)}, Value: Counter64(v)},
			},
		}}
		got, err := Decode(Encode(m))
		if err != nil {
			return false
		}
		return got.Community == comm && got.PDU.RequestID == reqID &&
			got.PDU.VarBinds[0].Value.Int == int64(v) &&
			got.PDU.VarBinds[0].OID.Cmp(m.PDU.VarBinds[0].OID) == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeGarbage(t *testing.T) {
	for _, junk := range [][]byte{nil, {0x30}, {0x30, 0x05, 1, 2}, {0x04, 0x02, 1, 2}} {
		if _, err := Decode(junk); err == nil {
			t.Fatalf("accepted %x", junk)
		}
	}
}

func newTestAgent() *Agent {
	a := NewAgent("public")
	in := uint64(1000)
	a.Register(OIDSysUpTime, func() Value { return TimeTicks(42) })
	a.Register(OIDIfInOctets.Append(1), func() Value { return Counter64(in) })
	a.Register(OIDIfOutOctets.Append(1), func() Value { return Counter64(2000) })
	return a
}

func TestAgentGet(t *testing.T) {
	a := newTestAgent()
	req := Encode(Message{Version: Version2c, Community: "public", PDU: PDU{
		Type: GetRequest, RequestID: 5,
		VarBinds: []VarBind{{OID: OIDIfInOctets.Append(1), Value: Null}},
	}})
	resp, err := Decode(a.Handle(req))
	if err != nil {
		t.Fatal(err)
	}
	if resp.PDU.Type != GetResponse || resp.PDU.RequestID != 5 {
		t.Fatalf("%+v", resp.PDU)
	}
	if resp.PDU.VarBinds[0].Value.Int != 1000 {
		t.Fatalf("value %d", resp.PDU.VarBinds[0].Value.Int)
	}
}

func TestAgentGetMissing(t *testing.T) {
	a := newTestAgent()
	req := Encode(Message{Version: Version2c, Community: "public", PDU: PDU{
		Type: GetRequest, RequestID: 6,
		VarBinds: []VarBind{{OID: MustOID("1.3.9.9.9"), Value: Null}},
	}})
	resp, _ := Decode(a.Handle(req))
	if resp.PDU.VarBinds[0].Value.Kind != NoSuchObject.Kind {
		t.Fatal("missing OID should return noSuchObject")
	}
}

func TestAgentGetNextWalk(t *testing.T) {
	a := newTestAgent()
	// Walk from the root.
	cur := MustOID("1.3")
	var seen []string
	for i := 0; i < 10; i++ {
		req := Encode(Message{Version: Version2c, Community: "public", PDU: PDU{
			Type: GetNext, RequestID: int32(i),
			VarBinds: []VarBind{{OID: cur, Value: Null}},
		}})
		resp, err := Decode(a.Handle(req))
		if err != nil {
			t.Fatal(err)
		}
		vb := resp.PDU.VarBinds[0]
		if vb.Value.Kind == NoSuchObject.Kind {
			break
		}
		seen = append(seen, vb.OID.String())
		cur = vb.OID
	}
	// MIB order: sysUpTime (1.3.6.1.2.1.1...) before ifInOctets (...2.2.1.10)
	// before ifOutOctets (...2.2.1.16).
	if len(seen) != 3 {
		t.Fatalf("walk %v", seen)
	}
	if seen[0] != OIDSysUpTime.String() || seen[2] != OIDIfOutOctets.Append(1).String() {
		t.Fatalf("walk order %v", seen)
	}
}

func TestAgentCommunityMismatch(t *testing.T) {
	a := newTestAgent()
	req := Encode(Message{Version: Version2c, Community: "wrong", PDU: PDU{
		Type: GetRequest, RequestID: 1,
		VarBinds: []VarBind{{OID: OIDSysUpTime, Value: Null}},
	}})
	if a.Handle(req) != nil {
		t.Fatal("wrong community answered")
	}
}

func TestAgentOverUDP(t *testing.T) {
	// The BER bytes must survive a real UDP datagram.
	a := newTestAgent()
	srv, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Skip("no loopback networking:", err)
	}
	defer srv.Close()
	go func() {
		buf := make([]byte, 2048)
		n, addr, err := srv.ReadFrom(buf)
		if err != nil {
			return
		}
		if resp := a.Handle(buf[:n]); resp != nil {
			_, _ = srv.WriteTo(resp, addr)
		}
	}()

	cli, err := net.Dial("udp", srv.LocalAddr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	req := Encode(Message{Version: Version2c, Community: "public", PDU: PDU{
		Type: GetRequest, RequestID: 77,
		VarBinds: []VarBind{{OID: OIDSysUpTime, Value: Null}},
	}})
	if _, err := cli.Write(req); err != nil {
		t.Fatal(err)
	}
	_ = cli.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 2048)
	n, err := cli.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := Decode(buf[:n])
	if err != nil {
		t.Fatal(err)
	}
	if resp.PDU.RequestID != 77 || resp.PDU.VarBinds[0].Value.Int != 42 {
		t.Fatalf("%+v", resp.PDU)
	}
}

func BenchmarkEncodeDecode(b *testing.B) {
	m := Message{Version: Version2c, Community: "public", PDU: PDU{
		Type: GetRequest, RequestID: 1,
		VarBinds: []VarBind{{OID: OIDIfInOctets.Append(1), Value: Null}},
	}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(Encode(m)); err != nil {
			b.Fatal(err)
		}
	}
}
