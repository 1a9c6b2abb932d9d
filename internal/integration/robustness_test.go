package integration_test

import (
	"bytes"
	"testing"
	"testing/quick"

	"osnt/internal/filter"
	"osnt/internal/openflow"
	"osnt/internal/packet"
	"osnt/internal/pcap"
	"osnt/internal/sim"
	"osnt/internal/snmp"
)

// Every wire-facing decoder in the repository must tolerate arbitrary
// bytes: captures come off a (simulated) network, OpenFlow and SNMP
// messages from untrusted peers. "Tolerate" means return an error or a
// best-effort parse — never panic, never read out of bounds.

func mutated(seed uint64, n int) []byte {
	r := sim.NewRand(seed)
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(r.Uint64())
	}
	return b
}

func TestPropertyPacketDecodersNeverPanic(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		data := mutated(seed, int(n%2048))
		var eth packet.Ethernet
		if err := eth.DecodeFromBytes(data); err == nil && eth.EtherType == packet.EtherTypeIPv4 {
			var ip4 packet.IPv4
			if ip4.DecodeFromBytes(eth.Payload()) == nil {
				var udp packet.UDP
				var tcp packet.TCP
				_ = udp.DecodeFromBytes(ip4.Payload())
				_ = tcp.DecodeFromBytes(ip4.Payload())
			}
		}
		var vlan packet.VLAN
		_ = vlan.DecodeFromBytes(data)
		var arp packet.ARP
		_ = arp.DecodeFromBytes(data)
		_, _ = packet.ExtractFlow(data)
		_, _ = openflow.KeyFromPacket(data, 1)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyOpenFlowDecodeNeverPanics(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		data := mutated(seed, int(n%512))
		_, _, _ = openflow.Decode(data)
		// A structurally plausible header with garbage body.
		if len(data) >= openflow.HeaderLen {
			data[0] = openflow.Version
			data[1] = byte(seed % 22)
			data[2] = byte(len(data) >> 8)
			data[3] = byte(len(data))
			_, _, _ = openflow.Decode(data)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertySNMPDecodeNeverPanics(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		data := mutated(seed, int(n%512))
		_, _ = snmp.Decode(data)
		// Agent must also survive garbage requests.
		agent := snmp.NewAgent("")
		agent.Register(snmp.OIDSysUpTime, func() snmp.Value { return snmp.TimeTicks(1) })
		_ = agent.Handle(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyPcapReaderNeverPanics(t *testing.T) {
	f := func(seed uint64, n uint16) bool {
		data := mutated(seed, int(n%1024))
		_, _ = pcap.ReadAll(bytes.NewReader(data))
		// Valid global header, garbage records.
		var buf bytes.Buffer
		w, err := pcap.NewWriter(&buf, 0, true)
		if err != nil {
			return false
		}
		_ = w.Write(pcap.Record{Data: []byte{1}, OrigLen: 1})
		full := append(buf.Bytes(), data...)
		_, _ = pcap.ReadAll(bytes.NewReader(full))
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyFilterNeverPanics(t *testing.T) {
	tbl := filter.NewTable(filter.Capture)
	_ = tbl.Append(&filter.Rule{
		Action: filter.Drop, Proto: packet.ProtoUDP,
		SrcIP: packet.IP4{10, 0, 0, 0}, SrcPrefixLen: 8,
		DstPortMin: 1, DstPortMax: 1024,
		RawValue: []byte{0x02}, RawMask: []byte{0xff},
	})
	f := func(seed uint64, n uint16) bool {
		data := mutated(seed, int(n%256))
		_, _, _ = tbl.Match(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyMutatedValidFrames flips bytes in otherwise valid frames —
// the nastier corpus, since length fields and version nibbles stay
// plausible.
func TestPropertyMutatedValidFrames(t *testing.T) {
	base := packet.UDPSpec{
		SrcMAC: packet.MAC{2, 0, 0, 0, 0, 1}, DstMAC: packet.MAC{2, 0, 0, 0, 0, 2},
		SrcIP: packet.IP4{10, 0, 0, 1}, DstIP: packet.IP4{10, 0, 0, 2},
		SrcPort: 5000, DstPort: 7000, FrameSize: 256,
	}.Build()
	f := func(seed uint64, flips uint8, cut uint16) bool {
		r := sim.NewRand(seed)
		data := make([]byte, len(base))
		copy(data, base)
		for i := 0; i < int(flips%16)+1; i++ {
			data[r.Intn(len(data))] ^= byte(r.Uint64())
		}
		if int(cut) < len(data) {
			data = data[:cut]
		}
		var eth packet.Ethernet
		if eth.DecodeFromBytes(data) == nil {
			var ip packet.IPv4
			if ip.DecodeFromBytes(eth.Payload()) == nil {
				var udp packet.UDP
				_ = udp.DecodeFromBytes(ip.Payload())
				_ = ip.VerifyChecksum(eth.Payload())
			}
		}
		_, _ = packet.ExtractFlow(data)
		_, _ = openflow.KeyFromPacket(data, 3)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Fatal(err)
	}
}
