package openflow

import (
	"encoding/binary"
	"fmt"
	"strings"

	"osnt/internal/packet"
)

// Wildcard flag bits of ofp_match (OpenFlow 1.0 §5.2.3).
const (
	WildInPort     uint32 = 1 << 0
	WildDlVlan     uint32 = 1 << 1
	WildDlSrc      uint32 = 1 << 2
	WildDlDst      uint32 = 1 << 3
	WildDlType     uint32 = 1 << 4
	WildNwProto    uint32 = 1 << 5
	WildTpSrc      uint32 = 1 << 6
	WildTpDst      uint32 = 1 << 7
	wildNwSrcShift        = 8
	wildNwDstShift        = 14
	WildNwSrcAll   uint32 = 32 << wildNwSrcShift
	WildNwDstAll   uint32 = 32 << wildNwDstShift
	WildDlVlanPcp  uint32 = 1 << 20
	WildNwTos      uint32 = 1 << 21
	// WildAll wildcards every field.
	WildAll uint32 = (1 << 22) - 1
)

// matchLen is the ofp_match wire size.
const matchLen = 40

// Match is ofp_match: a 12-tuple with per-field wildcarding and CIDR-style
// wildcard bit counts on the IP addresses.
type Match struct {
	Wildcards uint32
	InPort    uint16
	DlSrc     packet.MAC
	DlDst     packet.MAC
	DlVlan    uint16
	DlVlanPcp uint8
	DlType    uint16
	NwTos     uint8
	NwProto   uint8
	NwSrc     uint32
	NwDst     uint32
	TpSrc     uint16
	TpDst     uint16
}

// MatchAll returns the fully wildcarded match.
func MatchAll() Match { return Match{Wildcards: WildAll} }

// NwSrcWildBits returns how many low-order bits of NwSrc are wildcarded
// (0 = exact, ≥32 = fully wildcarded).
func (m *Match) NwSrcWildBits() int { return int(m.Wildcards >> wildNwSrcShift & 0x3f) }

// NwDstWildBits returns how many low-order bits of NwDst are wildcarded.
func (m *Match) NwDstWildBits() int { return int(m.Wildcards >> wildNwDstShift & 0x3f) }

// SetNwDstPrefix sets an exact-prefix match on the destination address
// (prefixLen 32 = exact host, 0 = any).
func (m *Match) SetNwDstPrefix(addr packet.IP4, prefixLen int) {
	m.NwDst = addr.Uint32()
	m.Wildcards = m.Wildcards&^(uint32(0x3f)<<wildNwDstShift) |
		uint32(32-prefixLen)<<wildNwDstShift
}

func (m *Match) encode(b []byte) []byte {
	b = be32(b, m.Wildcards)
	b = be16(b, m.InPort)
	b = append(b, m.DlSrc[:]...)
	b = append(b, m.DlDst[:]...)
	b = be16(b, m.DlVlan)
	b = append(b, m.DlVlanPcp, 0)
	b = be16(b, m.DlType)
	b = append(b, m.NwTos, m.NwProto, 0, 0)
	b = be32(b, m.NwSrc)
	b = be32(b, m.NwDst)
	b = be16(b, m.TpSrc)
	return be16(b, m.TpDst)
}

func (m *Match) decode(d []byte) error {
	if len(d) < matchLen {
		return ErrTruncated
	}
	m.Wildcards = binary.BigEndian.Uint32(d[0:4])
	m.InPort = binary.BigEndian.Uint16(d[4:6])
	copy(m.DlSrc[:], d[6:12])
	copy(m.DlDst[:], d[12:18])
	m.DlVlan = binary.BigEndian.Uint16(d[18:20])
	m.DlVlanPcp = d[20]
	m.DlType = binary.BigEndian.Uint16(d[22:24])
	m.NwTos = d[24]
	m.NwProto = d[25]
	m.NwSrc = binary.BigEndian.Uint32(d[28:32])
	m.NwDst = binary.BigEndian.Uint32(d[32:36])
	m.TpSrc = binary.BigEndian.Uint16(d[36:38])
	m.TpDst = binary.BigEndian.Uint16(d[38:40])
	return nil
}

// Key is the header 12-tuple of one packet, the value a Match is tested
// against.
type Key struct {
	InPort    uint16
	DlSrc     packet.MAC
	DlDst     packet.MAC
	DlVlan    uint16 // 0xffff = untagged, per OF 1.0
	DlVlanPcp uint8
	DlType    uint16
	NwTos     uint8
	NwProto   uint8
	NwSrc     uint32
	NwDst     uint32
	TpSrc     uint16
	TpDst     uint16
}

// VlanNone is the OF 1.0 encoding of "no VLAN tag".
const VlanNone uint16 = 0xffff

// KeyFromPacket extracts the match key of an Ethernet frame arriving on
// inPort, following the OpenFlow 1.0 header parsing rules.
func KeyFromPacket(data []byte, inPort uint16) (Key, error) {
	k := Key{InPort: inPort, DlVlan: VlanNone}
	var eth packet.Ethernet
	if err := eth.DecodeFromBytes(data); err != nil {
		return k, err
	}
	k.DlSrc = eth.Src
	k.DlDst = eth.Dst
	k.DlType = eth.EtherType
	payload := eth.Payload()
	if eth.EtherType == packet.EtherTypeVLAN {
		var vlan packet.VLAN
		if err := vlan.DecodeFromBytes(payload); err != nil {
			return k, err
		}
		k.DlVlan = vlan.ID
		k.DlVlanPcp = vlan.Priority
		k.DlType = vlan.EtherType
		payload = vlan.Payload()
	}
	switch k.DlType {
	case packet.EtherTypeIPv4:
		var ip packet.IPv4
		if err := ip.DecodeFromBytes(payload); err != nil {
			return k, err
		}
		k.NwTos = ip.TOS & 0xfc
		k.NwProto = ip.Proto
		k.NwSrc = ip.Src.Uint32()
		k.NwDst = ip.Dst.Uint32()
		if ip.FragOff == 0 {
			switch ip.Proto {
			case packet.ProtoTCP, packet.ProtoUDP:
				l4 := ip.Payload()
				if len(l4) >= 4 {
					k.TpSrc = binary.BigEndian.Uint16(l4[0:2])
					k.TpDst = binary.BigEndian.Uint16(l4[2:4])
				}
			case packet.ProtoICMP:
				l4 := ip.Payload()
				if len(l4) >= 2 {
					k.TpSrc = uint16(l4[0]) // ICMP type
					k.TpDst = uint16(l4[1]) // ICMP code
				}
			}
		}
	case packet.EtherTypeARP:
		var arp packet.ARP
		if err := arp.DecodeFromBytes(payload); err == nil {
			k.NwProto = uint8(arp.Op)
			k.NwSrc = arp.SenderIP.Uint32()
			k.NwDst = arp.TargetIP.Uint32()
		}
	}
	return k, nil
}

// Covers reports whether the match accepts the key under OpenFlow 1.0
// wildcard semantics.
func (m *Match) Covers(k *Key) bool {
	w := m.Wildcards
	if w&WildInPort == 0 && m.InPort != k.InPort {
		return false
	}
	if w&WildDlSrc == 0 && m.DlSrc != k.DlSrc {
		return false
	}
	if w&WildDlDst == 0 && m.DlDst != k.DlDst {
		return false
	}
	if w&WildDlVlan == 0 && m.DlVlan != k.DlVlan {
		return false
	}
	if w&WildDlVlanPcp == 0 && m.DlVlanPcp != k.DlVlanPcp {
		return false
	}
	if w&WildDlType == 0 && m.DlType != k.DlType {
		return false
	}
	if w&WildNwTos == 0 && m.NwTos != k.NwTos {
		return false
	}
	if w&WildNwProto == 0 && m.NwProto != k.NwProto {
		return false
	}
	if bits := m.NwSrcWildBits(); bits < 32 {
		mask := ^uint32(0) << uint(bits)
		if m.NwSrc&mask != k.NwSrc&mask {
			return false
		}
	}
	if bits := m.NwDstWildBits(); bits < 32 {
		mask := ^uint32(0) << uint(bits)
		if m.NwDst&mask != k.NwDst&mask {
			return false
		}
	}
	if w&WildTpSrc == 0 && m.TpSrc != k.TpSrc {
		return false
	}
	if w&WildTpDst == 0 && m.TpDst != k.TpDst {
		return false
	}
	return true
}

// Subsumes reports whether every packet o could accept is also accepted
// by m — the relation OpenFlow 1.0 non-strict DELETE/MODIFY use to pick
// table entries ("match" in the loose sense of §4.6).
func (m *Match) Subsumes(o *Match) bool {
	type field struct {
		bit uint32
		eq  bool
	}
	fields := []field{
		{WildInPort, m.InPort == o.InPort},
		{WildDlSrc, m.DlSrc == o.DlSrc},
		{WildDlDst, m.DlDst == o.DlDst},
		{WildDlVlan, m.DlVlan == o.DlVlan},
		{WildDlVlanPcp, m.DlVlanPcp == o.DlVlanPcp},
		{WildDlType, m.DlType == o.DlType},
		{WildNwTos, m.NwTos == o.NwTos},
		{WildNwProto, m.NwProto == o.NwProto},
		{WildTpSrc, m.TpSrc == o.TpSrc},
		{WildTpDst, m.TpDst == o.TpDst},
	}
	for _, f := range fields {
		if m.Wildcards&f.bit != 0 {
			continue // m wildcards the field: anything goes
		}
		if o.Wildcards&f.bit != 0 || !f.eq {
			return false // m is specific but o is looser or different
		}
	}
	// Prefixes: m's prefix must be no longer than o's and agree on the
	// shared bits.
	mb, ob := m.NwSrcWildBits(), o.NwSrcWildBits()
	if mb < 32 {
		if ob > mb {
			return false
		}
		mask := ^uint32(0) << uint(mb)
		if m.NwSrc&mask != o.NwSrc&mask {
			return false
		}
	}
	mb, ob = m.NwDstWildBits(), o.NwDstWildBits()
	if mb < 32 {
		if ob > mb {
			return false
		}
		mask := ^uint32(0) << uint(mb)
		if m.NwDst&mask != o.NwDst&mask {
			return false
		}
	}
	return true
}

// String renders the non-wildcarded fields.
func (m Match) String() string {
	var parts []string
	w := m.Wildcards
	if w&WildInPort == 0 {
		parts = append(parts, fmt.Sprintf("in_port=%d", m.InPort))
	}
	if w&WildDlType == 0 {
		parts = append(parts, fmt.Sprintf("dl_type=%#04x", m.DlType))
	}
	if w&WildNwProto == 0 {
		parts = append(parts, fmt.Sprintf("nw_proto=%d", m.NwProto))
	}
	if b := m.NwSrcWildBits(); b < 32 {
		parts = append(parts, fmt.Sprintf("nw_src=%s/%d", packet.IP4FromUint32(m.NwSrc), 32-b))
	}
	if b := m.NwDstWildBits(); b < 32 {
		parts = append(parts, fmt.Sprintf("nw_dst=%s/%d", packet.IP4FromUint32(m.NwDst), 32-b))
	}
	if w&WildTpSrc == 0 {
		parts = append(parts, fmt.Sprintf("tp_src=%d", m.TpSrc))
	}
	if w&WildTpDst == 0 {
		parts = append(parts, fmt.Sprintf("tp_dst=%d", m.TpDst))
	}
	if len(parts) == 0 {
		return "any"
	}
	return strings.Join(parts, ",")
}
