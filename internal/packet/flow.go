package packet

import "fmt"

// Flow is the canonical 5-tuple of a packet plus address family, usable as
// a map key. IPv4 addresses occupy the first four bytes of the arrays.
type Flow struct {
	V6               bool
	Src, Dst         IP6
	Proto            byte
	SrcPort, DstPort uint16
}

// ExtractFlow parses just enough of an Ethernet frame to build its flow
// 5-tuple, skipping a single 802.1Q tag if present. It allocates nothing.
// ok is false for non-IP frames or truncated headers; ARP and other
// non-IP traffic simply has no 5-tuple.
func ExtractFlow(data []byte) (f Flow, ok bool) {
	if len(data) < EthernetHeaderLen {
		return f, false
	}
	et := beU16(data[12:14])
	off := EthernetHeaderLen
	if et == EtherTypeVLAN {
		if len(data) < off+VLANHeaderLen {
			return f, false
		}
		et = beU16(data[off+2 : off+4])
		off += VLANHeaderLen
	}
	switch et {
	case EtherTypeIPv4:
		if len(data) < off+IPv4MinLen {
			return f, false
		}
		ip := data[off:]
		ihl := int(ip[0]&0x0f) * 4
		if ip[0]>>4 != 4 || ihl < IPv4MinLen || len(ip) < ihl {
			return f, false
		}
		copy(f.Src[:4], ip[12:16])
		copy(f.Dst[:4], ip[16:20])
		f.Proto = ip[9]
		// Fragments with nonzero offset carry no transport header.
		if beU16(ip[6:8])&0x1fff == 0 {
			f.SrcPort, f.DstPort = transportPorts(f.Proto, ip[ihl:])
		}
		return f, true
	case EtherTypeIPv6:
		if len(data) < off+IPv6HeaderLen {
			return f, false
		}
		ip := data[off:]
		if ip[0]>>4 != 6 {
			return f, false
		}
		f.V6 = true
		copy(f.Src[:], ip[8:24])
		copy(f.Dst[:], ip[24:40])
		f.Proto = ip[6]
		f.SrcPort, f.DstPort = transportPorts(f.Proto, ip[IPv6HeaderLen:])
		return f, true
	}
	return f, false
}

func transportPorts(proto byte, l4 []byte) (src, dst uint16) {
	switch proto {
	case ProtoTCP, ProtoUDP:
		if len(l4) >= 4 {
			return beU16(l4[0:2]), beU16(l4[2:4])
		}
	}
	return 0, 0
}

// SrcIP4 returns the IPv4 source address of a v4 flow.
func (f Flow) SrcIP4() IP4 { return IP4{f.Src[0], f.Src[1], f.Src[2], f.Src[3]} }

// DstIP4 returns the IPv4 destination address of a v4 flow.
func (f Flow) DstIP4() IP4 { return IP4{f.Dst[0], f.Dst[1], f.Dst[2], f.Dst[3]} }

// String renders the flow as "src:port > dst:port/proto".
func (f Flow) String() string {
	if f.V6 {
		return fmt.Sprintf("[%s]:%d > [%s]:%d/%d", f.Src, f.SrcPort, f.Dst, f.DstPort, f.Proto)
	}
	return fmt.Sprintf("%s:%d > %s:%d/%d", f.SrcIP4(), f.SrcPort, f.DstIP4(), f.DstPort, f.Proto)
}

// fnv-1a constants.
const (
	fnvOffset uint64 = 14695981039346656037
	fnvPrime  uint64 = 1099511628211
)

func fnvBytes(h uint64, b []byte) uint64 {
	for _, v := range b {
		h = (h ^ uint64(v)) * fnvPrime
	}
	return h
}

// HeaderDigestBytes covers exactly the L2–L4 headers of an untagged
// IPv4/UDP probe (Ethernet 14 + IPv4 20 + UDP 8). Hashing this prefix
// and no more gives one digest per flow: payload bytes — in particular
// a generator's embedded transmit timestamp, which starts right at this
// offset — differ packet by packet and would split every flow apart.
// RSS steering, ECMP spray and flow analytics all key on it.
const HeaderDigestBytes = 42

// PacketDigest returns a 64-bit FNV-1a hash over up to the first n bytes
// of the frame. The OSNT monitor's hardware hash unit uses this to let
// software match a thinned capture against the original packet.
func PacketDigest(data []byte, n int) uint64 {
	if n > len(data) || n <= 0 {
		n = len(data)
	}
	return fnvBytes(fnvOffset, data[:n])
}

// Mix64 whitens a hardware digest before a modulo spread (the RSS
// indirection step, and likewise a switch fabric's ECMP member select):
// FNV's low bits are weak on structured header input — flows differing
// only in a port number can share a low-bit residue, collapsing onto few
// buckets — so the avalanche finaliser (Murmur3's) spreads every digest
// bit into the selector.
func Mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	h ^= h >> 33
	return h
}
