package packet

// This file holds the transport-layer codecs: UDP and TCP.

// pseudoHeader describes the IPv4 network-layer context a transport
// checksum covers.
type pseudoHeader struct {
	src4     IP4
	dst4     IP4
	proto    byte
	totalLen uint32
}

func (p *pseudoHeader) sum() uint32 {
	var s uint32
	s += sumBytes(p.src4[:])
	s += sumBytes(p.dst4[:])
	s += uint32(p.proto)
	s += p.totalLen & 0xffff
	s += p.totalLen >> 16
	return s
}

// PseudoV4 returns the checksum seed for a transport segment carried by
// IPv4 between src and dst with the given transport protocol and length.
func PseudoV4(src, dst IP4, proto byte, length int) uint32 {
	p := pseudoHeader{src4: src, dst4: dst, proto: proto, totalLen: uint32(length)}
	return p.sum()
}

// UDP is a UDP header.
type UDP struct {
	SrcPort, DstPort uint16
	Length           uint16
	Checksum         uint16
	payload          []byte

	// Pseudo-header context for checksum computation during serialization.
	// Set via SetNetworkForChecksum.
	pseudo *pseudoHeader
}

// UDPHeaderLen is the UDP header size.
const UDPHeaderLen = 8

// DecodeFromBytes parses a UDP header, resetting u.
func (u *UDP) DecodeFromBytes(data []byte) error {
	if len(data) < UDPHeaderLen {
		return ErrTooShort
	}
	u.SrcPort = beU16(data[0:2])
	u.DstPort = beU16(data[2:4])
	u.Length = beU16(data[4:6])
	u.Checksum = beU16(data[6:8])
	end := len(data)
	if l := int(u.Length); l >= UDPHeaderLen && l <= len(data) {
		end = l
	}
	u.payload = data[UDPHeaderLen:end]
	return nil
}

// Payload returns the UDP payload.
func (u *UDP) Payload() []byte { return u.payload }

// SetNetworkForChecksum records the IPv4 endpoints used to compute the
// pseudo-header checksum when serializing with ComputeChecksums.
func (u *UDP) SetNetworkForChecksum(src, dst IP4) {
	u.pseudo = &pseudoHeader{src4: src, dst4: dst, proto: ProtoUDP}
}

// SerializeTo implements SerializableLayer.
func (u *UDP) SerializeTo(b *SerializeBuffer, opts SerializeOptions) error {
	payloadLen := b.Len()
	h := b.PrependBytes(UDPHeaderLen)
	putU16(h[0:2], u.SrcPort)
	putU16(h[2:4], u.DstPort)
	if opts.FixLengths {
		u.Length = uint16(UDPHeaderLen + payloadLen)
	}
	putU16(h[4:6], u.Length)
	putU16(h[6:8], 0)
	if opts.ComputeChecksums && u.pseudo != nil {
		u.pseudo.totalLen = uint32(u.Length)
		seg := b.Bytes()[:u.Length]
		u.Checksum = Checksum(seg, u.pseudo.sum())
		if u.Checksum == 0 {
			u.Checksum = 0xffff // RFC 768: zero means "no checksum"
		}
	}
	putU16(h[6:8], u.Checksum)
	return nil
}

// VerifyChecksum checks the UDP checksum of a decoded segment. seg must be
// the full UDP segment (header+payload) and the addresses those of the
// enclosing IP header.
func (u *UDP) VerifyChecksum(seg []byte, src, dst IP4) bool {
	if u.Checksum == 0 {
		return true // checksum disabled
	}
	return Checksum(seg, PseudoV4(src, dst, ProtoUDP, len(seg))) == 0
}

// TCP flag bits.
const (
	TCPFin uint8 = 1 << iota
	TCPSyn
	TCPRst
	TCPPsh
	TCPAck
	TCPUrg
)

// TCP is a TCP header with raw options.
type TCP struct {
	SrcPort, DstPort uint16
	Seq, Ack         uint32
	Flags            uint8
	Window           uint16
	Checksum         uint16
	Urgent           uint16
	Options          []byte
	payload          []byte

	pseudo *pseudoHeader
}

// TCPMinLen is the option-less TCP header size.
const TCPMinLen = 20

// DecodeFromBytes parses a TCP header, resetting t.
func (t *TCP) DecodeFromBytes(data []byte) error {
	if len(data) < TCPMinLen {
		return ErrTooShort
	}
	off := int(data[12]>>4) * 4
	if off < TCPMinLen || len(data) < off {
		return ErrTooShort
	}
	t.SrcPort = beU16(data[0:2])
	t.DstPort = beU16(data[2:4])
	t.Seq = beU32(data[4:8])
	t.Ack = beU32(data[8:12])
	t.Flags = data[13] & 0x3f
	t.Window = beU16(data[14:16])
	t.Checksum = beU16(data[16:18])
	t.Urgent = beU16(data[18:20])
	t.Options = data[TCPMinLen:off]
	t.payload = data[off:]
	return nil
}

// Payload returns the TCP payload.
func (t *TCP) Payload() []byte { return t.payload }

// SetNetworkForChecksum records the IPv4 endpoints used for the
// pseudo-header checksum.
func (t *TCP) SetNetworkForChecksum(src, dst IP4) {
	t.pseudo = &pseudoHeader{src4: src, dst4: dst, proto: ProtoTCP}
}

// SerializeTo implements SerializableLayer.
func (t *TCP) SerializeTo(b *SerializeBuffer, opts SerializeOptions) error {
	optLen := (len(t.Options) + 3) / 4 * 4
	hl := TCPMinLen + optLen
	h := b.PrependBytes(hl)
	putU16(h[0:2], t.SrcPort)
	putU16(h[2:4], t.DstPort)
	putU32(h[4:8], t.Seq)
	putU32(h[8:12], t.Ack)
	h[12] = uint8(hl/4) << 4
	h[13] = t.Flags
	putU16(h[14:16], t.Window)
	putU16(h[16:18], 0)
	putU16(h[18:20], t.Urgent)
	for i := range h[TCPMinLen:] {
		h[TCPMinLen+i] = 0
	}
	copy(h[TCPMinLen:], t.Options)
	if opts.ComputeChecksums && t.pseudo != nil {
		seg := b.Bytes()
		t.pseudo.totalLen = uint32(len(seg))
		t.Checksum = Checksum(seg, t.pseudo.sum())
	}
	putU16(h[16:18], t.Checksum)
	return nil
}

// VerifyChecksum checks the TCP checksum of a decoded segment.
func (t *TCP) VerifyChecksum(seg []byte, src, dst IP4) bool {
	return Checksum(seg, PseudoV4(src, dst, ProtoTCP, len(seg))) == 0
}

// Checksum computes the Internet checksum (RFC 1071) of data with an
// initial partial sum, typically a pseudo-header sum.
//
// The accumulator walks 8-byte big-endian words with end-around carry —
// the word-at-a-time form compilers turn into straight-line loads and
// adc chains. It computes the same ones-complement sum as the 16-bit
// pair loop because 2^16 ≡ 1 (mod 2^16−1): every 16-bit lane of a
// 64-bit word carries weight 1 once the final folds collapse it, and a
// wrapped 64-bit add loses exactly 2^64 ≡ 1, which the carry increment
// restores.
func Checksum(data []byte, initial uint32) uint16 {
	sum := uint64(initial)
	for len(data) >= 8 {
		w := uint64(data[0])<<56 | uint64(data[1])<<48 | uint64(data[2])<<40 | uint64(data[3])<<32 |
			uint64(data[4])<<24 | uint64(data[5])<<16 | uint64(data[6])<<8 | uint64(data[7])
		sum += w
		if sum < w {
			sum++ // end-around carry: 2^64 ≡ 1 (mod 2^16−1)
		}
		data = data[8:]
	}
	// One 64→33-bit fold makes the tail adds overflow-free.
	sum = sum>>32 + sum&0xffffffff
	if len(data) >= 4 {
		sum += uint64(data[0])<<24 | uint64(data[1])<<16 | uint64(data[2])<<8 | uint64(data[3])
		data = data[4:]
	}
	if len(data) >= 2 {
		sum += uint64(data[0])<<8 | uint64(data[1])
		data = data[2:]
	}
	if len(data) == 1 {
		sum += uint64(data[0]) << 8
	}
	for sum > 0xffff {
		sum = sum&0xffff + sum>>16
	}
	return ^uint16(sum)
}

func sumBytes(b []byte) uint32 {
	var s uint32
	for i := 0; i+1 < len(b); i += 2 {
		s += uint32(b[i])<<8 | uint32(b[i+1])
	}
	return s
}
