package packet

// This file holds the link- and network-layer codecs. Each layer decodes
// in place from a byte slice (keeping a reference to its payload, no
// copies) and serializes by prepending onto a SerializeBuffer.

// Ethernet is an untagged Ethernet II header.
type Ethernet struct {
	Dst, Src  MAC
	EtherType uint16
	payload   []byte
}

// HeaderLen is the Ethernet II header size.
const EthernetHeaderLen = 14

// DecodeFromBytes parses an Ethernet header, resetting e.
func (e *Ethernet) DecodeFromBytes(data []byte) error {
	if len(data) < EthernetHeaderLen {
		return ErrTooShort
	}
	copy(e.Dst[:], data[0:6])
	copy(e.Src[:], data[6:12])
	e.EtherType = beU16(data[12:14])
	e.payload = data[EthernetHeaderLen:]
	return nil
}

// Payload returns the bytes following the header.
func (e *Ethernet) Payload() []byte { return e.payload }

// SerializeTo implements SerializableLayer.
func (e *Ethernet) SerializeTo(b *SerializeBuffer, _ SerializeOptions) error {
	h := b.PrependBytes(EthernetHeaderLen)
	copy(h[0:6], e.Dst[:])
	copy(h[6:12], e.Src[:])
	putU16(h[12:14], e.EtherType)
	return nil
}

// VLAN is an 802.1Q tag. On the wire it follows an Ethernet header whose
// EtherType is EtherTypeVLAN.
type VLAN struct {
	Priority  uint8 // PCP, 3 bits
	DropOK    bool  // DEI bit
	ID        uint16
	EtherType uint16 // encapsulated EtherType
	payload   []byte
}

// VLANHeaderLen is the length of the 802.1Q tag body (TCI + EtherType).
const VLANHeaderLen = 4

// DecodeFromBytes parses a VLAN tag, resetting v.
func (v *VLAN) DecodeFromBytes(data []byte) error {
	if len(data) < VLANHeaderLen {
		return ErrTooShort
	}
	tci := beU16(data[0:2])
	v.Priority = uint8(tci >> 13)
	v.DropOK = tci&0x1000 != 0
	v.ID = tci & 0x0fff
	v.EtherType = beU16(data[2:4])
	v.payload = data[VLANHeaderLen:]
	return nil
}

// Payload returns the bytes following the tag.
func (v *VLAN) Payload() []byte { return v.payload }

// SerializeTo implements SerializableLayer.
func (v *VLAN) SerializeTo(b *SerializeBuffer, _ SerializeOptions) error {
	h := b.PrependBytes(VLANHeaderLen)
	tci := uint16(v.Priority)<<13 | v.ID&0x0fff
	if v.DropOK {
		tci |= 0x1000
	}
	putU16(h[0:2], tci)
	putU16(h[2:4], v.EtherType)
	return nil
}

// ARP operations.
const (
	ARPRequest uint16 = 1
	ARPReply   uint16 = 2
)

// ARP is an Ethernet/IPv4 ARP packet.
type ARP struct {
	Op                 uint16
	SenderHW, TargetHW MAC
	SenderIP, TargetIP IP4
}

// ARPLen is the Ethernet/IPv4 ARP body size.
const ARPLen = 28

// DecodeFromBytes parses an ARP body, resetting a. Only the
// Ethernet/IPv4 combination is accepted.
func (a *ARP) DecodeFromBytes(data []byte) error {
	if len(data) < ARPLen {
		return ErrTooShort
	}
	if beU16(data[0:2]) != 1 || beU16(data[2:4]) != EtherTypeIPv4 || data[4] != 6 || data[5] != 4 {
		return ErrTooShort
	}
	a.Op = beU16(data[6:8])
	copy(a.SenderHW[:], data[8:14])
	copy(a.SenderIP[:], data[14:18])
	copy(a.TargetHW[:], data[18:24])
	copy(a.TargetIP[:], data[24:28])
	return nil
}

// SerializeTo implements SerializableLayer.
func (a *ARP) SerializeTo(b *SerializeBuffer, _ SerializeOptions) error {
	h := b.PrependBytes(ARPLen)
	putU16(h[0:2], 1) // Ethernet
	putU16(h[2:4], EtherTypeIPv4)
	h[4], h[5] = 6, 4
	putU16(h[6:8], a.Op)
	copy(h[8:14], a.SenderHW[:])
	copy(h[14:18], a.SenderIP[:])
	copy(h[18:24], a.TargetHW[:])
	copy(h[24:28], a.TargetIP[:])
	return nil
}

// IPv4 flag bits.
const (
	IPv4DontFragment  uint8 = 0x2
	IPv4MoreFragments uint8 = 0x1
)

// IPv4 is an IPv4 header with options.
type IPv4 struct {
	TOS      uint8
	TotalLen uint16
	ID       uint16
	Flags    uint8 // 3 bits
	FragOff  uint16
	TTL      uint8
	Proto    byte
	Checksum uint16
	Src, Dst IP4
	Options  []byte
	payload  []byte
}

// IPv4MinLen is the option-less IPv4 header size.
const IPv4MinLen = 20

// DecodeFromBytes parses an IPv4 header, resetting ip.
func (ip *IPv4) DecodeFromBytes(data []byte) error {
	if len(data) < IPv4MinLen {
		return ErrTooShort
	}
	if data[0]>>4 != 4 {
		return ErrVersion
	}
	ihl := int(data[0]&0x0f) * 4
	if ihl < IPv4MinLen || len(data) < ihl {
		return ErrTooShort
	}
	ip.TOS = data[1]
	ip.TotalLen = beU16(data[2:4])
	ip.ID = beU16(data[4:6])
	ff := beU16(data[6:8])
	ip.Flags = uint8(ff >> 13)
	ip.FragOff = ff & 0x1fff
	ip.TTL = data[8]
	ip.Proto = data[9]
	ip.Checksum = beU16(data[10:12])
	copy(ip.Src[:], data[12:16])
	copy(ip.Dst[:], data[16:20])
	ip.Options = data[IPv4MinLen:ihl]
	// Trust TotalLen when plausible so trailing Ethernet padding is not
	// mistaken for payload.
	end := len(data)
	if tl := int(ip.TotalLen); tl >= ihl && tl <= len(data) {
		end = tl
	}
	ip.payload = data[ihl:end]
	return nil
}

// Payload returns the bytes between header and TotalLen (or the end of
// data when TotalLen is implausible).
func (ip *IPv4) Payload() []byte { return ip.payload }

// VerifyChecksum recomputes the header checksum over data's header bytes
// and reports whether it is consistent. data must be the same slice the
// header was decoded from.
func (ip *IPv4) VerifyChecksum(data []byte) bool {
	ihl := IPv4MinLen + len(ip.Options)
	if len(data) < ihl {
		return false
	}
	return Checksum(data[:ihl], 0) == 0
}

// SerializeTo implements SerializableLayer.
func (ip *IPv4) SerializeTo(b *SerializeBuffer, opts SerializeOptions) error {
	optLen := (len(ip.Options) + 3) / 4 * 4
	hl := IPv4MinLen + optLen
	payloadLen := b.Len()
	h := b.PrependBytes(hl)
	h[0] = 4<<4 | uint8(hl/4)
	h[1] = ip.TOS
	if opts.FixLengths {
		ip.TotalLen = uint16(hl + payloadLen)
	}
	putU16(h[2:4], ip.TotalLen)
	putU16(h[4:6], ip.ID)
	putU16(h[6:8], uint16(ip.Flags)<<13|ip.FragOff&0x1fff)
	h[8] = ip.TTL
	h[9] = ip.Proto
	putU16(h[10:12], 0)
	copy(h[12:16], ip.Src[:])
	copy(h[16:20], ip.Dst[:])
	for i := range h[IPv4MinLen:] {
		h[IPv4MinLen+i] = 0
	}
	copy(h[IPv4MinLen:], ip.Options)
	if opts.ComputeChecksums {
		ip.Checksum = Checksum(h[:hl], 0)
	}
	putU16(h[10:12], ip.Checksum)
	return nil
}

// IPv6HeaderLen is the fixed IPv6 header size.
const IPv6HeaderLen = 40
