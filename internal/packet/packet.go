// Package packet implements the frame parsing and crafting substrate used
// by the OSNT generator, monitor and the switches under test: Ethernet,
// 802.1Q, ARP, IPv4, UDP and TCP codecs plus IPv4/IPv6 5-tuple flow
// extraction.
//
// The API follows the two idioms that made gopacket suitable for
// line-rate work: decoding is in-place (DecodeFromBytes resets a
// caller-owned layer struct, no allocation), and serialization prepends
// layers into a reusable buffer from the innermost payload outward.
package packet

import (
	"errors"
	"fmt"
)

// Errors shared by all decoders.
var (
	ErrTooShort = errors.New("packet: data too short for layer")
	ErrVersion  = errors.New("packet: wrong IP version")
)

// EtherType values understood by the library.
const (
	EtherTypeIPv4 uint16 = 0x0800
	EtherTypeARP  uint16 = 0x0806
	EtherTypeVLAN uint16 = 0x8100
	EtherTypeIPv6 uint16 = 0x86dd
)

// IP protocol numbers understood by the library.
const (
	ProtoICMP byte = 1
	ProtoTCP  byte = 6
	ProtoUDP  byte = 17
)

// MAC is an Ethernet hardware address.
type MAC [6]byte

// String renders the address in canonical colon notation.
func (m MAC) String() string {
	return fmt.Sprintf("%02x:%02x:%02x:%02x:%02x:%02x", m[0], m[1], m[2], m[3], m[4], m[5])
}

// IsMulticast reports whether the group bit is set.
func (m MAC) IsMulticast() bool { return m[0]&1 == 1 }

// IP4 is an IPv4 address.
type IP4 [4]byte

// String renders the address in dotted decimal.
func (ip IP4) String() string {
	return fmt.Sprintf("%d.%d.%d.%d", ip[0], ip[1], ip[2], ip[3])
}

// Uint32 returns the address as a big-endian integer, the form OpenFlow
// matches use.
func (ip IP4) Uint32() uint32 {
	return uint32(ip[0])<<24 | uint32(ip[1])<<16 | uint32(ip[2])<<8 | uint32(ip[3])
}

// IP4FromUint32 converts a big-endian integer to an address.
func IP4FromUint32(v uint32) IP4 {
	return IP4{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)}
}

// IP6 is an IPv6 address.
type IP6 [16]byte

// String renders the address as eight colon-separated hex groups (no ::
// compression; it is unambiguous and cheap).
func (ip IP6) String() string {
	return fmt.Sprintf("%x:%x:%x:%x:%x:%x:%x:%x",
		uint16(ip[0])<<8|uint16(ip[1]), uint16(ip[2])<<8|uint16(ip[3]),
		uint16(ip[4])<<8|uint16(ip[5]), uint16(ip[6])<<8|uint16(ip[7]),
		uint16(ip[8])<<8|uint16(ip[9]), uint16(ip[10])<<8|uint16(ip[11]),
		uint16(ip[12])<<8|uint16(ip[13]), uint16(ip[14])<<8|uint16(ip[15]))
}

// SerializeOptions control how SerializeTo fills derived fields.
type SerializeOptions struct {
	// FixLengths recomputes length fields (IPv4 total length, UDP length,
	// IPv4 IHL) from the payload being wrapped.
	FixLengths bool
	// ComputeChecksums recomputes checksums (IPv4 header, UDP, TCP,
	// ICMP) including pseudo-headers.
	ComputeChecksums bool
}

// SerializableLayer is a layer that can prepend its wire form onto a
// serialize buffer that already holds its payload.
type SerializableLayer interface {
	SerializeTo(b *SerializeBuffer, opts SerializeOptions) error
}

// SerializeBuffer accumulates a packet from the innermost layer outward.
// PrependBytes grows the front. The buffer keeps headroom across Clear
// calls so steady-state serialization does not allocate.
type SerializeBuffer struct {
	buf      []byte
	start    int
	headroom int // front space restored by Clear
}

// NewSerializeBuffer returns a buffer expecting the given amounts of front
// and back growth.
func NewSerializeBuffer(expectedPrepend, expectedAppend int) *SerializeBuffer {
	return &SerializeBuffer{
		buf:      make([]byte, expectedPrepend, expectedPrepend+expectedAppend),
		start:    expectedPrepend,
		headroom: expectedPrepend,
	}
}

// Bytes returns the assembled packet. The slice is invalidated by Clear.
func (b *SerializeBuffer) Bytes() []byte { return b.buf[b.start:] }

// Len returns the current packet length.
func (b *SerializeBuffer) Len() int { return len(b.buf) - b.start }

// PrependBytes returns n bytes of space at the front of the packet. The
// contents are unspecified; the caller must overwrite all of them.
func (b *SerializeBuffer) PrependBytes(n int) []byte {
	if n < 0 {
		panic("packet: negative prepend")
	}
	if b.start < n {
		// Grow the front: reallocate with extra headroom so repeated
		// workloads of this shape stop allocating.
		grow := n - b.start + 32
		grown := make([]byte, len(b.buf)+grow, cap(b.buf)+grow)
		copy(grown[grow:], b.buf)
		b.buf = grown
		b.start += grow
		b.headroom += grow
	}
	b.start -= n
	return b.buf[b.start : b.start+n]
}

// Clear resets the buffer to empty, preserving capacity and headroom.
func (b *SerializeBuffer) Clear() {
	b.buf = b.buf[:b.headroom]
	b.start = b.headroom
}

// Serialize assembles layers (outermost first) around an optional payload
// already in the buffer, and returns the packet bytes. It clears the
// buffer first.
func Serialize(b *SerializeBuffer, opts SerializeOptions, layers ...SerializableLayer) ([]byte, error) {
	b.Clear()
	for i := len(layers) - 1; i >= 0; i-- {
		if err := layers[i].SerializeTo(b, opts); err != nil {
			return nil, err
		}
	}
	return b.Bytes(), nil
}

// Payload is a raw byte payload usable as the innermost layer.
type Payload []byte

// SerializeTo implements SerializableLayer.
func (p Payload) SerializeTo(b *SerializeBuffer, _ SerializeOptions) error {
	copy(b.PrependBytes(len(p)), p)
	return nil
}

// beU16/beU32 are tiny big-endian helpers; encoding/binary is avoided in
// the per-packet hot path only for clarity of the offset arithmetic.
func beU16(b []byte) uint16 { return uint16(b[0])<<8 | uint16(b[1]) }
func beU32(b []byte) uint32 {
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}
func putU16(b []byte, v uint16) { b[0], b[1] = byte(v>>8), byte(v) }
func putU32(b []byte, v uint32) {
	b[0], b[1], b[2], b[3] = byte(v>>24), byte(v>>16), byte(v>>8), byte(v)
}
