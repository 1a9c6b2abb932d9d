// Package snmp implements the minimal SNMPv2c subset OFLOPS uses as its
// third measurement channel: BER encoding/decoding of GET/GETNEXT/
// RESPONSE PDUs and an agent that serves interface counters (the
// ifInOctets/ifOutOctets style OIDs OFLOPS polls on the switch under
// test). The wire format is real BER, usable over UDP sockets as well as
// the simulated management network.
package snmp

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// BER/SNMP tags.
const (
	tagInteger     = 0x02
	tagOctetString = 0x04
	tagNull        = 0x05
	tagOID         = 0x06
	tagSequence    = 0x30
	tagCounter32   = 0x41
	tagTimeTicks   = 0x43
	tagCounter64   = 0x46
	tagNoSuchObj   = 0x80

	tagGetRequest  = 0xa0
	tagGetNext     = 0xa1
	tagGetResponse = 0xa2
)

// Version2c is the SNMP version field value for v2c.
const Version2c = 1

// Errors.
var (
	ErrTruncated = errors.New("snmp: truncated BER")
	ErrBadPacket = errors.New("snmp: malformed packet")
)

// OID is an object identifier.
type OID []uint32

// ParseOID parses a dotted OID like "1.3.6.1.2.1.2.2.1.10.1".
func ParseOID(s string) (OID, error) {
	parts := strings.Split(strings.TrimPrefix(s, "."), ".")
	oid := make(OID, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseUint(p, 10, 32)
		if err != nil {
			return nil, fmt.Errorf("snmp: bad OID %q: %w", s, err)
		}
		oid = append(oid, uint32(v))
	}
	if len(oid) < 2 {
		return nil, fmt.Errorf("snmp: OID %q too short", s)
	}
	return oid, nil
}

// MustOID is ParseOID that panics on malformed input (for constants).
func MustOID(s string) OID {
	o, err := ParseOID(s)
	if err != nil {
		panic(err)
	}
	return o
}

// String renders the OID dotted.
func (o OID) String() string {
	parts := make([]string, len(o))
	for i, v := range o {
		parts[i] = strconv.FormatUint(uint64(v), 10)
	}
	return strings.Join(parts, ".")
}

// Cmp orders OIDs lexicographically (the MIB walk order).
func (o OID) Cmp(other OID) int {
	for i := 0; i < len(o) && i < len(other); i++ {
		if o[i] != other[i] {
			if o[i] < other[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(o) < len(other):
		return -1
	case len(o) > len(other):
		return 1
	}
	return 0
}

// Append returns o with extra arcs appended (fresh backing array).
func (o OID) Append(arcs ...uint32) OID {
	out := make(OID, 0, len(o)+len(arcs))
	out = append(out, o...)
	return append(out, arcs...)
}

// Value is one SNMP value.
type Value struct {
	Kind  byte // tagInteger, tagOctetString, tagCounter32/64, tagTimeTicks, tagNull
	Int   int64
	Bytes []byte
}

// Counter64 builds a Counter64 value.
func Counter64(v uint64) Value { return Value{Kind: tagCounter64, Int: int64(v)} }

// TimeTicks builds a TimeTicks value (hundredths of seconds).
func TimeTicks(v uint32) Value { return Value{Kind: tagTimeTicks, Int: int64(v)} }

// Null is the NULL value (used in request varbinds).
var Null = Value{Kind: tagNull}

// NoSuchObject marks an unresolvable OID in a v2c response.
var NoSuchObject = Value{Kind: tagNoSuchObj}

// VarBind couples an OID with a value.
type VarBind struct {
	OID   OID
	Value Value
}

// PDU is one SNMP protocol data unit.
type PDU struct {
	Type      byte // tagGetRequest, tagGetNext, tagGetResponse
	RequestID int32
	ErrStatus int
	ErrIndex  int
	VarBinds  []VarBind
}

// Message is a community-string SNMP message.
type Message struct {
	Version   int
	Community string
	PDU       PDU
}

// PDU type helpers.
const (
	GetRequest  = tagGetRequest
	GetNext     = tagGetNext
	GetResponse = tagGetResponse
)

// ---- BER encoding ----

func berLen(b []byte, n int) []byte {
	if n < 128 {
		return append(b, byte(n))
	}
	if n < 256 {
		return append(b, 0x81, byte(n))
	}
	return append(b, 0x82, byte(n>>8), byte(n))
}

func berTLV(b []byte, tag byte, content []byte) []byte {
	b = append(b, tag)
	b = berLen(b, len(content))
	return append(b, content...)
}

func berInt(b []byte, tag byte, v int64) []byte {
	// Two's-complement minimal encoding.
	var content []byte
	switch {
	case v >= -128 && v < 128:
		content = []byte{byte(v)}
	case v >= -32768 && v < 32768:
		content = []byte{byte(v >> 8), byte(v)}
	case v >= -(1<<23) && v < 1<<23:
		content = []byte{byte(v >> 16), byte(v >> 8), byte(v)}
	case v >= -(1<<31) && v < 1<<31:
		content = []byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)}
	default:
		content = []byte{byte(v >> 56), byte(v >> 48), byte(v >> 40), byte(v >> 32),
			byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)}
	}
	return berTLV(b, tag, content)
}

func berOID(b []byte, oid OID) []byte {
	var content []byte
	if len(oid) >= 2 {
		content = append(content, byte(oid[0]*40+oid[1]))
		for _, arc := range oid[2:] {
			content = appendBase128(content, arc)
		}
	}
	return berTLV(b, tagOID, content)
}

func appendBase128(b []byte, v uint32) []byte {
	if v == 0 {
		return append(b, 0)
	}
	var tmp [5]byte
	n := 0
	for v > 0 {
		tmp[n] = byte(v & 0x7f)
		v >>= 7
		n++
	}
	for i := n - 1; i > 0; i-- {
		b = append(b, tmp[i]|0x80)
	}
	return append(b, tmp[0])
}

func encodeValue(b []byte, v Value) []byte {
	switch v.Kind {
	case tagInteger, tagCounter32, tagCounter64, tagTimeTicks:
		return berInt(b, v.Kind, v.Int)
	case tagOctetString:
		return berTLV(b, tagOctetString, v.Bytes)
	case tagNoSuchObj:
		return berTLV(b, tagNoSuchObj, nil)
	default:
		return berTLV(b, tagNull, nil)
	}
}

// Encode serialises the message to BER bytes.
func Encode(m Message) []byte {
	var binds []byte
	for _, vb := range m.PDU.VarBinds {
		var one []byte
		one = berOID(one, vb.OID)
		one = encodeValue(one, vb.Value)
		binds = berTLV(binds, tagSequence, one)
	}
	var pdu []byte
	pdu = berInt(pdu, tagInteger, int64(m.PDU.RequestID))
	pdu = berInt(pdu, tagInteger, int64(m.PDU.ErrStatus))
	pdu = berInt(pdu, tagInteger, int64(m.PDU.ErrIndex))
	pdu = berTLV(pdu, tagSequence, binds)

	var body []byte
	body = berInt(body, tagInteger, int64(m.Version))
	body = berTLV(body, tagOctetString, []byte(m.Community))
	body = berTLV(body, m.PDU.Type, pdu)
	return berTLV(nil, tagSequence, body)
}

// ---- BER decoding ----

type berReader struct{ d []byte }

func (r *berReader) tlv() (tag byte, content []byte, err error) {
	if len(r.d) < 2 {
		return 0, nil, ErrTruncated
	}
	tag = r.d[0]
	lenByte := r.d[1]
	idx := 2
	length := int(lenByte)
	if lenByte&0x80 != 0 {
		n := int(lenByte & 0x7f)
		if n > 3 || len(r.d) < 2+n {
			return 0, nil, ErrTruncated
		}
		length = 0
		for i := 0; i < n; i++ {
			length = length<<8 | int(r.d[2+i])
		}
		idx += n
	}
	if len(r.d) < idx+length {
		return 0, nil, ErrTruncated
	}
	content = r.d[idx : idx+length]
	r.d = r.d[idx+length:]
	return tag, content, nil
}

func (r *berReader) intTLV() (int64, byte, error) {
	tag, content, err := r.tlv()
	if err != nil {
		return 0, 0, err
	}
	return berDecodeInt(content), tag, nil
}

func berDecodeInt(content []byte) int64 {
	var v int64
	if len(content) > 0 && content[0]&0x80 != 0 {
		v = -1 // sign-extend
	}
	for _, c := range content {
		v = v<<8 | int64(c)
	}
	return v
}

func decodeOID(content []byte) (OID, error) {
	if len(content) == 0 {
		return nil, ErrBadPacket
	}
	oid := OID{uint32(content[0]) / 40, uint32(content[0]) % 40}
	var cur uint32
	for _, c := range content[1:] {
		cur = cur<<7 | uint32(c&0x7f)
		if c&0x80 == 0 {
			oid = append(oid, cur)
			cur = 0
		}
	}
	return oid, nil
}

// Decode parses a BER-encoded SNMP message.
func Decode(data []byte) (Message, error) {
	var m Message
	outer := berReader{data}
	tag, body, err := outer.tlv()
	if err != nil {
		return m, err
	}
	if tag != tagSequence {
		return m, ErrBadPacket
	}
	r := berReader{body}
	ver, tag, err := r.intTLV()
	if err != nil || tag != tagInteger {
		return m, ErrBadPacket
	}
	m.Version = int(ver)
	tag, comm, err := r.tlv()
	if err != nil || tag != tagOctetString {
		return m, ErrBadPacket
	}
	m.Community = string(comm)
	pduTag, pduBody, err := r.tlv()
	if err != nil {
		return m, err
	}
	if pduTag != tagGetRequest && pduTag != tagGetNext && pduTag != tagGetResponse {
		return m, fmt.Errorf("snmp: unsupported PDU type %#x", pduTag)
	}
	m.PDU.Type = pduTag
	pr := berReader{pduBody}
	reqID, tag, err := pr.intTLV()
	if err != nil || tag != tagInteger {
		return m, ErrBadPacket
	}
	m.PDU.RequestID = int32(reqID)
	errStatus, _, err := pr.intTLV()
	if err != nil {
		return m, err
	}
	m.PDU.ErrStatus = int(errStatus)
	errIndex, _, err := pr.intTLV()
	if err != nil {
		return m, err
	}
	m.PDU.ErrIndex = int(errIndex)
	tag, binds, err := pr.tlv()
	if err != nil || tag != tagSequence {
		return m, ErrBadPacket
	}
	br := berReader{binds}
	for len(br.d) > 0 {
		tag, one, err := br.tlv()
		if err != nil || tag != tagSequence {
			return m, ErrBadPacket
		}
		vr := berReader{one}
		tag, oidBytes, err := vr.tlv()
		if err != nil || tag != tagOID {
			return m, ErrBadPacket
		}
		oid, err := decodeOID(oidBytes)
		if err != nil {
			return m, err
		}
		vtag, vcontent, err := vr.tlv()
		if err != nil {
			return m, err
		}
		val := Value{Kind: vtag}
		switch vtag {
		case tagInteger, tagCounter32, tagCounter64, tagTimeTicks:
			val.Int = berDecodeInt(vcontent)
		case tagOctetString:
			val.Bytes = append([]byte(nil), vcontent...)
		}
		m.PDU.VarBinds = append(m.PDU.VarBinds, VarBind{OID: oid, Value: val})
	}
	return m, nil
}

// Agent serves a static-shape MIB whose leaf values are computed on each
// request — the pattern used to bridge simulated switch port counters.
type Agent struct {
	Community string
	vars      map[string]func() Value
	order     []OID
	sorted    bool
}

// NewAgent builds an agent answering the given community (empty = any).
func NewAgent(community string) *Agent {
	return &Agent{Community: community, vars: make(map[string]func() Value)}
}

// Register binds an OID to a value function.
func (a *Agent) Register(oid OID, fn func() Value) {
	key := oid.String()
	if _, exists := a.vars[key]; !exists {
		a.order = append(a.order, oid)
		a.sorted = false
	}
	a.vars[key] = fn
}

func (a *Agent) sortOIDs() {
	if !a.sorted {
		sort.Slice(a.order, func(i, j int) bool { return a.order[i].Cmp(a.order[j]) < 0 })
		a.sorted = true
	}
}

// Handle processes one encoded request and returns the encoded response
// (nil for unparseable input or a community mismatch, like an agent
// silently dropping).
func (a *Agent) Handle(request []byte) []byte {
	m, err := Decode(request)
	if err != nil {
		return nil
	}
	if a.Community != "" && m.Community != a.Community {
		return nil
	}
	resp := Message{Version: m.Version, Community: m.Community}
	resp.PDU.Type = GetResponse
	resp.PDU.RequestID = m.PDU.RequestID
	for _, vb := range m.PDU.VarBinds {
		switch m.PDU.Type {
		case GetRequest:
			if fn, ok := a.vars[vb.OID.String()]; ok {
				resp.PDU.VarBinds = append(resp.PDU.VarBinds, VarBind{OID: vb.OID, Value: fn()})
			} else {
				resp.PDU.VarBinds = append(resp.PDU.VarBinds, VarBind{OID: vb.OID, Value: NoSuchObject})
			}
		case GetNext:
			next, ok := a.next(vb.OID)
			if !ok {
				resp.PDU.VarBinds = append(resp.PDU.VarBinds, VarBind{OID: vb.OID, Value: NoSuchObject})
				continue
			}
			resp.PDU.VarBinds = append(resp.PDU.VarBinds,
				VarBind{OID: next, Value: a.vars[next.String()]()})
		default:
			return nil
		}
	}
	return Encode(resp)
}

func (a *Agent) next(after OID) (OID, bool) {
	a.sortOIDs()
	for _, oid := range a.order {
		if oid.Cmp(after) > 0 {
			return oid, true
		}
	}
	return nil, false
}

// Standard interface-MIB OID prefixes (1.3.6.1.2.1.2.2.1.<col>.<ifIndex>).
var (
	OIDIfInOctets   = MustOID("1.3.6.1.2.1.2.2.1.10")
	OIDIfOutOctets  = MustOID("1.3.6.1.2.1.2.2.1.16")
	OIDIfInPackets  = MustOID("1.3.6.1.2.1.2.2.1.11")
	OIDIfOutPackets = MustOID("1.3.6.1.2.1.2.2.1.17")
	OIDSysUpTime    = MustOID("1.3.6.1.2.1.1.3.0")
)
