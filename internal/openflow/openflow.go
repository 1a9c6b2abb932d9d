// Package openflow implements the OpenFlow 1.0 wire protocol subset that
// OFLOPS-turbo exercises against switches: HELLO/ECHO handshakes,
// FEATURES, FLOW_MOD with the full ofp_match wildcard semantics,
// PACKET_IN/PACKET_OUT, FLOW_REMOVED, PORT_STATUS, BARRIER and
// FLOW/PORT/AGGREGATE statistics. Encoding is exact OpenFlow 1.0
// big-endian wire format.
package openflow

import (
	"encoding/binary"
	"errors"
	"fmt"

	"osnt/internal/packet"
)

// Version is the OpenFlow wire version this package speaks (1.0).
const Version = 0x01

// HeaderLen is the fixed ofp_header size.
const HeaderLen = 8

// MsgType enumerates OpenFlow 1.0 message types.
type MsgType uint8

// OpenFlow 1.0 message types.
const (
	TypeHello MsgType = iota
	TypeError
	TypeEchoRequest
	TypeEchoReply
	TypeVendor
	TypeFeaturesRequest
	TypeFeaturesReply
	TypeGetConfigRequest
	TypeGetConfigReply
	TypeSetConfig
	TypePacketIn
	TypeFlowRemoved
	TypePortStatus
	TypePacketOut
	TypeFlowMod
	TypePortMod
	TypeStatsRequest
	TypeStatsReply
	TypeBarrierRequest
	TypeBarrierReply
)

// String names the message type.
func (t MsgType) String() string {
	names := [...]string{
		"HELLO", "ERROR", "ECHO_REQUEST", "ECHO_REPLY", "VENDOR",
		"FEATURES_REQUEST", "FEATURES_REPLY", "GET_CONFIG_REQUEST",
		"GET_CONFIG_REPLY", "SET_CONFIG", "PACKET_IN", "FLOW_REMOVED",
		"PORT_STATUS", "PACKET_OUT", "FLOW_MOD", "PORT_MOD",
		"STATS_REQUEST", "STATS_REPLY", "BARRIER_REQUEST", "BARRIER_REPLY",
	}
	if int(t) < len(names) {
		return names[t]
	}
	return fmt.Sprintf("OFPT(%d)", uint8(t))
}

// Reserved port numbers.
const (
	PortMax        uint16 = 0xff00
	PortInPort     uint16 = 0xfff8
	PortTable      uint16 = 0xfff9
	PortNormal     uint16 = 0xfffa
	PortFlood      uint16 = 0xfffb
	PortAll        uint16 = 0xfffc
	PortController uint16 = 0xfffd
	PortLocal      uint16 = 0xfffe
	PortNone       uint16 = 0xffff
)

// FlowMod commands.
const (
	FCAdd uint16 = iota
	FCModify
	FCModifyStrict
	FCDelete
	FCDeleteStrict
)

// FlowMod flags.
const (
	FlagSendFlowRem uint16 = 1 << iota
	FlagCheckOverlap
	FlagEmerg
)

// PacketIn reasons.
const (
	ReasonNoMatch uint8 = iota
	ReasonAction
)

// FlowRemoved reasons.
const (
	RemovedIdleTimeout uint8 = iota
	RemovedHardTimeout
	RemovedDelete
)

// Errors returned by the codec.
var (
	ErrTruncated  = errors.New("openflow: truncated message")
	ErrBadVersion = errors.New("openflow: unsupported version")
	ErrBadLength  = errors.New("openflow: inconsistent length")
)

// Message is one OpenFlow protocol message (body only; the header is
// handled by Encode/Decode).
type Message interface {
	// Type returns the wire message type.
	Type() MsgType
	// encode appends the body's wire form.
	encode(b []byte) []byte
	// decode parses the body.
	decode(data []byte) error
}

// Encode serialises a full message with the given transaction id.
func Encode(m Message, xid uint32) []byte {
	body := m.encode(make([]byte, 0, 64))
	buf := make([]byte, HeaderLen, HeaderLen+len(body))
	buf[0] = Version
	buf[1] = byte(m.Type())
	binary.BigEndian.PutUint16(buf[2:4], uint16(HeaderLen+len(body)))
	binary.BigEndian.PutUint32(buf[4:8], xid)
	return append(buf, body...)
}

// Decode parses one complete message from data (which must contain
// exactly one message's bytes).
func Decode(data []byte) (Message, uint32, error) {
	if len(data) < HeaderLen {
		return nil, 0, ErrTruncated
	}
	if data[0] != Version {
		return nil, 0, ErrBadVersion
	}
	length := int(binary.BigEndian.Uint16(data[2:4]))
	if length < HeaderLen || length > len(data) {
		return nil, 0, ErrBadLength
	}
	xid := binary.BigEndian.Uint32(data[4:8])
	m := newMessage(MsgType(data[1]))
	if m == nil {
		return nil, xid, fmt.Errorf("openflow: unsupported message type %d", data[1])
	}
	if err := m.decode(data[HeaderLen:length]); err != nil {
		return nil, xid, err
	}
	return m, xid, nil
}

func newMessage(t MsgType) Message {
	switch t {
	case TypeHello:
		return &Hello{}
	case TypeError:
		return &Error{}
	case TypeEchoRequest:
		return &EchoRequest{}
	case TypeEchoReply:
		return &EchoReply{}
	case TypeFeaturesRequest:
		return &FeaturesRequest{}
	case TypeFeaturesReply:
		return &FeaturesReply{}
	case TypeSetConfig:
		return &SetConfig{}
	case TypePacketIn:
		return &PacketIn{}
	case TypeFlowRemoved:
		return &FlowRemoved{}
	case TypePortStatus:
		return &PortStatus{}
	case TypePacketOut:
		return &PacketOut{}
	case TypeFlowMod:
		return &FlowMod{}
	case TypeStatsRequest:
		return &StatsRequest{}
	case TypeStatsReply:
		return &StatsReply{}
	case TypeBarrierRequest:
		return &BarrierRequest{}
	case TypeBarrierReply:
		return &BarrierReply{}
	}
	return nil
}

// ---- simple messages ----

// Hello is OFPT_HELLO.
type Hello struct{}

// Type implements Message.
func (*Hello) Type() MsgType          { return TypeHello }
func (*Hello) encode(b []byte) []byte { return b }
func (*Hello) decode([]byte) error    { return nil }

// EchoRequest is OFPT_ECHO_REQUEST with an arbitrary payload.
type EchoRequest struct{ Data []byte }

// Type implements Message.
func (*EchoRequest) Type() MsgType            { return TypeEchoRequest }
func (m *EchoRequest) encode(b []byte) []byte { return append(b, m.Data...) }
func (m *EchoRequest) decode(d []byte) error  { m.Data = append([]byte(nil), d...); return nil }

// EchoReply is OFPT_ECHO_REPLY echoing the request payload.
type EchoReply struct{ Data []byte }

// Type implements Message.
func (*EchoReply) Type() MsgType            { return TypeEchoReply }
func (m *EchoReply) encode(b []byte) []byte { return append(b, m.Data...) }
func (m *EchoReply) decode(d []byte) error  { m.Data = append([]byte(nil), d...); return nil }

// BarrierRequest is OFPT_BARRIER_REQUEST.
type BarrierRequest struct{}

// Type implements Message.
func (*BarrierRequest) Type() MsgType          { return TypeBarrierRequest }
func (*BarrierRequest) encode(b []byte) []byte { return b }
func (*BarrierRequest) decode([]byte) error    { return nil }

// BarrierReply is OFPT_BARRIER_REPLY.
type BarrierReply struct{}

// Type implements Message.
func (*BarrierReply) Type() MsgType          { return TypeBarrierReply }
func (*BarrierReply) encode(b []byte) []byte { return b }
func (*BarrierReply) decode([]byte) error    { return nil }

// FeaturesRequest is OFPT_FEATURES_REQUEST.
type FeaturesRequest struct{}

// Type implements Message.
func (*FeaturesRequest) Type() MsgType          { return TypeFeaturesRequest }
func (*FeaturesRequest) encode(b []byte) []byte { return b }
func (*FeaturesRequest) decode([]byte) error    { return nil }

// Error is OFPT_ERROR.
type Error struct {
	ErrType uint16
	Code    uint16
	Data    []byte
}

// Type implements Message.
func (*Error) Type() MsgType { return TypeError }
func (m *Error) encode(b []byte) []byte {
	b = be16(b, m.ErrType)
	b = be16(b, m.Code)
	return append(b, m.Data...)
}
func (m *Error) decode(d []byte) error {
	if len(d) < 4 {
		return ErrTruncated
	}
	m.ErrType = binary.BigEndian.Uint16(d[0:2])
	m.Code = binary.BigEndian.Uint16(d[2:4])
	m.Data = append([]byte(nil), d[4:]...)
	return nil
}

// SetConfig is OFPT_SET_CONFIG.
type SetConfig struct {
	Flags       uint16
	MissSendLen uint16
}

// Type implements Message.
func (*SetConfig) Type() MsgType { return TypeSetConfig }
func (m *SetConfig) encode(b []byte) []byte {
	b = be16(b, m.Flags)
	return be16(b, m.MissSendLen)
}
func (m *SetConfig) decode(d []byte) error {
	if len(d) < 4 {
		return ErrTruncated
	}
	m.Flags = binary.BigEndian.Uint16(d[0:2])
	m.MissSendLen = binary.BigEndian.Uint16(d[2:4])
	return nil
}

// PhyPort is ofp_phy_port (48 bytes).
type PhyPort struct {
	No     uint16
	HWAddr packet.MAC
	Name   string // up to 15 bytes
	Config uint32
	State  uint32
	Curr   uint32
}

const phyPortLen = 48

func (p *PhyPort) encode(b []byte) []byte {
	b = be16(b, p.No)
	b = append(b, p.HWAddr[:]...)
	name := make([]byte, 16)
	copy(name, p.Name)
	b = append(b, name...)
	b = be32(b, p.Config)
	b = be32(b, p.State)
	b = be32(b, p.Curr)
	// advertised, supported, peer: zero
	return append(b, make([]byte, 12)...)
}

func (p *PhyPort) decode(d []byte) error {
	if len(d) < phyPortLen {
		return ErrTruncated
	}
	p.No = binary.BigEndian.Uint16(d[0:2])
	copy(p.HWAddr[:], d[2:8])
	name := d[8:24]
	for i, c := range name {
		if c == 0 {
			name = name[:i]
			break
		}
	}
	p.Name = string(name)
	p.Config = binary.BigEndian.Uint32(d[24:28])
	p.State = binary.BigEndian.Uint32(d[28:32])
	p.Curr = binary.BigEndian.Uint32(d[32:36])
	return nil
}

// FeaturesReply is OFPT_FEATURES_REPLY.
type FeaturesReply struct {
	DatapathID   uint64
	NBuffers     uint32
	NTables      uint8
	Capabilities uint32
	Actions      uint32
	Ports        []PhyPort
}

// Type implements Message.
func (*FeaturesReply) Type() MsgType { return TypeFeaturesReply }
func (m *FeaturesReply) encode(b []byte) []byte {
	b = be64(b, m.DatapathID)
	b = be32(b, m.NBuffers)
	b = append(b, m.NTables, 0, 0, 0)
	b = be32(b, m.Capabilities)
	b = be32(b, m.Actions)
	for i := range m.Ports {
		b = m.Ports[i].encode(b)
	}
	return b
}
func (m *FeaturesReply) decode(d []byte) error {
	if len(d) < 24 {
		return ErrTruncated
	}
	m.DatapathID = binary.BigEndian.Uint64(d[0:8])
	m.NBuffers = binary.BigEndian.Uint32(d[8:12])
	m.NTables = d[12]
	m.Capabilities = binary.BigEndian.Uint32(d[16:20])
	m.Actions = binary.BigEndian.Uint32(d[20:24])
	m.Ports = nil
	for rest := d[24:]; len(rest) >= phyPortLen; rest = rest[phyPortLen:] {
		var p PhyPort
		if err := p.decode(rest); err != nil {
			return err
		}
		m.Ports = append(m.Ports, p)
	}
	return nil
}

// PacketIn is OFPT_PACKET_IN.
type PacketIn struct {
	BufferID uint32
	TotalLen uint16
	InPort   uint16
	Reason   uint8
	Data     []byte
}

// Type implements Message.
func (*PacketIn) Type() MsgType { return TypePacketIn }
func (m *PacketIn) encode(b []byte) []byte {
	b = be32(b, m.BufferID)
	b = be16(b, m.TotalLen)
	b = be16(b, m.InPort)
	b = append(b, m.Reason, 0)
	return append(b, m.Data...)
}
func (m *PacketIn) decode(d []byte) error {
	if len(d) < 10 {
		return ErrTruncated
	}
	m.BufferID = binary.BigEndian.Uint32(d[0:4])
	m.TotalLen = binary.BigEndian.Uint16(d[4:6])
	m.InPort = binary.BigEndian.Uint16(d[6:8])
	m.Reason = d[8]
	m.Data = append([]byte(nil), d[10:]...)
	return nil
}

// PacketOut is OFPT_PACKET_OUT.
type PacketOut struct {
	BufferID uint32
	InPort   uint16
	Actions  []Action
	Data     []byte
}

// Type implements Message.
func (*PacketOut) Type() MsgType { return TypePacketOut }
func (m *PacketOut) encode(b []byte) []byte {
	acts := encodeActions(m.Actions)
	b = be32(b, m.BufferID)
	b = be16(b, m.InPort)
	b = be16(b, uint16(len(acts)))
	b = append(b, acts...)
	return append(b, m.Data...)
}
func (m *PacketOut) decode(d []byte) error {
	if len(d) < 8 {
		return ErrTruncated
	}
	m.BufferID = binary.BigEndian.Uint32(d[0:4])
	m.InPort = binary.BigEndian.Uint16(d[4:6])
	actLen := int(binary.BigEndian.Uint16(d[6:8]))
	if len(d) < 8+actLen {
		return ErrTruncated
	}
	var err error
	m.Actions, err = decodeActions(d[8 : 8+actLen])
	if err != nil {
		return err
	}
	m.Data = append([]byte(nil), d[8+actLen:]...)
	return nil
}

// FlowMod is OFPT_FLOW_MOD.
type FlowMod struct {
	Match       Match
	Cookie      uint64
	Command     uint16
	IdleTimeout uint16
	HardTimeout uint16
	Priority    uint16
	BufferID    uint32
	OutPort     uint16
	Flags       uint16
	Actions     []Action
}

// Type implements Message.
func (*FlowMod) Type() MsgType { return TypeFlowMod }
func (m *FlowMod) encode(b []byte) []byte {
	b = m.Match.encode(b)
	b = be64(b, m.Cookie)
	b = be16(b, m.Command)
	b = be16(b, m.IdleTimeout)
	b = be16(b, m.HardTimeout)
	b = be16(b, m.Priority)
	b = be32(b, m.BufferID)
	b = be16(b, m.OutPort)
	b = be16(b, m.Flags)
	return append(b, encodeActions(m.Actions)...)
}
func (m *FlowMod) decode(d []byte) error {
	if len(d) < matchLen+24 {
		return ErrTruncated
	}
	if err := m.Match.decode(d); err != nil {
		return err
	}
	d = d[matchLen:]
	m.Cookie = binary.BigEndian.Uint64(d[0:8])
	m.Command = binary.BigEndian.Uint16(d[8:10])
	m.IdleTimeout = binary.BigEndian.Uint16(d[10:12])
	m.HardTimeout = binary.BigEndian.Uint16(d[12:14])
	m.Priority = binary.BigEndian.Uint16(d[14:16])
	m.BufferID = binary.BigEndian.Uint32(d[16:20])
	m.OutPort = binary.BigEndian.Uint16(d[20:22])
	m.Flags = binary.BigEndian.Uint16(d[22:24])
	var err error
	m.Actions, err = decodeActions(d[24:])
	return err
}

// FlowRemoved is OFPT_FLOW_REMOVED.
type FlowRemoved struct {
	Match        Match
	Cookie       uint64
	Priority     uint16
	Reason       uint8
	DurationSec  uint32
	DurationNsec uint32
	IdleTimeout  uint16
	PacketCount  uint64
	ByteCount    uint64
}

// Type implements Message.
func (*FlowRemoved) Type() MsgType { return TypeFlowRemoved }
func (m *FlowRemoved) encode(b []byte) []byte {
	b = m.Match.encode(b)
	b = be64(b, m.Cookie)
	b = be16(b, m.Priority)
	b = append(b, m.Reason, 0)
	b = be32(b, m.DurationSec)
	b = be32(b, m.DurationNsec)
	b = be16(b, m.IdleTimeout)
	b = append(b, 0, 0)
	b = be64(b, m.PacketCount)
	return be64(b, m.ByteCount)
}
func (m *FlowRemoved) decode(d []byte) error {
	if len(d) < matchLen+40 {
		return ErrTruncated
	}
	if err := m.Match.decode(d); err != nil {
		return err
	}
	d = d[matchLen:]
	m.Cookie = binary.BigEndian.Uint64(d[0:8])
	m.Priority = binary.BigEndian.Uint16(d[8:10])
	m.Reason = d[10]
	m.DurationSec = binary.BigEndian.Uint32(d[12:16])
	m.DurationNsec = binary.BigEndian.Uint32(d[16:20])
	m.IdleTimeout = binary.BigEndian.Uint16(d[20:22])
	m.PacketCount = binary.BigEndian.Uint64(d[24:32])
	m.ByteCount = binary.BigEndian.Uint64(d[32:40])
	return nil
}

// PortStatus is OFPT_PORT_STATUS.
type PortStatus struct {
	Reason uint8
	Desc   PhyPort
}

// Type implements Message.
func (*PortStatus) Type() MsgType { return TypePortStatus }
func (m *PortStatus) encode(b []byte) []byte {
	b = append(b, m.Reason, 0, 0, 0, 0, 0, 0, 0)
	return m.Desc.encode(b)
}
func (m *PortStatus) decode(d []byte) error {
	if len(d) < 8+phyPortLen {
		return ErrTruncated
	}
	m.Reason = d[0]
	return m.Desc.decode(d[8:])
}

func be16(b []byte, v uint16) []byte { return append(b, byte(v>>8), byte(v)) }
func be32(b []byte, v uint32) []byte {
	return append(b, byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}
func be64(b []byte, v uint64) []byte {
	return append(b, byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}
