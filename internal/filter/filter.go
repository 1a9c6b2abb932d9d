// Package filter implements the OSNT monitor's hardware packet filters:
// an ordered, TCAM-style table of wildcard rules evaluated first-match
// against each arriving frame. A rule can match on maskable Ethernet
// addresses, EtherType, IPv4 prefixes, protocol and port ranges, or on a
// raw value/mask pattern over the first bytes of the frame — the two
// match styles real TCAM pipelines provide.
package filter

import (
	"fmt"
	"strings"

	"osnt/internal/packet"
)

// Action is a rule's verdict.
type Action uint8

// Verdicts. Capture sends the packet up the host path; Drop discards it
// at the filter stage.
const (
	Capture Action = iota
	Drop
)

// String names the action.
func (a Action) String() string {
	if a == Drop {
		return "drop"
	}
	return "capture"
}

// Rule is one TCAM entry. Zero-valued fields are wildcards. The rule
// matches when every specified field matches.
type Rule struct {
	Name   string
	Action Action

	// Link layer. A zero mask byte wildcards the corresponding address
	// byte; an all-0xff mask is an exact match.
	DstMAC, DstMACMask packet.MAC
	SrcMAC, SrcMACMask packet.MAC
	EtherType          uint16 // 0 = any
	VLANID             uint16 // 0 = any; matches the 802.1Q VID
	MatchVLAN          bool   // require a VLAN tag to be present

	// IPv4. PrefixLen 0 = any.
	SrcIP        packet.IP4
	SrcPrefixLen int
	DstIP        packet.IP4
	DstPrefixLen int
	Proto        byte // 0 = any

	// Transport ports, inclusive ranges. Max 0 = any.
	SrcPortMin, SrcPortMax uint16
	DstPortMin, DstPortMax uint16

	// Raw value/mask match over the first len(RawValue) bytes of the
	// frame. RawMask must be the same length as RawValue; a zero mask
	// byte wildcards that byte. Raw matching composes with the typed
	// fields above.
	RawValue, RawMask []byte

	// SnapLen overrides the monitor's thinning length for packets
	// accepted by this rule (0 = monitor default). This reproduces
	// OSNT's per-filter packet-cutting configuration.
	SnapLen int

	// PinQueue steers packets accepted by this rule to capture queue
	// PinQueue-1, overriding the monitor's steering policy — the
	// rule-based queue steering ("flow director") of multi-queue NICs.
	// 0 is no pin; the monitor rejects pins beyond its queue count.
	PinQueue int
}

// Validate reports configuration errors a hardware driver would reject.
func (r *Rule) Validate() error {
	if len(r.RawValue) != len(r.RawMask) {
		return fmt.Errorf("filter: raw value/mask length mismatch (%d vs %d)", len(r.RawValue), len(r.RawMask))
	}
	if r.SrcPrefixLen < 0 || r.SrcPrefixLen > 32 || r.DstPrefixLen < 0 || r.DstPrefixLen > 32 {
		return fmt.Errorf("filter: prefix length out of range")
	}
	if r.SrcPortMax != 0 && r.SrcPortMin > r.SrcPortMax {
		return fmt.Errorf("filter: src port range inverted")
	}
	if r.DstPortMax != 0 && r.DstPortMin > r.DstPortMax {
		return fmt.Errorf("filter: dst port range inverted")
	}
	if r.SnapLen < 0 {
		return fmt.Errorf("filter: negative snap length")
	}
	if r.PinQueue < 0 {
		return fmt.Errorf("filter: negative queue pin")
	}
	return nil
}

// String gives a compact one-line description.
func (r *Rule) String() string {
	var parts []string
	if r.EtherType != 0 {
		parts = append(parts, fmt.Sprintf("eth=%#04x", r.EtherType))
	}
	if r.Proto != 0 {
		parts = append(parts, fmt.Sprintf("proto=%d", r.Proto))
	}
	if r.SrcPrefixLen > 0 {
		parts = append(parts, fmt.Sprintf("src=%s/%d", r.SrcIP, r.SrcPrefixLen))
	}
	if r.DstPrefixLen > 0 {
		parts = append(parts, fmt.Sprintf("dst=%s/%d", r.DstIP, r.DstPrefixLen))
	}
	if r.DstPortMax != 0 {
		parts = append(parts, fmt.Sprintf("dport=%d-%d", r.DstPortMin, r.DstPortMax))
	}
	if r.SrcPortMax != 0 {
		parts = append(parts, fmt.Sprintf("sport=%d-%d", r.SrcPortMin, r.SrcPortMax))
	}
	if len(r.RawValue) > 0 {
		parts = append(parts, fmt.Sprintf("raw[%dB]", len(r.RawValue)))
	}
	if len(parts) == 0 {
		parts = append(parts, "any")
	}
	return fmt.Sprintf("%s(%s)->%s", r.Name, strings.Join(parts, ","), r.Action)
}

// Table is an ordered rule list with per-rule hit counters. The zero
// value is an empty table whose Match returns the default action.
type Table struct {
	rules []*Rule
	hits  []uint64
	// DefaultAction applies when no rule matches. The OSNT monitor's
	// default is to capture everything (filters opt traffic out).
	DefaultAction Action
	defaultHits   uint64
}

// NewTable returns an empty table with the given default action.
func NewTable(def Action) *Table { return &Table{DefaultAction: def} }

// Append adds a rule at the lowest priority (end of the table).
func (t *Table) Append(r *Rule) error {
	if err := r.Validate(); err != nil {
		return err
	}
	t.rules = append(t.rules, r)
	t.hits = append(t.hits, 0)
	return nil
}

// Len returns the number of installed rules.
func (t *Table) Len() int { return len(t.rules) }

// Hits returns the hit counter of rule i.
func (t *Table) Hits(i int) uint64 { return t.hits[i] }

// DefaultHits returns how many packets fell through to the default
// action.
func (t *Table) DefaultHits() uint64 { return t.defaultHits }

// Rule returns rule i.
func (t *Table) Rule(i int) *Rule { return t.rules[i] }

// Match evaluates the frame against the table in order and returns the
// verdict, the matching rule index (-1 for the default action), and the
// effective snap length override (0 if none).
func (t *Table) Match(data []byte) (Action, int, int) {
	var pp parsed
	pp.parse(data)
	for i, r := range t.rules {
		if ruleMatches(r, data, &pp) {
			t.hits[i]++
			return r.Action, i, r.SnapLen
		}
	}
	t.defaultHits++
	return t.DefaultAction, -1, 0
}

// parsed caches the fields Match needs so each rule check is cheap.
type parsed struct {
	ok      bool // Ethernet header present
	ethDst  packet.MAC
	ethSrc  packet.MAC
	ethType uint16
	hasVLAN bool
	vlanID  uint16
	isIPv4  bool
	srcIP   packet.IP4
	dstIP   packet.IP4
	proto   byte
	hasL4   bool
	srcPort uint16
	dstPort uint16
}

func (p *parsed) parse(data []byte) {
	if len(data) < packet.EthernetHeaderLen {
		return
	}
	p.ok = true
	copy(p.ethDst[:], data[0:6])
	copy(p.ethSrc[:], data[6:12])
	p.ethType = uint16(data[12])<<8 | uint16(data[13])
	off := packet.EthernetHeaderLen
	if p.ethType == packet.EtherTypeVLAN && len(data) >= off+4 {
		p.hasVLAN = true
		p.vlanID = (uint16(data[off])<<8 | uint16(data[off+1])) & 0x0fff
		p.ethType = uint16(data[off+2])<<8 | uint16(data[off+3])
		off += 4
	}
	if p.ethType != packet.EtherTypeIPv4 || len(data) < off+packet.IPv4MinLen {
		return
	}
	ip := data[off:]
	ihl := int(ip[0]&0x0f) * 4
	if ip[0]>>4 != 4 || ihl < packet.IPv4MinLen || len(ip) < ihl {
		return
	}
	p.isIPv4 = true
	copy(p.srcIP[:], ip[12:16])
	copy(p.dstIP[:], ip[16:20])
	p.proto = ip[9]
	if (p.proto == packet.ProtoTCP || p.proto == packet.ProtoUDP) &&
		(uint16(ip[6])<<8|uint16(ip[7]))&0x1fff == 0 && len(ip) >= ihl+4 {
		p.hasL4 = true
		p.srcPort = uint16(ip[ihl])<<8 | uint16(ip[ihl+1])
		p.dstPort = uint16(ip[ihl+2])<<8 | uint16(ip[ihl+3])
	}
}

func ruleMatches(r *Rule, data []byte, p *parsed) bool {
	// Raw value/mask first: it applies regardless of parseability.
	for i := range r.RawValue {
		if i >= len(data) {
			return false
		}
		if data[i]&r.RawMask[i] != r.RawValue[i]&r.RawMask[i] {
			return false
		}
	}
	if !p.ok {
		// Non-Ethernet-parseable frames match only pure-raw rules.
		return !typedFieldsSet(r)
	}
	if !macMatches(p.ethDst, r.DstMAC, r.DstMACMask) {
		return false
	}
	if !macMatches(p.ethSrc, r.SrcMAC, r.SrcMACMask) {
		return false
	}
	if r.MatchVLAN && !p.hasVLAN {
		return false
	}
	if r.VLANID != 0 && (!p.hasVLAN || p.vlanID != r.VLANID) {
		return false
	}
	if r.EtherType != 0 && p.ethType != r.EtherType {
		return false
	}
	ipNeeded := r.SrcPrefixLen > 0 || r.DstPrefixLen > 0 || r.Proto != 0 ||
		r.SrcPortMax != 0 || r.DstPortMax != 0
	if !ipNeeded {
		return true
	}
	if !p.isIPv4 {
		return false
	}
	if r.Proto != 0 && p.proto != r.Proto {
		return false
	}
	if r.SrcPrefixLen > 0 && !prefixMatches(p.srcIP, r.SrcIP, r.SrcPrefixLen) {
		return false
	}
	if r.DstPrefixLen > 0 && !prefixMatches(p.dstIP, r.DstIP, r.DstPrefixLen) {
		return false
	}
	if r.SrcPortMax != 0 {
		if !p.hasL4 || p.srcPort < r.SrcPortMin || p.srcPort > r.SrcPortMax {
			return false
		}
	}
	if r.DstPortMax != 0 {
		if !p.hasL4 || p.dstPort < r.DstPortMin || p.dstPort > r.DstPortMax {
			return false
		}
	}
	return true
}

func typedFieldsSet(r *Rule) bool {
	return r.DstMACMask != (packet.MAC{}) || r.SrcMACMask != (packet.MAC{}) ||
		r.EtherType != 0 || r.VLANID != 0 || r.MatchVLAN ||
		r.SrcPrefixLen > 0 || r.DstPrefixLen > 0 || r.Proto != 0 ||
		r.SrcPortMax != 0 || r.DstPortMax != 0
}

func macMatches(got, want, mask packet.MAC) bool {
	for i := 0; i < 6; i++ {
		if got[i]&mask[i] != want[i]&mask[i] {
			return false
		}
	}
	return true
}

func prefixMatches(got, want packet.IP4, plen int) bool {
	if plen <= 0 {
		return true
	}
	if plen > 32 {
		plen = 32
	}
	mask := ^uint32(0) << uint(32-plen)
	return got.Uint32()&mask == want.Uint32()&mask
}
