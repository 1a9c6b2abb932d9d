// Package ofswitch simulates a production OpenFlow 1.0 switch — the
// device under test of the demo's Part II. It combines a hardware
// dataplane (flow table lookup at line rate, bounded egress queues) with
// the slow control-plane path that OFLOPS-turbo measures: a serial
// management CPU that processes protocol messages, and a hardware-install
// lag between a FLOW_MOD's control-plane acknowledgement and the instant
// the dataplane actually applies it. That lag is what makes "forwarding
// consistency during large flow table updates" a measurable phenomenon.
package ofswitch

import (
	"sort"

	"osnt/internal/openflow"
	"osnt/internal/sim"
)

// Entry is one installed flow.
type Entry struct {
	Match       openflow.Match
	Priority    uint16
	Cookie      uint64
	Actions     []openflow.Action
	IdleTimeout uint16
	HardTimeout uint16
	Flags       uint16

	InstalledAt sim.Time
	LastUsed    sim.Time
	Packets     uint64
	Bytes       uint64
}

// FlowTable is a priority-ordered OpenFlow 1.0 table, searched by a
// linear scan in match order.
type FlowTable struct {
	// entries sorted by descending priority; stable insertion order
	// within equal priority.
	entries []*Entry

	Cap int
}

// NewFlowTable builds a table bounded to cap entries.
func NewFlowTable(cap int) *FlowTable { return &FlowTable{Cap: cap} }

// Len returns the number of installed entries.
func (t *FlowTable) Len() int { return len(t.entries) }

// Entries returns the entries in match order (highest priority first).
func (t *FlowTable) Entries() []*Entry { return t.entries }

// Lookup returns the highest-priority entry covering the key, or nil.
func (t *FlowTable) Lookup(k *openflow.Key) *Entry {
	for _, e := range t.entries {
		if e.Match.Covers(k) {
			return e
		}
	}
	return nil
}

// Add installs an entry following OFPFC_ADD semantics: an entry with an
// identical match and priority is replaced (counters reset). It reports
// false when the table is full.
func (t *FlowTable) Add(e *Entry) bool {
	for i, old := range t.entries {
		if old.Priority == e.Priority && old.Match == e.Match {
			t.entries[i] = e
			return true
		}
	}
	if len(t.entries) >= t.Cap {
		return false
	}
	t.entries = append(t.entries, e)
	// Stable sort keeps insertion order among equal priorities.
	sort.SliceStable(t.entries, func(i, j int) bool {
		return t.entries[i].Priority > t.entries[j].Priority
	})
	return true
}

// Modify updates the actions of matching entries (OFPFC_MODIFY
// semantics: non-strict subsumption match; strict requires equal match
// and priority). It returns the number of entries changed; when none
// match and the command is a modify, the spec says act as an add — the
// caller handles that.
func (t *FlowTable) Modify(m openflow.Match, priority uint16, actions []openflow.Action, strict bool) int {
	n := 0
	for _, e := range t.entries {
		if strict {
			if e.Priority != priority || e.Match != m {
				continue
			}
		} else if !m.Subsumes(&e.Match) {
			continue
		}
		e.Actions = actions
		n++
	}
	return n
}

// Delete removes matching entries (strict or non-strict per OF 1.0) and
// returns them (so the control plane can emit FLOW_REMOVED).
func (t *FlowTable) Delete(m openflow.Match, priority uint16, outPort uint16, strict bool) []*Entry {
	var removed []*Entry
	keep := t.entries[:0]
	for _, e := range t.entries {
		match := false
		if strict {
			match = e.Priority == priority && e.Match == m
		} else {
			match = m.Subsumes(&e.Match)
		}
		if match && outPort != openflow.PortNone {
			match = outputsTo(e.Actions, outPort)
		}
		if match {
			removed = append(removed, e)
		} else {
			keep = append(keep, e)
		}
	}
	// Zero the tail so removed entries do not linger in the backing
	// array.
	for i := len(keep); i < len(t.entries); i++ {
		t.entries[i] = nil
	}
	t.entries = keep
	return removed
}

// Expired collects entries whose idle or hard timeout has elapsed at
// instant now, removing them from the table.
func (t *FlowTable) Expired(now sim.Time) []*Entry {
	var out []*Entry
	keep := t.entries[:0]
	for _, e := range t.entries {
		hard := e.HardTimeout > 0 &&
			now.Sub(e.InstalledAt) >= sim.Duration(e.HardTimeout)*sim.Second
		idle := e.IdleTimeout > 0 &&
			now.Sub(e.LastUsed) >= sim.Duration(e.IdleTimeout)*sim.Second
		if hard || idle {
			out = append(out, e)
		} else {
			keep = append(keep, e)
		}
	}
	for i := len(keep); i < len(t.entries); i++ {
		t.entries[i] = nil
	}
	t.entries = keep
	return out
}

func outputsTo(actions []openflow.Action, port uint16) bool {
	for _, a := range actions {
		if out, ok := a.(*openflow.ActionOutput); ok && out.Port == port {
			return true
		}
	}
	return false
}
