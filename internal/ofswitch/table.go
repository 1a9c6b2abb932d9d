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

// FlowTable is a priority-ordered OpenFlow 1.0 table with an optional
// exact-match hash fast path: the linear-scan-vs-hash ablation that
// BenchmarkLookupLinear64Rules and BenchmarkLookupExactPath64Rules
// compare. docs/ARCHITECTURE.md places ofswitch among the devices
// under test.
type FlowTable struct {
	// entries sorted by descending priority; stable insertion order
	// within equal priority.
	entries []*Entry
	// exact indexes exact-match entries by key when the fast path is on.
	exact map[openflow.Key]*Entry

	Cap          int
	UseExactPath bool

	lookups uint64
	hits    uint64
}

// NewFlowTable builds a table bounded to cap entries (0 = 65536).
func NewFlowTable(cap int, exactPath bool) *FlowTable {
	if cap == 0 {
		cap = 65536
	}
	t := &FlowTable{Cap: cap, UseExactPath: exactPath}
	if exactPath {
		t.exact = make(map[openflow.Key]*Entry)
	}
	return t
}

// Len returns the number of installed entries.
func (t *FlowTable) Len() int { return len(t.entries) }

// Entries returns the entries in match order (highest priority first).
func (t *FlowTable) Entries() []*Entry { return t.entries }

// Stats returns lookup and hit counters.
func (t *FlowTable) Stats() (lookups, hits uint64) { return t.lookups, t.hits }

// Lookup returns the highest-priority entry covering the key, or nil.
func (t *FlowTable) Lookup(k *openflow.Key) *Entry {
	t.lookups++
	if t.UseExactPath {
		if e, ok := t.exact[*k]; ok {
			// A wildcard entry with strictly higher priority could still
			// shadow the exact entry; check the prefix of the scan.
			best := e
			for _, cand := range t.entries {
				if cand.Priority <= best.Priority {
					break
				}
				if cand.Match.Covers(k) {
					best = cand
					break
				}
			}
			t.hits++
			return best
		}
	}
	for _, e := range t.entries {
		if e.Match.Covers(k) {
			t.hits++
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
			t.reindex(old, e)
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
	if t.exact != nil && e.Match.Exact() {
		t.exact[e.Match.ExactKey()] = e
	}
	return true
}

func (t *FlowTable) reindex(old, new *Entry) {
	if t.exact == nil {
		return
	}
	if old.Match.Exact() {
		delete(t.exact, old.Match.ExactKey())
	}
	if new != nil && new.Match.Exact() {
		t.exact[new.Match.ExactKey()] = new
	}
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
			t.reindex(e, nil)
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
			t.reindex(e, nil)
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
