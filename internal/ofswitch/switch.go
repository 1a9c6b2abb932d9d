package ofswitch

import (
	"fmt"

	"osnt/internal/openflow"
	"osnt/internal/sim"
	"osnt/internal/stats"
	"osnt/internal/wire"
)

// Config parameterises a simulated OpenFlow switch.
type Config struct {
	// Ports is the dataplane port count (default 4). OpenFlow port
	// numbers are 1-based: port index i is OF port i+1.
	Ports int
	// Rate is the per-port line rate (default 10 Gb/s).
	Rate wire.Rate
	// DatapathID identifies the switch in FEATURES_REPLY.
	DatapathID uint64

	// PipelineLatency is the fixed dataplane forwarding delay (default
	// 600 ns).
	PipelineLatency sim.Duration
	// EgressQueueCap bounds each output queue in packets (default 512).
	EgressQueueCap int

	// HWInstallDelay is the lag between control-plane completion of a
	// FLOW_MOD and the dataplane actually applying it (default 1.5 ms,
	// the TCAM-write asynchrony OFLOPS exposed).
	HWInstallDelay sim.Duration
	// DataplaneCPUTax is management CPU time consumed per forwarded
	// packet (counter maintenance etc., default 0: ideal hardware).
	// Non-zero values reproduce control-plane starvation under
	// dataplane load (experiment E8).
	DataplaneCPUTax sim.Duration
}

// The switch's fixed figures: its table size and the control-plane
// cost model of the era's firmware.
const (
	// tableCap bounds the flow table, a typical hardware TCAM size.
	tableCap = 4096
	// ctrlLatency is the one-way control channel latency (a
	// management-network RTT of 200 µs).
	ctrlLatency = 100 * sim.Microsecond
	// flowModCost is the management CPU time to process one FLOW_MOD
	// (firmware parsing, validation, the call into the ASIC SDK).
	flowModCost = 150 * sim.Microsecond
	// flowModPerEntry adds table-scan cost per existing entry: large
	// tables make modifications slower.
	flowModPerEntry = 30 * sim.Nanosecond
	// barrierCost is the CPU time to process a BARRIER_REQUEST.
	barrierCost = 20 * sim.Microsecond
	// echoCost is the CPU time to answer an ECHO_REQUEST.
	echoCost = 5 * sim.Microsecond
	// packetInCost is the slow-path CPU time per table-miss packet.
	packetInCost = 80 * sim.Microsecond
	// cpuBacklogCap bounds the CPU work backlog: tax beyond it is shed,
	// protocol messages queue regardless.
	cpuBacklogCap = 20 * sim.Millisecond
	// defaultMissSendLen is the packet prefix sent in PACKET_IN until a
	// SET_CONFIG changes it.
	defaultMissSendLen = 128
	// expirySweep is the flow-timeout sweep period.
	expirySweep = 500 * sim.Millisecond
)

func (c *Config) fill() {
	if c.Ports == 0 {
		c.Ports = 4
	}
	if c.Rate == 0 {
		c.Rate = wire.Rate10G
	}
	if c.PipelineLatency == 0 {
		c.PipelineLatency = 600 * sim.Nanosecond
	}
	if c.EgressQueueCap == 0 {
		c.EgressQueueCap = 512
	}
	if c.HWInstallDelay == 0 {
		c.HWInstallDelay = 1500 * sim.Microsecond
	}
}

// Switch is one simulated OpenFlow switch.
type Switch struct {
	Engine *sim.Engine

	cfg   Config
	ports []*Port

	// table is the dataplane's view. Control-plane changes land here
	// only after HWInstallDelay.
	table *FlowTable

	ctl *Controller // attached control channel, nil if none

	// Management CPU: a single serial server.
	cpuFreeAt sim.Time
	// missSendLen is the PACKET_IN prefix length; SET_CONFIG updates it.
	missSendLen    int
	sweepScheduled bool

	// Loss attribution: drop paths report (dropHop, reason) into the
	// scenario ledger when one is attached (topo threads it). Egress
	// overflows report through each port's Egress, which carries the
	// same site.
	ledger  *wire.DropLedger
	dropHop int
}

// SetDropSite attaches the scenario's loss-attribution ledger; every
// dataplane drop path reports at the given hop ID.
func (s *Switch) SetDropSite(ledger *wire.DropLedger, hop int) {
	s.ledger, s.dropHop = ledger, hop
	for _, p := range s.ports {
		p.mac.SetDropSite(ledger, hop)
	}
}

// New builds a switch on the engine.
func New(e *sim.Engine, cfg Config) *Switch {
	cfg.fill()
	s := &Switch{
		Engine:      e,
		cfg:         cfg,
		table:       NewFlowTable(tableCap),
		missSendLen: defaultMissSendLen,
	}
	for i := 0; i < cfg.Ports; i++ {
		p := &Port{sw: s, index: i}
		p.mac.Init(e, cfg.EgressQueueCap, p)
		s.ports = append(s.ports, p)
	}
	return s
}

// NumPorts returns the dataplane port count.
func (s *Switch) NumPorts() int { return len(s.ports) }

// Rate returns the per-port line rate.
func (s *Switch) Rate() wire.Rate { return s.cfg.Rate }

// Port returns port index i (OF port i+1).
func (s *Switch) Port(i int) *Port { return s.ports[i] }

// Table exposes the dataplane flow table (read-mostly; tests inspect
// it).
func (s *Switch) Table() *FlowTable { return s.table }

// cpuRun enqueues cost on the serial management CPU and invokes fn when
// that work completes. It returns the completion instant.
func (s *Switch) cpuRun(cost sim.Duration, fn func()) sim.Time {
	now := s.Engine.Now()
	start := now
	if s.cpuFreeAt > start {
		start = s.cpuFreeAt
	}
	done := start.Add(cost)
	s.cpuFreeAt = done
	if fn != nil {
		s.Engine.Schedule(done, fn)
	}
	return done
}

// cpuTax consumes CPU without a completion callback, shedding work when
// the backlog exceeds the cap (dataplane counter work is best-effort;
// protocol work is not).
func (s *Switch) cpuTax(cost sim.Duration) {
	now := s.Engine.Now()
	if s.cpuFreeAt.Sub(now) > cpuBacklogCap {
		return
	}
	if s.cpuFreeAt < now {
		s.cpuFreeAt = now
	}
	s.cpuFreeAt = s.cpuFreeAt.Add(cost)
}

// ensureSweep keeps a timeout sweep pending for as long as any installed
// entry carries a timeout. Demand-driven scheduling keeps the event queue
// quiescent otherwise, so Engine.Run terminates on idle topologies.
func (s *Switch) ensureSweep() {
	if s.sweepScheduled {
		return
	}
	s.sweepScheduled = true
	s.Engine.ScheduleAfter(expirySweep, func() {
		s.sweepScheduled = false
		s.sweepExpired()
		for _, e := range s.table.Entries() {
			if e.IdleTimeout > 0 || e.HardTimeout > 0 {
				s.ensureSweep()
				return
			}
		}
	})
}

func (s *Switch) sweepExpired() {
	for _, e := range s.table.Expired(s.Engine.Now()) {
		if e.Flags&openflow.FlagSendFlowRem != 0 && s.ctl != nil {
			reason := openflow.RemovedIdleTimeout
			if e.HardTimeout > 0 {
				reason = openflow.RemovedHardTimeout
			}
			dur := s.Engine.Now().Sub(e.InstalledAt)
			s.ctl.fromSwitch(&openflow.FlowRemoved{
				Match: e.Match, Cookie: e.Cookie, Priority: e.Priority,
				Reason:      reason,
				DurationSec: uint32(dur / sim.Second), DurationNsec: uint32(dur % sim.Second / sim.Nanosecond),
				IdleTimeout: e.IdleTimeout,
				PacketCount: e.Packets, ByteCount: e.Bytes,
			}, 0)
		}
	}
}

// Port is one dataplane interface.
type Port struct {
	sw    *Switch
	index int

	// mac is the egress FIFO and the MAC draining it onto the link.
	mac wire.Egress

	rx stats.Counter
	tx stats.Counter
}

// OFPort returns the 1-based OpenFlow port number.
func (p *Port) OFPort() uint16 { return uint16(p.index + 1) }

// SetLink attaches the egress link.
func (p *Port) SetLink(l *wire.Link) { p.mac.SetLink(l) }

// RxStats and TxStats return the port counters (frame sizes, FCS
// inclusive).
func (p *Port) RxStats() stats.Counter { return p.rx }

// TxStats returns the transmit counters.
func (p *Port) TxStats() stats.Counter { return p.tx }

// Receive implements wire.Endpoint: dataplane packet arrival. A uniform
// train whose flow hits the table with a single concrete output and an
// idle egress port crosses the dataplane as one lookup, one bulk counter
// update and one back-to-back transmission (coalesce); everything else —
// bare frames, misses, floods, rewrites, CPU-taxed dataplanes, busy
// egress — goes through the pipeline frame by frame with each frame's
// exact arrival instant.
func (p *Port) Receive(r wire.Run, firstBit, lastBit sim.Time) {
	if p.sw.coalesce(p, r, lastBit) {
		return
	}
	for w := r.Walk(firstBit, lastBit); w.Next(); {
		p.forward(w.Frame, w.LastBit)
	}
}

// forward runs one frame through the dataplane. The switch owns the
// frame: it is either forwarded onward (the egress link carries it to the
// next device) or released back to its pool on every drop path, so the
// dataplane stays allocation-free under load.
func (p *Port) forward(f *wire.Frame, at sim.Time) {
	p.rx.Add(f.Size)
	s := p.sw
	key, err := openflow.KeyFromPacket(f.Data, p.OFPort())
	if err != nil {
		s.ledger.Report(s.dropHop, wire.DropRunt, 1)
		f.Release()
		return // unparseable runt: dropped
	}
	if s.cfg.DataplaneCPUTax > 0 {
		s.cpuTax(s.cfg.DataplaneCPUTax)
	}
	entry := s.table.Lookup(&key)
	if entry == nil {
		if s.ctl == nil {
			s.ledger.Report(s.dropHop, wire.DropNoRule, 1)
			f.Release()
			return
		}
		// Slow path: the CPU builds a PACKET_IN from a copied prefix;
		// the frame itself goes no further.
		data := f.Data
		if len(data) > s.missSendLen {
			data = data[:s.missSendLen]
		}
		cp := make([]byte, len(data))
		copy(cp, data)
		total := uint16(len(f.Data))
		inPort := p.OFPort()
		f.Release()
		s.cpuRun(packetInCost, func() {
			s.ctl.fromSwitch(&openflow.PacketIn{
				BufferID: 0xffffffff, TotalLen: total, InPort: inPort,
				Reason: openflow.ReasonNoMatch, Data: cp,
			}, 0)
		})
		return
	}
	entry.Packets++
	entry.Bytes += uint64(f.Size)
	entry.LastUsed = at
	ready := at.Add(s.cfg.PipelineLatency)
	s.applyActions(entry.Actions, f, p, ready)
}

// coalesce attempts the coalesced dataplane pass for a run, reporting
// whether it consumed it; only a train qualifies. The guards guarantee
// per-frame equivalence: byte-identical frames share one flow key and
// verdict; an idle egress whose wire is no faster than the arrival
// spacing serialises the run back-to-back exactly as N per-frame pushes
// would; and a zero CPU tax means no per-frame management-CPU state to
// advance.
func (s *Switch) coalesce(p *Port, r wire.Run, at sim.Time) bool {
	t := r.Train()
	if t == nil || !t.Uniform || s.cfg.DataplaneCPUTax > 0 {
		return false
	}
	f0 := t.Frames[0]
	slot := wire.SerializationTime(f0.Size, t.Rate)
	if wire.SerializationTime(f0.Size, s.cfg.Rate) < slot {
		return false // faster egress wire opens inter-frame gaps
	}
	key, err := openflow.KeyFromPacket(f0.Data, p.OFPort())
	if err != nil {
		return false // runts drop per frame
	}
	entry := s.table.Lookup(&key)
	if entry == nil || len(entry.Actions) != 1 {
		return false
	}
	act, ok := entry.Actions[0].(*openflow.ActionOutput)
	if !ok || act.Port < 1 || int(act.Port) > len(s.ports) {
		return false
	}
	out := s.ports[act.Port-1]
	if out.mac.Link() == nil || !out.mac.Idle() {
		return false
	}

	n := len(t.Frames)
	size := f0.Size
	for range t.Frames {
		p.rx.Add(size)
	}
	entry.Packets += uint64(n)
	entry.Bytes += uint64(n) * uint64(size)
	entry.LastUsed = at.Add(sim.Duration(n-1) * slot) // last frame's arrival
	out.mac.Push(r, at.Add(s.cfg.PipelineLatency), wire.DropEgressOverflow)
	return true
}

// applyActions executes an OF 1.0 action list on a frame arriving on
// ingress in, with forwarding allowed from instant ready. The switch
// owns the frame: header rewrites mutate it in place, every consuming
// output before the last takes a clone of the working packet, and the
// last one carries the frame itself — so the common single-output path
// moves the packet through the dataplane without copying it. A frame no
// output consumes is released back to its pool.
func (s *Switch) applyActions(actions []openflow.Action, f *wire.Frame, in *Port, ready sim.Time) {
	last := -1
	for i, a := range actions {
		if act, ok := a.(*openflow.ActionOutput); ok && s.consumesFrame(act, in) {
			last = i
		}
	}
	// Ownership may transfer at the last consuming output only when it
	// is the final action: a later rewrite would mutate a frame already
	// sitting in an egress queue, and a later controller output would
	// read a frame the queue (or its overflow Release) no longer
	// guarantees. Those action-list-pathological cases fall back to
	// cloning at every output and releasing the working frame at the
	// end; the common lists — rewrites first, one output last — keep
	// the zero-copy path.
	transfer := last >= 0 && last == len(actions)-1
	for i, a := range actions {
		if act, ok := a.(*openflow.ActionOutput); ok {
			s.output(act, f, in, ready, transfer && i == last)
		} else {
			rewriteFrame(f, a)
		}
	}
	if !transfer {
		f.Release()
	}
}

// lastFloodEligible returns the highest port index a flood from ingress
// in reaches (-1 when none): the single source of truth for both the
// ownership accounting and the flood fan-out itself.
func (s *Switch) lastFloodEligible(in *Port) int {
	last := -1
	for i, p := range s.ports {
		if p != in && p.mac.Link() != nil {
			last = i
		}
	}
	return last
}

// consumesFrame reports whether an output action will take ownership of
// the working frame, i.e. hand it to at least one egress queue. The
// controller port only copies a prefix, and reserved/unknown ports drop.
func (s *Switch) consumesFrame(act *openflow.ActionOutput, in *Port) bool {
	switch {
	case act.Port == openflow.PortFlood || act.Port == openflow.PortAll:
		return s.lastFloodEligible(in) >= 0
	case act.Port == openflow.PortInPort:
		return true
	case act.Port >= 1 && int(act.Port) <= len(s.ports):
		return true
	default:
		return false
	}
}

// output applies one output action. own marks the action that inherits
// the working frame; every other consumer clones it.
func (s *Switch) output(act *openflow.ActionOutput, f *wire.Frame, in *Port, ready sim.Time, own bool) {
	take := func() *wire.Frame {
		if own {
			return f
		}
		return f.Clone()
	}
	switch {
	case act.Port == openflow.PortController:
		if s.ctl != nil {
			data := f.Data
			maxLen := int(act.MaxLen)
			if maxLen > 0 && len(data) > maxLen {
				data = data[:maxLen]
			}
			cp := make([]byte, len(data))
			copy(cp, data)
			total := uint16(len(f.Data))
			inPort := in.OFPort()
			s.cpuRun(packetInCost, func() {
				s.ctl.fromSwitch(&openflow.PacketIn{
					BufferID: 0xffffffff, TotalLen: total, InPort: inPort,
					Reason: openflow.ReasonAction, Data: cp,
				}, 0)
			})
		}
	case act.Port == openflow.PortFlood || act.Port == openflow.PortAll:
		lastEligible := s.lastFloodEligible(in)
		for i, p := range s.ports {
			if p == in || p.mac.Link() == nil {
				continue
			}
			if i == lastEligible {
				p.enqueue(take(), ready)
			} else {
				p.enqueue(f.Clone(), ready)
			}
		}
	case act.Port == openflow.PortInPort:
		in.enqueue(take(), ready)
	case act.Port >= 1 && int(act.Port) <= len(s.ports):
		s.ports[act.Port-1].enqueue(take(), ready)
	default:
		// PortNone / unsupported reserved port: drop (applyActions
		// releases the frame if nothing consumed it).
	}
}

func (p *Port) enqueue(f *wire.Frame, earliest sim.Time) {
	if p.mac.Link() == nil {
		// Unconnected port: black hole, as hardware would — but the
		// ledger still attributes the loss.
		p.sw.ledger.Report(p.sw.dropHop, wire.DropUnconnected, 1)
		f.Release()
		return
	}
	p.mac.Push(wire.One(f), earliest, wire.DropEgressOverflow)
}

// Latch implements wire.Latcher: the frame is tagged with its egress
// port and counted as it leaves.
func (p *Port) Latch(f *wire.Frame, _, _ sim.Time) {
	f.SrcPort = p.index
	p.tx.Add(f.Size)
}

// String describes the switch.
func (s *Switch) String() string {
	return fmt.Sprintf("ofswitch(dpid=%#x ports=%d table=%d/%d)",
		s.cfg.DatapathID, len(s.ports), s.table.Len(), tableCap)
}
