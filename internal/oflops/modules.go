package oflops

import (
	"fmt"

	"osnt/internal/gen"
	"osnt/internal/mon"
	"osnt/internal/ofswitch"
	"osnt/internal/openflow"
	"osnt/internal/packet"
	"osnt/internal/sim"
	"osnt/internal/stats"
	"osnt/internal/wire"
)

// ruleProbeSource emits UDP probes cycling the destination address across
// rules 0..N-1, so every rule under test is exercised round-robin.
type ruleProbeSource struct {
	n     int
	size  int
	built []*wire.Frame
	pos   int
}

// probeFrameSize keeps room for the embedded timestamp.
const probeFrameSize = 128

func newRuleProbeSource(n int) *ruleProbeSource {
	return &ruleProbeSource{n: n, size: probeFrameSize}
}

// Next implements gen.Source.
func (s *ruleProbeSource) Next() *wire.Frame {
	if s.built == nil {
		for i := 0; i < s.n; i++ {
			spec := ProbeSpec
			spec.DstIP = RuleIP(i)
			spec.FrameSize = s.size
			s.built = append(s.built, wire.NewFrame(spec.Build()))
		}
	}
	f := s.built[s.pos%len(s.built)].Clone()
	s.pos++
	return f
}

// probeRule recovers the rule index a captured probe matched.
func probeRule(data []byte) (int, bool) {
	fl, ok := packet.ExtractFlow(data)
	if !ok {
		return 0, false
	}
	ip := fl.DstIP4()
	if ip[0] != 10 || ip[1] != 1 {
		return 0, false
	}
	return int(ip[2])<<8 | int(ip[3]), true
}

// installBaseline pre-loads the dataplane table directly (test fixture,
// not part of the measurement): a lowest-priority drop-all plus count
// pre-existing rules with the given actions.
func installBaseline(ctx *Context, count int, actions []openflow.Action) {
	now := ctx.Engine.Now()
	ctx.Switch.Table().Add(&ofswitch.Entry{
		Match: openflow.MatchAll(), Priority: 0, InstalledAt: now, LastUsed: now,
	}) // empty action list = drop
	for i := 0; i < count; i++ {
		ctx.Switch.Table().Add(&ofswitch.Entry{
			Match: RuleMatch(i), Priority: 100,
			Actions: actions, InstalledAt: now, LastUsed: now,
		})
	}
}

// startProbes arms the OSNT generator with round-robin rule probes.
func startProbes(ctx *Context, rules int, gap sim.Duration) error {
	return ctx.startGenerator(gen.Config{
		Source:         newRuleProbeSource(rules),
		Spacing:        gen.CBR{Interval: gap},
		EmbedTimestamp: true,
	})
}

// FlowInsertLatency measures the demo's headline Part II quantity: "the
// latency to modify the entries of the switch flow table through control
// and data plane measurements". It installs Rules flow entries in one
// batch, timing the barrier acknowledgement (control plane) and the
// first probe packet forwarded by each new rule (data plane).
type FlowInsertLatency struct {
	// Rules is the batch size.
	Rules int
	// ProbeGap spaces the probes (default 2 µs → 500 kpps aggregate).
	ProbeGap sim.Duration

	start      sim.Time
	controlAck sim.Time
	firstSeen  []sim.Time
	seen       int
	barrierXid uint32
}

// Name implements Module.
func (m *FlowInsertLatency) Name() string {
	return fmt.Sprintf("flow_insert_latency(n=%d)", m.Rules)
}

// Start implements Module.
func (m *FlowInsertLatency) Start(ctx *Context) error {
	if m.Rules == 0 {
		m.Rules = 64
	}
	if m.ProbeGap == 0 {
		m.ProbeGap = 2 * sim.Microsecond
	}
	m.firstSeen = make([]sim.Time, m.Rules)
	installBaseline(ctx, 0, nil) // drop-all only: probes vanish until rules land
	if err := startProbes(ctx, m.Rules, m.ProbeGap); err != nil {
		return err
	}

	m.start = ctx.Engine.Now()
	for i := 0; i < m.Rules; i++ {
		ctx.Ctl.Send(&openflow.FlowMod{
			Match: RuleMatch(i), Command: openflow.FCAdd, Priority: 100,
			BufferID: 0xffffffff, OutPort: openflow.PortNone,
			Actions: []openflow.Action{&openflow.ActionOutput{Port: 2}},
		}, ctx.NextXid())
	}
	m.barrierXid = ctx.NextXid()
	ctx.Ctl.Send(&openflow.BarrierRequest{}, m.barrierXid)
	return nil
}

// HandleDataPlane implements Module.
func (m *FlowInsertLatency) HandleDataPlane(ctx *Context, rec mon.Record) {
	rule, ok := probeRule(rec.Data)
	if !ok || rule >= m.Rules {
		return
	}
	if m.firstSeen[rule] == 0 {
		m.firstSeen[rule] = rec.TS.Sim()
		m.seen++
	}
}

// HandleOF implements Module.
func (m *FlowInsertLatency) HandleOF(ctx *Context, msg openflow.Message, xid uint32) {
	if msg.Type() == openflow.TypeBarrierReply && xid == m.barrierXid {
		m.controlAck = ctx.Engine.Now()
	}
}

// Finished implements Module.
func (m *FlowInsertLatency) Finished(*Context) bool {
	return m.controlAck != 0 && m.seen == m.Rules
}

// ControlLatency returns send-to-barrier-reply.
func (m *FlowInsertLatency) ControlLatency() sim.Duration {
	if m.controlAck == 0 {
		return -1
	}
	return m.controlAck.Sub(m.start)
}

// DataLatencies returns per-rule send-to-first-forwarded durations in a
// histogram (picoseconds), plus how many rules were confirmed.
func (m *FlowInsertLatency) DataLatencies() (*stats.Histogram, int) {
	h := stats.NewHistogram()
	for _, t := range m.firstSeen {
		if t != 0 {
			h.Record(int64(t.Sub(m.start)))
		}
	}
	return h, m.seen
}

// FlowModifyLatency measures modification of existing entries: rules
// initially blackhole to an unconnected port and are modified to forward
// to the capture port.
type FlowModifyLatency struct {
	Rules    int
	ProbeGap sim.Duration

	start      sim.Time
	controlAck sim.Time
	firstSeen  []sim.Time
	seen       int
	barrierXid uint32
}

// Name implements Module.
func (m *FlowModifyLatency) Name() string {
	return fmt.Sprintf("flow_modify_latency(n=%d)", m.Rules)
}

// Start implements Module.
func (m *FlowModifyLatency) Start(ctx *Context) error {
	if m.Rules == 0 {
		m.Rules = 64
	}
	if m.ProbeGap == 0 {
		m.ProbeGap = 2 * sim.Microsecond
	}
	m.firstSeen = make([]sim.Time, m.Rules)
	// Pre-existing rules point at OF port 4 (unconnected: blackhole).
	installBaseline(ctx, m.Rules, []openflow.Action{&openflow.ActionOutput{Port: 4}})
	if err := startProbes(ctx, m.Rules, m.ProbeGap); err != nil {
		return err
	}
	m.start = ctx.Engine.Now()
	for i := 0; i < m.Rules; i++ {
		ctx.Ctl.Send(&openflow.FlowMod{
			Match: RuleMatch(i), Command: openflow.FCModifyStrict, Priority: 100,
			BufferID: 0xffffffff, OutPort: openflow.PortNone,
			Actions: []openflow.Action{&openflow.ActionOutput{Port: 2}},
		}, ctx.NextXid())
	}
	m.barrierXid = ctx.NextXid()
	ctx.Ctl.Send(&openflow.BarrierRequest{}, m.barrierXid)
	return nil
}

// HandleDataPlane implements Module.
func (m *FlowModifyLatency) HandleDataPlane(ctx *Context, rec mon.Record) {
	rule, ok := probeRule(rec.Data)
	if !ok || rule >= m.Rules {
		return
	}
	if m.firstSeen[rule] == 0 {
		m.firstSeen[rule] = rec.TS.Sim()
		m.seen++
	}
}

// HandleOF implements Module.
func (m *FlowModifyLatency) HandleOF(ctx *Context, msg openflow.Message, xid uint32) {
	if msg.Type() == openflow.TypeBarrierReply && xid == m.barrierXid {
		m.controlAck = ctx.Engine.Now()
	}
}

// Finished implements Module.
func (m *FlowModifyLatency) Finished(*Context) bool {
	return m.controlAck != 0 && m.seen == m.Rules
}

// ControlLatency returns send-to-barrier-reply.
func (m *FlowModifyLatency) ControlLatency() sim.Duration {
	if m.controlAck == 0 {
		return -1
	}
	return m.controlAck.Sub(m.start)
}

// DataLatencies returns per-rule modification-visible durations.
func (m *FlowModifyLatency) DataLatencies() (*stats.Histogram, int) {
	h := stats.NewHistogram()
	for _, t := range m.firstSeen {
		if t != 0 {
			h.Record(int64(t.Sub(m.start)))
		}
	}
	return h, m.seen
}

// ForwardingConsistency reproduces the demo's closing observation:
// "forwarding consistency during large flow table updates". Pre-existing
// rules mark probes with tp_src=1; a batch modification re-marks them
// with tp_src=2. Probes observed with the OLD marker AFTER the barrier
// acknowledgement are inconsistencies: the control plane said "done"
// while the dataplane still ran old state.
type ForwardingConsistency struct {
	Rules    int
	ProbeGap sim.Duration

	start           sim.Time
	controlAck      sim.Time
	barrierXid      uint32
	lastOld         sim.Time
	firstNew        sim.Time
	oldAfterBarrier uint64
	oldTotal        uint64
	newTotal        uint64
	newSeen         []bool
	newRules        int
}

// Markers written into tp_src by rule generation.
const (
	markerOld uint16 = 1
	markerNew uint16 = 2
)

// Name implements Module.
func (m *ForwardingConsistency) Name() string {
	return fmt.Sprintf("forwarding_consistency(n=%d)", m.Rules)
}

// Start implements Module.
func (m *ForwardingConsistency) Start(ctx *Context) error {
	if m.Rules == 0 {
		m.Rules = 256
	}
	if m.ProbeGap == 0 {
		m.ProbeGap = 2 * sim.Microsecond
	}
	m.newSeen = make([]bool, m.Rules)
	installBaseline(ctx, m.Rules, []openflow.Action{
		&openflow.ActionSetTpPort{TypeCode: openflow.ActTypeSetTpSrc, Port: markerOld},
		&openflow.ActionOutput{Port: 2},
	})
	if err := startProbes(ctx, m.Rules, m.ProbeGap); err != nil {
		return err
	}
	m.start = ctx.Engine.Now()
	for i := 0; i < m.Rules; i++ {
		ctx.Ctl.Send(&openflow.FlowMod{
			Match: RuleMatch(i), Command: openflow.FCModifyStrict, Priority: 100,
			BufferID: 0xffffffff, OutPort: openflow.PortNone,
			Actions: []openflow.Action{
				&openflow.ActionSetTpPort{TypeCode: openflow.ActTypeSetTpSrc, Port: markerNew},
				&openflow.ActionOutput{Port: 2},
			},
		}, ctx.NextXid())
	}
	m.barrierXid = ctx.NextXid()
	ctx.Ctl.Send(&openflow.BarrierRequest{}, m.barrierXid)
	return nil
}

// HandleDataPlane implements Module.
func (m *ForwardingConsistency) HandleDataPlane(ctx *Context, rec mon.Record) {
	rule, ok := probeRule(rec.Data)
	if !ok || rule >= m.Rules {
		return
	}
	fl, _ := packet.ExtractFlow(rec.Data)
	at := rec.TS.Sim()
	switch fl.SrcPort {
	case markerOld:
		m.oldTotal++
		if at > m.lastOld {
			m.lastOld = at
		}
		if m.controlAck != 0 && at > m.controlAck {
			m.oldAfterBarrier++
		}
	case markerNew:
		m.newTotal++
		if m.firstNew == 0 || at < m.firstNew {
			m.firstNew = at
		}
		if !m.newSeen[rule] {
			m.newSeen[rule] = true
			m.newRules++
		}
	}
}

// HandleOF implements Module.
func (m *ForwardingConsistency) HandleOF(ctx *Context, msg openflow.Message, xid uint32) {
	if msg.Type() == openflow.TypeBarrierReply && xid == m.barrierXid {
		m.controlAck = ctx.Engine.Now()
	}
}

// Finished implements Module.
func (m *ForwardingConsistency) Finished(ctx *Context) bool {
	if m.controlAck == 0 || m.newRules < m.Rules {
		return false
	}
	// Observe a settling window after the last rule flips.
	return ctx.Engine.Now().Sub(m.controlAck) > 10*sim.Millisecond
}

// Result summarises the consistency observation.
type ConsistencyResult struct {
	// OldAfterBarrier counts packets handled by pre-update rules after
	// the switch acknowledged the barrier.
	OldAfterBarrier uint64
	// TransitionWindow spans first-new-output to last-old-output — the
	// mixed-state interval.
	TransitionWindow sim.Duration
	// OldTotal and NewTotal count all marked packets.
	OldTotal, NewTotal uint64
	// ControlLatency is send-to-barrier-reply.
	ControlLatency sim.Duration
}

// Result returns the measurement.
func (m *ForwardingConsistency) Result() ConsistencyResult {
	window := sim.Duration(0)
	if m.firstNew != 0 && m.lastOld > m.firstNew {
		window = m.lastOld.Sub(m.firstNew)
	}
	return ConsistencyResult{
		OldAfterBarrier:  m.oldAfterBarrier,
		TransitionWindow: window,
		OldTotal:         m.oldTotal,
		NewTotal:         m.newTotal,
		ControlLatency:   m.controlAck.Sub(m.start),
	}
}

// PacketInLatency measures the miss path: probe packets with no matching
// rule must surface as PACKET_IN at the controller; the latency is
// recovered from OSNT's embedded transmit timestamp, still present in the
// PACKET_IN payload.
type PacketInLatency struct {
	Count    int
	ProbeGap sim.Duration

	latencies *stats.Histogram
	got       int
}

// Name implements Module.
func (m *PacketInLatency) Name() string { return fmt.Sprintf("packet_in_latency(n=%d)", m.Count) }

// Start implements Module.
func (m *PacketInLatency) Start(ctx *Context) error {
	if m.Count == 0 {
		m.Count = 100
	}
	if m.ProbeGap == 0 {
		m.ProbeGap = 1 * sim.Millisecond // keep the slow path unqueued
	}
	m.latencies = stats.NewHistogram()
	return ctx.startGenerator(gen.Config{
		Source:         newRuleProbeSource(1),
		Spacing:        gen.CBR{Interval: m.ProbeGap},
		Count:          uint64(m.Count),
		EmbedTimestamp: true,
	})
}

// HandleDataPlane implements Module.
func (m *PacketInLatency) HandleDataPlane(*Context, mon.Record) {}

// HandleOF implements Module.
func (m *PacketInLatency) HandleOF(ctx *Context, msg openflow.Message, _ uint32) {
	pin, ok := msg.(*openflow.PacketIn)
	if !ok {
		return
	}
	ts, ok := gen.ExtractTimestamp(pin.Data, gen.DefaultTimestampOffset)
	if !ok {
		return
	}
	m.latencies.Record(int64(ctx.Engine.Now().Sub(ts.Sim())))
	m.got++
}

// Finished implements Module.
func (m *PacketInLatency) Finished(*Context) bool { return m.got >= m.Count }

// Latencies returns the collected packet-in latencies (picoseconds).
func (m *PacketInLatency) Latencies() *stats.Histogram { return m.latencies }

// EchoUnderLoad measures control-channel responsiveness (echo RTT) while
// the dataplane forwards at a configured load — the coupling OFLOPS-turbo
// exposed on switches whose management CPU also serves the dataplane.
type EchoUnderLoad struct {
	// Load is the offered dataplane load fraction of line rate.
	Load float64
	// Echoes is the sample count (default 20).
	Echoes int

	rtts    *stats.Histogram
	sentAt  map[uint32]sim.Time
	got     int
	started bool
}

// echoGap spaces the echo requests.
const echoGap = 5 * sim.Millisecond

// Name implements Module.
func (m *EchoUnderLoad) Name() string {
	return fmt.Sprintf("echo_under_load(load=%.0f%%)", m.Load*100)
}

// Start implements Module.
func (m *EchoUnderLoad) Start(ctx *Context) error {
	if m.Echoes == 0 {
		m.Echoes = 20
	}
	m.rtts = stats.NewHistogram()
	m.sentAt = make(map[uint32]sim.Time)

	// One match-all forwarding rule so dataplane traffic never misses.
	installBaseline(ctx, 0, nil)
	ctx.Switch.Table().Add(&ofswitch.Entry{
		Match: RuleMatch(0), Priority: 100,
		Actions:     []openflow.Action{&openflow.ActionOutput{Port: 2}},
		InstalledAt: ctx.Engine.Now(), LastUsed: ctx.Engine.Now(),
	})
	if m.Load > 0 {
		if err := ctx.startGenerator(gen.Config{
			Source:  newRuleProbeSource(1),
			Spacing: gen.CBRForLoad(probeFrameSize, ctx.Card.Rate(), m.Load),
		}); err != nil {
			return err
		}
	}

	var sendEcho func()
	sent := 0
	sendEcho = func() {
		if sent >= m.Echoes {
			return
		}
		sent++
		xid := ctx.NextXid()
		m.sentAt[xid] = ctx.Engine.Now()
		ctx.Ctl.Send(&openflow.EchoRequest{Data: []byte{byte(xid)}}, xid)
		ctx.Engine.ScheduleAfter(echoGap, sendEcho)
	}
	sendEcho()
	return nil
}

// HandleDataPlane implements Module.
func (m *EchoUnderLoad) HandleDataPlane(*Context, mon.Record) {}

// HandleOF implements Module.
func (m *EchoUnderLoad) HandleOF(ctx *Context, msg openflow.Message, xid uint32) {
	if msg.Type() != openflow.TypeEchoReply {
		return
	}
	if t0, ok := m.sentAt[xid]; ok {
		m.rtts.Record(int64(ctx.Engine.Now().Sub(t0)))
		delete(m.sentAt, xid)
		m.got++
	}
}

// Finished implements Module.
func (m *EchoUnderLoad) Finished(*Context) bool { return m.got >= m.Echoes }

// RTTs returns the echo round-trip samples (picoseconds).
func (m *EchoUnderLoad) RTTs() *stats.Histogram { return m.rtts }
