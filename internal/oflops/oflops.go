// Package oflops implements OFLOPS-turbo: the holistic OpenFlow switch
// evaluation framework of the demo's Part II, rebuilt on OSNT. A
// measurement module observes three channels at once — the data plane
// (through OSNT's timestamped generator/monitor), the OpenFlow control
// plane, and SNMP counters — and reports high-precision measurements of
// the switch's control/data-plane interactions.
package oflops

import (
	"fmt"

	"osnt/internal/gen"
	"osnt/internal/mon"
	"osnt/internal/netfpga"
	"osnt/internal/ofswitch"
	"osnt/internal/openflow"
	"osnt/internal/packet"
	"osnt/internal/sim"
	"osnt/internal/snmp"
	"osnt/internal/topo"
)

// Context is the measurement environment handed to a module: the Figure 2
// topology with OSNT port 0 feeding switch port 1, switch port 2 feeding
// OSNT port 1, plus control and SNMP channels.
type Context struct {
	Engine *sim.Engine
	Card   *netfpga.Card
	Switch *ofswitch.Switch
	Ctl    *ofswitch.Controller
	Agent  *snmp.Agent

	// GenPort/CapPort are the OSNT ports wired to the switch.
	GenPort, CapPort int

	module   Module
	done     bool
	deadline sim.Duration
	xid      uint32
	// gen is the generator the running module started on GenPort; Run
	// stops it when the module finishes.
	gen *gen.Generator
}

// Module is one OFLOPS measurement. Start installs state and begins
// traffic; the Handle callbacks observe the channels; Finished reports
// completion.
type Module interface {
	// Name identifies the module in reports.
	Name() string
	// Start arms the measurement.
	Start(ctx *Context) error
	// HandleDataPlane sees every capture record from the OSNT monitor.
	HandleDataPlane(ctx *Context, rec mon.Record)
	// HandleOF sees every switch-to-controller message.
	HandleOF(ctx *Context, m openflow.Message, xid uint32)
	// Finished reports whether the measurement has everything it needs.
	Finished(ctx *Context) bool
}

// startGenerator starts a generator on GenPort now, replacing the one a
// previous module started.
func (c *Context) startGenerator(cfg gen.Config) error {
	g, err := gen.New(c.Card.Port(c.GenPort), cfg)
	if err != nil {
		return err
	}
	c.gen = g
	g.Start(c.Engine.Now())
	return nil
}

// NextXid returns a fresh transaction id.
func (c *Context) NextXid() uint32 {
	c.xid++
	return c.xid
}

// SNMPGet performs a local SNMP GET against the switch agent, returning
// the integer value (the management network is the control channel; its
// latency is already modelled there, so polling is immediate here).
func (c *Context) SNMPGet(oid snmp.OID) (int64, bool) {
	req := snmp.Encode(snmp.Message{
		Version: snmp.Version2c, Community: "public",
		PDU: snmp.PDU{Type: snmp.GetRequest, RequestID: int32(c.NextXid()),
			VarBinds: []snmp.VarBind{{OID: oid, Value: snmp.Null}}},
	})
	raw := c.Agent.Handle(req)
	if raw == nil {
		return 0, false
	}
	resp, err := snmp.Decode(raw)
	if err != nil || len(resp.PDU.VarBinds) == 0 {
		return 0, false
	}
	vb := resp.PDU.VarBinds[0]
	if vb.Value.Kind == snmp.NoSuchObject.Kind {
		return 0, false
	}
	return vb.Value.Int, true
}

// Config shapes the test harness.
type Config struct {
	// Switch configures the device under test.
	Switch ofswitch.Config
	// Timeout bounds a module run in virtual time (default 30 s).
	Timeout sim.Duration
}

// Runner owns one topology and executes modules on it.
type Runner struct {
	ctx *Context
}

// NewRunner builds the Figure 2 topology on a fresh engine.
func NewRunner(cfg Config) *Runner {
	if cfg.Timeout == 0 {
		cfg.Timeout = 30 * sim.Second
	}
	e := sim.NewEngine()
	// OSNT port 0 ↔ switch port index 0 (OF port 1), OSNT port 1 ↔
	// switch port index 1 (OF port 2), both full duplex.
	t := topo.New().
		Tester("osnt", netfpga.Config{}).
		OFSwitch("sw", cfg.Switch).
		Duplex("osnt:0", "sw:0").
		Duplex("osnt:1", "sw:1").
		MustBuild(e)
	card, sw := t.Tester("osnt"), t.OFSwitch("sw")

	ctl := ofswitch.Connect(sw)

	agent := snmp.NewAgent("public")
	agent.Register(snmp.OIDSysUpTime, func() snmp.Value {
		return snmp.TimeTicks(uint32(e.Now().Sub(0) / (10 * sim.Millisecond)))
	})
	for i := 0; i < sw.NumPorts(); i++ {
		p := sw.Port(i)
		idx := uint32(p.OFPort())
		agent.Register(snmp.OIDIfInOctets.Append(idx), func() snmp.Value {
			return snmp.Counter64(p.RxStats().Bytes)
		})
		agent.Register(snmp.OIDIfOutOctets.Append(idx), func() snmp.Value {
			return snmp.Counter64(p.TxStats().Bytes)
		})
		agent.Register(snmp.OIDIfInPackets.Append(idx), func() snmp.Value {
			return snmp.Counter64(p.RxStats().Packets)
		})
		agent.Register(snmp.OIDIfOutPackets.Append(idx), func() snmp.Value {
			return snmp.Counter64(p.TxStats().Packets)
		})
	}

	ctx := &Context{
		Engine: e, Card: card, Switch: sw, Ctl: ctl, Agent: agent,
		GenPort: 0, CapPort: 1, deadline: cfg.Timeout,
	}
	return &Runner{ctx: ctx}
}

// Context exposes the runner's environment (tests and custom drivers).
func (r *Runner) Context() *Context { return r.ctx }

// Run executes one module to completion or timeout.
func (r *Runner) Run(m Module) error {
	ctx := r.ctx
	ctx.module = m
	ctx.done = false

	sink := func(rec mon.Record) {
		if !ctx.done {
			m.HandleDataPlane(ctx, rec)
		}
	}
	if _, err := mon.New(ctx.Card.Port(ctx.CapPort), mon.Config{Sink: sink}); err != nil {
		return fmt.Errorf("oflops: monitor: %w", err)
	}
	ctx.Ctl.OnMessage = func(msg openflow.Message, xid uint32) {
		if !ctx.done {
			m.HandleOF(ctx, msg, xid)
		}
	}
	if err := m.Start(ctx); err != nil {
		return fmt.Errorf("oflops: %s: %w", m.Name(), err)
	}

	deadline := ctx.Engine.Now().Add(ctx.deadline)
	for !ctx.done && !m.Finished(ctx) {
		next, ok := ctx.Engine.Peek()
		if !ok || next > deadline {
			break // event queue drained or virtual deadline reached
		}
		ctx.Engine.Step()
	}
	ctx.done = true
	if ctx.gen != nil && ctx.gen.Running() {
		ctx.gen.Stop()
	}
	return nil
}

// ProbeSpec is the canonical probe template for modules: UDP flows whose
// destination address selects the rule under test.
var ProbeSpec = packet.UDPSpec{
	SrcMAC:  packet.MAC{0x02, 0x05, 0x17, 0x00, 0x00, 0x01},
	DstMAC:  packet.MAC{0x02, 0x05, 0x17, 0x00, 0x00, 0x02},
	SrcIP:   packet.IP4{10, 0, 0, 1},
	DstIP:   packet.IP4{10, 1, 0, 0},
	SrcPort: 6000, DstPort: 7000,
}

// RuleIP returns the probe destination address selecting rule i.
func RuleIP(i int) packet.IP4 {
	return packet.IP4{10, 1, byte(i >> 8), byte(i)}
}

// RuleMatch builds the FLOW_MOD match for rule i (exact nw_dst, UDP).
func RuleMatch(i int) openflow.Match {
	m := openflow.MatchAll()
	m.Wildcards &^= openflow.WildDlType | openflow.WildNwProto
	m.DlType = packet.EtherTypeIPv4
	m.NwProto = packet.ProtoUDP
	m.SetNwDstPrefix(RuleIP(i), 32)
	return m
}
