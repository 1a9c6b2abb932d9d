package ofswitch

import (
	"osnt/internal/openflow"
	"osnt/internal/sim"
	"osnt/internal/wire"
)

// Controller is the controller-side handle of a simulated OpenFlow
// control channel. Messages cross the channel as encoded OpenFlow 1.0
// bytes (the real codec runs on every message) with a fixed one-way
// latency, and are processed by the switch's serial management
// CPU — the pieces whose interplay OFLOPS-turbo measures.
type Controller struct {
	sw *Switch

	// OnMessage receives every switch-to-controller message
	// (PACKET_IN, FLOW_REMOVED, replies ...).
	OnMessage func(m openflow.Message, xid uint32)
}

// Connect attaches a controller to the switch and performs the version
// handshake immediately (both sides speak 1.0).
func Connect(sw *Switch) *Controller {
	c := &Controller{sw: sw}
	sw.ctl = c
	return c
}

// Send transmits a message to the switch. Encoding happens now; the
// switch receives and processes it after the channel latency plus
// whatever its CPU queue imposes.
func (c *Controller) Send(m openflow.Message, xid uint32) {
	raw := openflow.Encode(m, xid)
	c.sw.Engine.ScheduleAfter(ctrlLatency, func() {
		c.sw.handleControl(raw)
	})
}

// fromSwitch carries a switch-originated message to the controller.
func (c *Controller) fromSwitch(m openflow.Message, xid uint32) {
	raw := openflow.Encode(m, xid)
	c.sw.Engine.ScheduleAfter(ctrlLatency, func() {
		if c.OnMessage == nil {
			return
		}
		msg, gotXid, err := openflow.Decode(raw)
		if err != nil {
			return
		}
		c.OnMessage(msg, gotXid)
	})
}

// handleControl runs on the switch when a controller message arrives at
// the management interface. The message waits for the serial CPU, whose
// per-type costs model real firmware.
func (s *Switch) handleControl(raw []byte) {
	m, xid, err := openflow.Decode(raw)
	if err != nil {
		return // malformed: real switches drop and log
	}
	switch msg := m.(type) {
	case *openflow.Hello:
		s.cpuRun(echoCost, func() {
			s.ctl.fromSwitch(&openflow.Hello{}, xid)
		})

	case *openflow.EchoRequest:
		s.cpuRun(echoCost, func() {
			s.ctl.fromSwitch(&openflow.EchoReply{Data: msg.Data}, xid)
		})

	case *openflow.FeaturesRequest:
		s.cpuRun(echoCost, func() {
			reply := &openflow.FeaturesReply{
				DatapathID: s.cfg.DatapathID,
				NBuffers:   0, NTables: 1,
			}
			for _, p := range s.ports {
				reply.Ports = append(reply.Ports, openflow.PhyPort{
					No:   p.OFPort(),
					Name: portName(p.index),
				})
			}
			s.ctl.fromSwitch(reply, xid)
		})

	case *openflow.SetConfig:
		s.cpuRun(echoCost, func() {
			if msg.MissSendLen > 0 {
				s.missSendLen = int(msg.MissSendLen)
			}
		})

	case *openflow.BarrierRequest:
		// The barrier completes when the CPU reaches it — i.e. after all
		// previously queued control work finished on the CPU. Note the
		// hardware-install lag is NOT covered by the barrier, exactly the
		// gap the consistency experiment exposes.
		s.cpuRun(barrierCost, func() {
			s.ctl.fromSwitch(&openflow.BarrierReply{}, xid)
		})

	case *openflow.FlowMod:
		cost := flowModCost + sim.Duration(s.table.Len())*flowModPerEntry
		s.cpuRun(cost, func() {
			s.applyFlowModLater(msg)
		})

	case *openflow.PacketOut:
		s.cpuRun(packetInCost, func() {
			s.injectPacketOut(msg)
		})

	case *openflow.StatsRequest:
		// Stats walk the table / ports on the CPU.
		cost := barrierCost + sim.Duration(s.table.Len())*flowModPerEntry
		s.cpuRun(cost, func() {
			s.ctl.fromSwitch(s.buildStatsReply(msg), xid)
		})
	}
}

// applyFlowModLater finishes control-plane processing of a FLOW_MOD and
// schedules the dataplane table write HWInstallDelay later.
func (s *Switch) applyFlowModLater(fm *openflow.FlowMod) {
	apply := func() { s.applyFlowMod(fm) }
	if s.cfg.HWInstallDelay > 0 {
		s.Engine.ScheduleAfter(s.cfg.HWInstallDelay, apply)
	} else {
		apply()
	}
}

func (s *Switch) applyFlowMod(fm *openflow.FlowMod) {
	now := s.Engine.Now()
	switch fm.Command {
	case openflow.FCAdd:
		s.table.Add(&Entry{
			Match: fm.Match, Priority: fm.Priority, Cookie: fm.Cookie,
			Actions: fm.Actions, IdleTimeout: fm.IdleTimeout,
			HardTimeout: fm.HardTimeout, Flags: fm.Flags,
			InstalledAt: now, LastUsed: now,
		})
		if fm.IdleTimeout > 0 || fm.HardTimeout > 0 {
			s.ensureSweep()
		}
	case openflow.FCModify, openflow.FCModifyStrict:
		strict := fm.Command == openflow.FCModifyStrict
		if n := s.table.Modify(fm.Match, fm.Priority, fm.Actions, strict); n == 0 {
			// Per OF 1.0: a modify with no matching entry behaves as add.
			s.table.Add(&Entry{
				Match: fm.Match, Priority: fm.Priority, Cookie: fm.Cookie,
				Actions: fm.Actions, IdleTimeout: fm.IdleTimeout,
				HardTimeout: fm.HardTimeout, Flags: fm.Flags,
				InstalledAt: now, LastUsed: now,
			})
		}
	case openflow.FCDelete, openflow.FCDeleteStrict:
		strict := fm.Command == openflow.FCDeleteStrict
		removed := s.table.Delete(fm.Match, fm.Priority, fm.OutPort, strict)
		for _, e := range removed {
			if e.Flags&openflow.FlagSendFlowRem != 0 && s.ctl != nil {
				dur := now.Sub(e.InstalledAt)
				s.ctl.fromSwitch(&openflow.FlowRemoved{
					Match: e.Match, Cookie: e.Cookie, Priority: e.Priority,
					Reason:      openflow.RemovedDelete,
					DurationSec: uint32(dur / sim.Second),
					PacketCount: e.Packets, ByteCount: e.Bytes,
				}, 0)
			}
		}
	}
}

func (s *Switch) injectPacketOut(po *openflow.PacketOut) {
	if len(po.Data) == 0 {
		return
	}
	data := make([]byte, len(po.Data))
	copy(data, po.Data)
	frame := wire.NewFrame(data)
	var in *Port
	if po.InPort >= 1 && int(po.InPort) <= len(s.ports) {
		in = s.ports[po.InPort-1]
	} else {
		in = s.ports[0]
	}
	s.applyActions(po.Actions, frame, in, s.Engine.Now())
}

func (s *Switch) buildStatsReply(req *openflow.StatsRequest) *openflow.StatsReply {
	now := s.Engine.Now()
	reply := &openflow.StatsReply{StatsType: req.StatsType}
	switch req.StatsType {
	case openflow.StatsFlow:
		for _, e := range s.table.Entries() {
			if req.Flow != nil && !req.Flow.Match.Subsumes(&e.Match) {
				continue
			}
			dur := now.Sub(e.InstalledAt)
			reply.Flows = append(reply.Flows, openflow.FlowStats{
				Match: e.Match, Priority: e.Priority, Cookie: e.Cookie,
				DurationSec:  uint32(dur / sim.Second),
				DurationNsec: uint32(dur % sim.Second / sim.Nanosecond),
				IdleTimeout:  e.IdleTimeout, HardTimeout: e.HardTimeout,
				PacketCount: e.Packets, ByteCount: e.Bytes,
				Actions: e.Actions,
			})
		}
	case openflow.StatsAggregate:
		agg := &openflow.AggregateStats{}
		for _, e := range s.table.Entries() {
			if req.Flow != nil && !req.Flow.Match.Subsumes(&e.Match) {
				continue
			}
			agg.PacketCount += e.Packets
			agg.ByteCount += e.Bytes
			agg.FlowCount++
		}
		reply.Aggregate = agg
	case openflow.StatsPort:
		for _, p := range s.ports {
			if req.Port != nil && req.Port.PortNo != openflow.PortNone &&
				req.Port.PortNo != p.OFPort() {
				continue
			}
			reply.Ports = append(reply.Ports, openflow.PortStats{
				PortNo:    p.OFPort(),
				RxPackets: p.rx.Packets, TxPackets: p.tx.Packets,
				RxBytes: p.rx.Bytes, TxBytes: p.tx.Bytes,
				TxDropped: p.mac.Drops(),
			})
		}
	}
	return reply
}

func portName(i int) string {
	return "nf" + string(rune('0'+i))
}
