package oflops

import (
	"strings"
	"testing"

	"osnt/internal/ofswitch"
	"osnt/internal/sim"
	"osnt/internal/snmp"
)

func TestFlowInsertLatencyModule(t *testing.T) {
	r := NewRunner(Config{})
	m := &FlowInsertLatency{Rules: 16}
	if err := r.Run(m); err != nil {
		t.Fatal(err)
	}
	ctl := m.ControlLatency()
	if ctl <= 0 {
		t.Fatal("no control-plane ack")
	}
	// 16 flow_mods × 150µs + barrier + 2×100µs channel ≈ 2.7ms.
	if ctl < 2*sim.Millisecond || ctl > 5*sim.Millisecond {
		t.Fatalf("control latency %v", ctl)
	}
	h, seen := m.DataLatencies()
	if seen != 16 {
		t.Fatalf("rules confirmed %d/16", seen)
	}
	// Data plane lags control by ≈HWInstallDelay (1.5ms): the first rule
	// becomes active ≈150µs+100µs+1.5ms ≈ 1.75ms after start; the LAST one
	// after all 16 flow_mods processed. Median must exceed the control
	// path start and the max must exceed the barrier ack (hardware lag).
	if h.Max() <= int64(ctl) {
		t.Fatalf("slowest dataplane install (%d ps) should exceed barrier ack (%d ps)",
			h.Max(), int64(ctl))
	}
	if p0 := h.Percentile(0); p0 < int64(sim.Millisecond) {
		t.Fatalf("fastest dataplane install %d ps implausibly fast", p0)
	}
}

func TestFlowInsertLatencyScalesWithBatch(t *testing.T) {
	run := func(n int) sim.Duration {
		r := NewRunner(Config{})
		m := &FlowInsertLatency{Rules: n}
		if err := r.Run(m); err != nil {
			t.Fatal(err)
		}
		return m.ControlLatency()
	}
	small := run(4)
	large := run(64)
	if large < small*8 {
		t.Fatalf("batch 64 (%v) should cost ≈16x batch 4 (%v)", large, small)
	}
}

func TestFlowModifyLatencyModule(t *testing.T) {
	r := NewRunner(Config{})
	m := &FlowModifyLatency{Rules: 8}
	if err := r.Run(m); err != nil {
		t.Fatal(err)
	}
	if m.ControlLatency() <= 0 {
		t.Fatal("no control ack")
	}
	h, seen := m.DataLatencies()
	if seen != 8 {
		t.Fatalf("rules confirmed %d/8", seen)
	}
	if sum := h.Summary(1, "ps"); !strings.HasPrefix(sum, "n=8 ") {
		t.Fatalf("histogram %q, want n=8", sum)
	}
}

func TestForwardingConsistencyModule(t *testing.T) {
	r := NewRunner(Config{})
	m := &ForwardingConsistency{Rules: 64}
	if err := r.Run(m); err != nil {
		t.Fatal(err)
	}
	res := m.Result()
	if res.OldTotal == 0 || res.NewTotal == 0 {
		t.Fatalf("markers missing: %+v", res)
	}
	// The demo's point: old-rule packets appear AFTER the barrier ack
	// because the hardware lags the control plane.
	if res.OldAfterBarrier == 0 {
		t.Fatal("no forwarding inconsistency observed despite HW install lag")
	}
	if res.TransitionWindow <= 0 {
		t.Fatal("no mixed-state transition window")
	}
}

func TestForwardingConsistencyVanishesWithoutHWLag(t *testing.T) {
	// Ablation: with (near) zero hardware install delay the inconsistency
	// disappears.
	r := NewRunner(Config{Switch: ofswitch.Config{HWInstallDelay: sim.Nanosecond}})
	m := &ForwardingConsistency{Rules: 64}
	if err := r.Run(m); err != nil {
		t.Fatal(err)
	}
	res := m.Result()
	if res.OldAfterBarrier != 0 {
		t.Fatalf("%d old-rule packets after barrier with no HW lag", res.OldAfterBarrier)
	}
}

func TestPacketInLatencyModule(t *testing.T) {
	r := NewRunner(Config{})
	m := &PacketInLatency{Count: 20}
	if err := r.Run(m); err != nil {
		t.Fatal(err)
	}
	h := m.Latencies()
	if sum := h.Summary(1, "ps"); !strings.HasPrefix(sum, "n=20 ") {
		t.Fatalf("samples %q, want n=20", sum)
	}
	// ≈ wire + pipeline + PacketInCost(80µs) + channel 100µs ≈ 180µs.
	mean := sim.Duration(h.Mean())
	if mean < 150*sim.Microsecond || mean > 250*sim.Microsecond {
		t.Fatalf("packet-in latency %v", mean)
	}
}

func TestEchoUnderLoadInflates(t *testing.T) {
	run := func(load float64) float64 {
		r := NewRunner(Config{Switch: ofswitch.Config{
			DataplaneCPUTax: 150 * sim.Nanosecond, // CPU saturates near line rate
		}})
		m := &EchoUnderLoad{Load: load, Echoes: 10}
		if err := r.Run(m); err != nil {
			t.Fatal(err)
		}
		return m.RTTs().Mean()
	}
	idle := run(0)
	loaded := run(0.9)
	if loaded < idle*2 {
		t.Fatalf("echo RTT idle %.0f ps vs loaded %.0f ps — no control starvation", idle, loaded)
	}
}

func TestSNMPChannel(t *testing.T) {
	r := NewRunner(Config{})
	m := &FlowInsertLatency{Rules: 4}
	if err := r.Run(m); err != nil {
		t.Fatal(err)
	}
	ctx := r.Context()
	// The switch's OF port 1 received every probe the generator emitted.
	rx, ok := ctx.SNMPGet(snmp.OIDIfInPackets.Append(1))
	if !ok || rx == 0 {
		t.Fatalf("SNMP ifInPackets: %d %v", rx, ok)
	}
	tx, ok := ctx.SNMPGet(snmp.OIDIfOutPackets.Append(2))
	if !ok || tx == 0 {
		t.Fatalf("SNMP ifOutPackets: %d %v", tx, ok)
	}
	if tx > rx {
		t.Fatalf("forwarded %d > received %d", tx, rx)
	}
	if _, ok := ctx.SNMPGet(snmp.MustOID("1.3.9.9")); ok {
		t.Fatal("bogus OID resolved")
	}
}

func TestRunnerTimeout(t *testing.T) {
	// A module that never finishes must stop at the virtual deadline.
	r := NewRunner(Config{Timeout: 50 * sim.Millisecond})
	m := &PacketInLatency{Count: 1 << 30, ProbeGap: sim.Second}
	if err := r.Run(m); err != nil {
		t.Fatal(err)
	}
	if r.Context().Engine.Now() > 60*sim.Time(sim.Millisecond) {
		t.Fatalf("ran to %v, deadline 50ms", r.Context().Engine.Now())
	}
}

func TestRuleHelpers(t *testing.T) {
	if RuleIP(0x0102) != (RuleIP(0x0102)) {
		t.Fatal("RuleIP determinism")
	}
	ip := RuleIP(258)
	if ip[2] != 1 || ip[3] != 2 {
		t.Fatalf("RuleIP encoding %v", ip)
	}
	m := RuleMatch(7)
	if m.NwDstWildBits() != 0 {
		t.Fatal("RuleMatch should be an exact dst")
	}
	spec := ProbeSpec
	spec.DstIP = RuleIP(7)
	spec.FrameSize = 128
	rule, ok := probeRule(spec.Build())
	if !ok || rule != 7 {
		t.Fatalf("probeRule %d %v", rule, ok)
	}
}

func BenchmarkFlowInsertModule(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := NewRunner(Config{})
		if err := r.Run(&FlowInsertLatency{Rules: 8}); err != nil {
			b.Fatal(err)
		}
	}
}
