// Package experiments regenerates every quantitative claim of the paper
// (DESIGN.md's per-experiment index, E1–E8) plus the scaling sweeps the
// testbed enables beyond it. Each driver declares its rig as an
// internal/topo scenario graph, runs the workload in virtual time and
// returns a printable table whose shape can be compared against the
// paper. Registry (registry.go) is the one list of experiments and
// Drivers the one list of timed runs: cmd/osnt-bench, EXPERIMENTS.md,
// the repository-level BenchmarkDrivers and cmd/benchgate all iterate
// them. Sweep points run on the internal/runner worker pool (see
// Workers) and draw per-packet frames from a shared wire.Pool, so
// regenerating the full evaluation costs neither serial wall time nor
// per-packet garbage.
package experiments

import (
	"fmt"

	"osnt/internal/core"
	"osnt/internal/gen"
	"osnt/internal/hostnic"
	"osnt/internal/mon"
	"osnt/internal/netfpga"
	"osnt/internal/oflops"
	"osnt/internal/ofswitch"
	"osnt/internal/packet"
	"osnt/internal/runner"
	"osnt/internal/sim"
	"osnt/internal/stats"
	"osnt/internal/switchsim"
	"osnt/internal/timing"
	"osnt/internal/topo"
	"osnt/internal/wire"
)

// FrameSizes is the standard RFC 2544 sweep used across experiments.
var FrameSizes = []int{64, 128, 256, 512, 1024, 1280, 1518}

// Workers is the sweep parallelism every experiment driver uses: 0 means
// GOMAXPROCS, 1 forces the serial reference. Every sweep point is an
// independent engine with its own seeds and the runner merges rows in
// canonical order, so tables are byte-identical at any setting.
var Workers int

func sweeper() *runner.Runner { return runner.New(Workers) }

// osntPorts and sinkNames are preformatted topology references: tight
// sweeps build one scenario graph per point and must not pay a
// fmt.Sprintf per port on top of it.
var (
	osntPorts [16]string
	sinkNames [4]string
)

func init() {
	for i := range osntPorts {
		osntPorts[i] = fmt.Sprintf("osnt:%d", i)
	}
	for i := range sinkNames {
		sinkNames[i] = fmt.Sprintf("sink%d", i)
	}
}

// idealCapture is the monitor configuration for sweeps that measure the
// DUT rather than the capture path (cf. core.ThroughputTest): one
// capture queue with an effectively infinite ring drained at zero cost,
// thinned to 64 B (the embedded timestamp at offset 42..50 survives), so
// every MAC-captured frame reaches the sink. E12 and E13 share it;
// changing the idealisation recipe in one place keeps their figures
// comparable.
func idealCapture(sink func(mon.Record)) mon.Config {
	return mon.Config{
		Queues: []mon.QueueConfig{{
			RingSize:      1 << 20,
			HostPerPacket: sim.Picosecond,
			HostPerByte:   -1,
		}},
		SnapLen:        64,
		RecycleRecords: true,
		Sink:           sink,
	}
}

var probeSpec = packet.UDPSpec{
	SrcMAC:  packet.MAC{0x02, 0x05, 0x17, 0, 0, 0x01},
	DstMAC:  packet.MAC{0x02, 0x05, 0x17, 0, 0, 0x02},
	SrcIP:   packet.IP4{10, 0, 0, 1},
	DstIP:   packet.IP4{10, 0, 0, 2},
	SrcPort: 5000, DstPort: 7000,
}

// E1LineRate verifies "full line-rate traffic generation regardless of
// packet size across the four card ports": CBR at 100% offered load on
// 1–4 ports for the standard frame-size sweep, reporting achieved vs
// theoretical rate.
func E1LineRate(duration sim.Duration) *stats.Table {
	if duration == 0 {
		duration = 2 * sim.Millisecond
	}
	tbl := &stats.Table{
		Title:   "E1: line-rate generation vs frame size (offered 100%)",
		Columns: []string{"frame(B)", "ports", "theoretical(Mpps)", "achieved(Mpps)", "rate(Gb/s)", "ok"},
	}
	portCounts := []int{1, 4}
	tbl.Rows = sweeper().Rows(len(FrameSizes)*len(portCounts), func(i int) [][]string {
		fs := FrameSizes[i/len(portCounts)]
		nports := portCounts[i%len(portCounts)]
		e := sim.NewEngine()
		b := topo.New().Tester("osnt", netfpga.Config{})
		for p := 0; p < nports; p++ {
			b.Sink(sinkNames[p]).Link(osntPorts[p], sinkNames[p])
		}
		t := b.MustBuild(e)
		gens := make([]*gen.Generator, 0, nports)
		for p := 0; p < nports; p++ {
			spec := probeSpec
			spec.SrcPort = uint16(5000 + p)
			g, err := gen.New(t.Port(osntPorts[p]), gen.Config{
				Source:  &gen.UDPFlowSource{Spec: spec, FrameSize: fs},
				Spacing: gen.CBRForLoad(fs, wire.Rate10G, 1.0),
				Pool:    wire.DefaultPool,
			})
			if err != nil {
				panic(err)
			}
			g.Start(0)
			gens = append(gens, g)
		}
		e.RunUntil(sim.Time(duration))
		for _, g := range gens {
			g.Stop()
		}
		var total uint64
		for p := 0; p < nports; p++ {
			total += t.Sink(sinkNames[p]).Received().Packets
		}
		perPort := float64(total) / float64(nports) / duration.Seconds()
		theo := wire.MaxPPS(fs, wire.Rate10G)
		gbps := perPort * float64(wire.WireBytes(fs)) * 8 / 1e9
		ok := perPort > theo*0.999
		return [][]string{{
			fmt.Sprintf("%d", fs),
			fmt.Sprintf("%d", nports),
			fmt.Sprintf("%.3f", theo/1e6),
			fmt.Sprintf("%.3f", perPort/1e6),
			fmt.Sprintf("%.3f", gbps),
			fmt.Sprintf("%v", ok),
		}}
	})
	return tbl
}

// E2ClockDiscipline reproduces "sub-µsec time precision ... corrected
// using an external GPS device": absolute clock error over time for a
// free-running ±50 ppm oscillator vs the same oscillator under the PPS
// servo.
func E2ClockDiscipline(duration sim.Duration) *stats.Table {
	if duration == 0 {
		duration = 120 * sim.Second
	}
	tbl := &stats.Table{
		Title:   "E2: clock error — free-running vs GPS-disciplined (50ppm oscillator)",
		Columns: []string{"t(s)", "free-running(µs)", "disciplined(µs)"},
	}
	e := sim.NewEngine()
	free := timing.NewOscillator(50, 0.01, 100*sim.Millisecond, 21)
	free.DeviceTimeAt(0)
	disc := timing.NewOscillator(50, 0.01, 100*sim.Millisecond, 22)
	disc.DeviceTimeAt(0)
	servo := timing.NewDiscipline(disc)
	servo.Start(e)

	// Sample half a second past each checkpoint: mid-second is where the
	// disciplined clock's residual frequency error has accumulated the
	// longest since the last PPS correction, making it the honest (worst
	// within a second) figure.
	step := sim.Duration(duration / 8)
	for i := 1; i <= 8; i++ {
		target := sim.After(step*sim.Duration(i) + 500*sim.Millisecond)
		e.RunUntil(target)
		now := e.Now()
		freeErr := absDur(free.DeviceTimeAt(now).Sub(now))
		discErr := absDur(disc.DeviceTimeAt(now).Sub(now))
		tbl.AddRow(
			fmt.Sprintf("%.1f", now.Seconds()),
			fmt.Sprintf("%.3f", freeErr.Seconds()*1e6),
			fmt.Sprintf("%.3f", discErr.Seconds()*1e6),
		)
	}
	return tbl
}

func absDur(d sim.Duration) sim.Duration {
	if d < 0 {
		return -d
	}
	return d
}

// E3Topology builds the Demo Part I rig: OSNT port 0 → legacy switch →
// OSNT port 1, with station MACs pre-learned, returning the device.
func E3Topology(e *sim.Engine, swCfg switchsim.Config) (*core.Device, *switchsim.Switch) {
	t := topo.New().
		Tester("osnt", netfpga.Config{}).
		DUT("sw", swCfg).
		Link("osnt:0", "sw:0").
		Duplex("sw:1", "osnt:1").
		MustBuild(e)
	dev, sw := t.Tester("osnt"), t.DUT("sw")
	// Teach the switch the capture-side station with a real warm-up frame
	// (the paper's rig does the same; the generator-side station is
	// learned from the first probe).
	teach := probeSpec
	teach.SrcMAC, teach.DstMAC = probeSpec.DstMAC, probeSpec.SrcMAC
	teach.FrameSize = 64
	dev.Card.Port(1).Enqueue(wire.NewFrame(teach.Build()))
	e.Run()
	return dev, sw
}

// E3SwitchLatency is Demo Part I: "accurately measure the packet-
// processing latency of a legacy switch under different load conditions".
// Poisson traffic sweeps offered load; latency comes from embedded TX
// timestamps vs MAC RX timestamps.
func E3SwitchLatency(duration sim.Duration) *stats.Table {
	if duration == 0 {
		duration = 20 * sim.Millisecond
	}
	tbl := &stats.Table{
		Title:   "E3: legacy switch latency vs offered load (512B Poisson, store-and-forward DUT)",
		Columns: []string{"load(%)", "mean(µs)", "p50(µs)", "p99(µs)", "max(µs)", "loss(%)"},
	}
	loads := []float64{0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 1.0}
	tbl.Rows = sweeper().Rows(len(loads), func(i int) [][]string {
		load := loads[i]
		e := sim.NewEngine()
		dev, _ := E3Topology(e, switchsim.Config{
			LookupPerByte: sim.Picoseconds(820), // capacity just below line rate
			LookupJitter:  0.5,
			Seed:          31,
		})
		slot := wire.SerializationTime(512, wire.Rate10G)
		res, err := (&core.LatencyTest{
			Device: dev, TxPort: 0, RxPort: 1, Spec: probeSpec,
			FrameSize: 512, Load: load,
			Spacing:  gen.Poisson{Mean: sim.Duration(float64(slot) / load)},
			Duration: duration, Seed: 77,
		}).Run()
		if err != nil {
			panic(err)
		}
		h := res.Latency
		return [][]string{{
			fmt.Sprintf("%.0f", load*100),
			fmt.Sprintf("%.2f", h.Mean()/1e6),
			fmt.Sprintf("%.2f", float64(h.Percentile(50))/1e6),
			fmt.Sprintf("%.2f", float64(h.Percentile(99))/1e6),
			fmt.Sprintf("%.2f", float64(h.Max())/1e6),
			fmt.Sprintf("%.2f", res.LossFraction()*100),
		}}
	})
	return tbl
}

// E4FlowModLatency is Demo Part II's headline: control-plane vs
// data-plane flow-table update latency as the batch size grows.
func E4FlowModLatency() *stats.Table {
	tbl := &stats.Table{
		Title:   "E4: flow_mod batch latency — control plane (barrier) vs data plane (first packet)",
		Columns: []string{"batch", "control(ms)", "data p50(ms)", "data max(ms)", "confirmed"},
	}
	// Largest batch first: it dominates the sweep's serial cost, so the
	// worker pool starts the long pole immediately.
	batches := []int{512, 128, 32, 8, 1}
	rows := sweeper().Rows(len(batches), func(i int) [][]string {
		n := batches[i]
		r := oflops.NewRunner(oflops.Config{Timeout: 10 * sim.Second})
		m := &oflops.FlowInsertLatency{Rules: n}
		if err := r.Run(m); err != nil {
			panic(err)
		}
		h, seen := m.DataLatencies()
		return [][]string{{
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%.3f", m.ControlLatency().Seconds()*1e3),
			fmt.Sprintf("%.3f", float64(h.Percentile(50))/1e9),
			fmt.Sprintf("%.3f", float64(h.Max())/1e9),
			fmt.Sprintf("%d/%d", seen, n),
		}}
	})
	// Present in ascending batch order, as the paper's figure does.
	for i := len(rows) - 1; i >= 0; i-- {
		tbl.Rows = append(tbl.Rows, rows[i])
	}
	return tbl
}

// E5Consistency is Demo Part II's closing observation: forwarding
// consistency during large flow-table updates.
func E5Consistency() *stats.Table {
	tbl := &stats.Table{
		Title:   "E5: forwarding consistency during table updates (old-marker packets after barrier)",
		Columns: []string{"rules", "hw-lag", "old-after-barrier", "window(ms)", "old-pkts", "new-pkts"},
	}
	ruleCounts := []int{64, 256, 512}
	lags := []sim.Duration{sim.Nanosecond, 1500 * sim.Microsecond}
	tbl.Rows = sweeper().Rows(len(ruleCounts)*len(lags), func(i int) [][]string {
		n := ruleCounts[i/len(lags)]
		lag := lags[i%len(lags)]
		r := oflops.NewRunner(oflops.Config{
			Timeout: 20 * sim.Second,
			Switch:  ofswitch.Config{HWInstallDelay: lag},
		})
		m := &oflops.ForwardingConsistency{Rules: n}
		if err := r.Run(m); err != nil {
			panic(err)
		}
		res := m.Result()
		lagName := "none"
		if lag > sim.Microsecond {
			lagName = lag.String()
		}
		return [][]string{{
			fmt.Sprintf("%d", n),
			lagName,
			fmt.Sprintf("%d", res.OldAfterBarrier),
			fmt.Sprintf("%.3f", res.TransitionWindow.Seconds()*1e3),
			fmt.Sprintf("%d", res.OldTotal),
			fmt.Sprintf("%d", res.NewTotal),
		}}
	})
	return tbl
}

// E6TimestampNoise quantifies the motivation for MAC-level timestamping:
// the same traffic timestamped by OSNT hardware (6.25 ns quantisation)
// vs a software stack with coalescing and scheduling jitter.
func E6TimestampNoise(packets int) *stats.Table {
	if packets == 0 {
		packets = 2000
	}
	tbl := &stats.Table{
		Title:   "E6: timestamp error vs true arrival — OSNT hardware vs software stack",
		Columns: []string{"method", "mean", "p99", "max"},
	}

	// Hardware: card RX timestamps vs ground truth.
	{
		e := sim.NewEngine()
		card := netfpga.New(e, netfpga.Config{})
		h := stats.NewHistogram()
		card.Port(0).OnReceive = func(f *wire.Frame, at sim.Time, ts timing.Timestamp) {
			h.Record(int64(at.Sub(ts.Sim())))
		}
		l := wire.NewLink(e, wire.Rate10G, 0, card.Port(0))
		feedProbes(e, l, packets)
		e.Run()
		tbl.AddRow("OSNT (MAC timestamp)", fmtDur(h.Mean()), fmtDur(float64(h.Percentile(99))), fmtDur(float64(h.Max())))
	}

	// Software: hostnic path.
	{
		e := sim.NewEngine()
		h := stats.NewHistogram()
		nic := hostnic.New(e, hostnic.Config{Seed: 6, Sink: func(_ []byte, sw, at sim.Time) {
			h.Record(int64(sw.Sub(at)))
		}})
		l := wire.NewLink(e, wire.Rate10G, 0, nic)
		feedProbes(e, l, packets)
		e.Run()
		tbl.AddRow("software stack", fmtDur(h.Mean()), fmtDur(float64(h.Percentile(99))), fmtDur(float64(h.Max())))
	}
	return tbl
}

func feedProbes(e *sim.Engine, l *wire.Link, n int) {
	spec := probeSpec
	spec.FrameSize = 256
	data := spec.Build()
	rnd := sim.NewRand(99)
	at := sim.Time(0)
	for i := 0; i < n; i++ {
		at = at.Add(sim.Duration(rnd.Intn(int(20 * sim.Microsecond))))
		e.Schedule(at, func() { l.Transmit(wire.NewFrame(data)) })
	}
}

func fmtDur(ps float64) string {
	return sim.Duration(ps).String()
}

// E7CapturePath reproduces the loss-limited capture path behaviour:
// capture loss vs offered rate, with thinning and filtering as the
// hardware remedies.
func E7CapturePath(duration sim.Duration) *stats.Table {
	if duration == 0 {
		duration = 5 * sim.Millisecond
	}
	tbl := &stats.Table{
		Title:   "E7: capture-path loss vs offered load (1518B frames)",
		Columns: []string{"load(%)", "pipeline", "captured", "ring-drops", "loss(%)"},
	}
	type pipeline struct {
		name string
		cfg  mon.Config
	}
	pipes := []pipeline{
		{"full packets", mon.Config{Queues: []mon.QueueConfig{{RingSize: 128}}}},
		{"thin 64B", mon.Config{Queues: []mon.QueueConfig{{RingSize: 128}}, SnapLen: 64}},
	}
	loads := []float64{0.2, 0.5, 0.8, 1.0}
	tbl.Rows = sweeper().Rows(len(loads)*len(pipes), func(i int) [][]string {
		load := loads[i/len(pipes)]
		p := pipes[i%len(pipes)]
		e := sim.NewEngine()
		t := topo.New().
			Tester("tx", netfpga.Config{}).
			Tester("rx", netfpga.Config{}).
			Link("tx:0", "rx:0").
			MustBuild(e)
		monitor := t.AttachMonitor("rx:0", p.cfg)
		g, err := gen.New(t.Port("tx:0"), gen.Config{
			Source:  &gen.UDPFlowSource{Spec: probeSpec, FrameSize: 1518},
			Spacing: gen.CBRForLoad(1518, wire.Rate10G, load),
			Pool:    wire.DefaultPool,
		})
		if err != nil {
			panic(err)
		}
		g.Start(0)
		e.RunUntil(sim.Time(duration))
		g.Stop()
		e.Run()
		return [][]string{{
			fmt.Sprintf("%.0f", load*100),
			p.name,
			fmt.Sprintf("%d", monitor.Delivered().Packets),
			fmt.Sprintf("%d", monitor.RingDrops()),
			fmt.Sprintf("%.1f", monitor.LossFraction()*100),
		}}
	})
	return tbl
}

// E8ControlUnderLoad measures control-channel responsiveness (echo RTT)
// while the dataplane load sweeps, on a switch whose management CPU pays
// a per-packet tax.
func E8ControlUnderLoad() *stats.Table {
	tbl := &stats.Table{
		Title:   "E8: OpenFlow echo RTT vs dataplane load (CPU-coupled switch)",
		Columns: []string{"load(%)", "rtt mean(µs)", "rtt p99(µs)", "rtt max(µs)"},
	}
	loads := []float64{0, 0.25, 0.5, 0.75, 0.9}
	tbl.Rows = sweeper().Rows(len(loads), func(i int) [][]string {
		load := loads[i]
		r := oflops.NewRunner(oflops.Config{
			Timeout: 10 * sim.Second,
			Switch:  ofswitch.Config{DataplaneCPUTax: 150 * sim.Nanosecond},
		})
		m := &oflops.EchoUnderLoad{Load: load, Echoes: 15}
		if err := r.Run(m); err != nil {
			panic(err)
		}
		h := m.RTTs()
		return [][]string{{
			fmt.Sprintf("%.0f", load*100),
			fmt.Sprintf("%.1f", h.Mean()/1e6),
			fmt.Sprintf("%.1f", float64(h.Percentile(99))/1e6),
			fmt.Sprintf("%.1f", float64(h.Max())/1e6),
		}}
	})
	return tbl
}
