// Package integration_test exercises whole-system paths that no single
// module owns: capture → pcap → replay fidelity, latency measurement
// across two cards with independently drifting GPS-disciplined clocks,
// and OSNT measuring the OpenFlow switch through the full Figure 2 stack.
package integration_test

import (
	"bytes"
	"testing"

	"osnt/internal/core"
	"osnt/internal/gen"
	"osnt/internal/mon"
	"osnt/internal/netfpga"
	"osnt/internal/ofswitch"
	"osnt/internal/openflow"
	"osnt/internal/packet"
	"osnt/internal/pcap"
	"osnt/internal/sim"
	"osnt/internal/timing"
	"osnt/internal/wire"
)

var spec = packet.UDPSpec{
	SrcMAC:  packet.MAC{2, 0, 0, 0, 0, 1},
	DstMAC:  packet.MAC{2, 0, 0, 0, 0, 2},
	SrcIP:   packet.IP4{10, 0, 0, 1},
	DstIP:   packet.IP4{10, 0, 0, 2},
	SrcPort: 5000, DstPort: 7000,
}

// TestCaptureReplayRoundTrip drives synthetic traffic into a monitor,
// writes the capture as a nanosecond pcap, replays that file through a
// fresh card preserving recorded gaps, and checks the replayed stream
// matches the original in bytes and spacing.
func TestCaptureReplayRoundTrip(t *testing.T) {
	// Phase 1: generate and capture.
	e1 := sim.NewEngine()
	tx := netfpga.New(e1, netfpga.Config{})
	rx := netfpga.New(e1, netfpga.Config{})
	tx.Port(0).SetLink(wire.NewLink(e1, wire.Rate10G, 0, rx.Port(0)))
	var buf bytes.Buffer
	w, err := pcap.NewWriter(&buf, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	var captured int
	mon.Attach(rx.Port(0), mon.Config{Sink: func(rec mon.Record) {
		captured++
		if err := w.Write(pcap.Record{
			TS: rec.TS.Sim(), Data: rec.Data, OrigLen: rec.WireSize - wire.FCSLen,
		}); err != nil {
			t.Fatal(err)
		}
	}})
	g, err := gen.New(tx.Port(0), gen.Config{
		Source:  &gen.UDPFlowSource{Spec: spec, NumFlows: 3, FrameSize: 256},
		Spacing: gen.Poisson{Mean: 30 * sim.Microsecond},
		Count:   200,
		Seed:    5,
	})
	if err != nil {
		t.Fatal(err)
	}
	g.Start(0)
	e1.Run()
	if captured != 200 {
		t.Fatalf("captured %d", captured)
	}

	// Phase 2: replay the capture through a fresh topology.
	recs, err := pcap.ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	e2 := sim.NewEngine()
	tx2 := netfpga.New(e2, netfpga.Config{})
	var replayed [][]byte
	var times []sim.Time
	tx2.Port(0).SetLink(wire.NewLink(e2, wire.Rate10G, 0,
		wire.EndpointFunc(func(f *wire.Frame, _, at sim.Time) {
			replayed = append(replayed, f.Data)
			times = append(times, at)
		})))
	g2, err := gen.New(tx2.Port(0), gen.Config{
		Source:  &gen.PCAPSource{Records: recs},
		Spacing: &gen.RecordedSpacing{Records: recs},
	})
	if err != nil {
		t.Fatal(err)
	}
	g2.Start(0)
	e2.Run()

	if len(replayed) != 200 {
		t.Fatalf("replayed %d", len(replayed))
	}
	for i := range replayed {
		if !bytes.Equal(replayed[i], recs[i].Data) {
			t.Fatalf("packet %d bytes differ after round trip", i)
		}
	}
	// Replay preserves recorded inter-departure gaps to nanosecond pcap
	// resolution (MAC serialisation may stretch gaps shorter than a slot;
	// Poisson@30µs means none are).
	for i := 2; i < len(times); i++ {
		wantGap := recs[i].TS.Sub(recs[i-1].TS)
		gotGap := times[i].Sub(times[i-1])
		diff := gotGap - wantGap
		if diff < -sim.Microsecond || diff > sim.Microsecond {
			t.Fatalf("gap %d: got %v want %v", i, gotGap, wantGap)
		}
	}
}

// TestCrossCardLatencyWithDisciplinedClocks measures one-way latency
// between two cards whose oscillators drift independently. Undisciplined,
// the measurement is garbage within seconds; with both clocks under GPS
// discipline the error stays sub-microsecond — the reason OSNT ships a
// GPS input.
func TestCrossCardLatencyWithDisciplinedClocks(t *testing.T) {
	run := func(discipline bool) sim.Duration {
		e := sim.NewEngine()
		oscTx := timing.NewOscillator(40, 0.01, 100*sim.Millisecond, 1)
		oscTx.DeviceTimeAt(0)
		oscRx := timing.NewOscillator(-35, 0.01, 100*sim.Millisecond, 2)
		oscRx.DeviceTimeAt(0)
		var txClock, rxClock timing.Clock
		if discipline {
			timing.NewDiscipline(oscTx).Start(e)
			timing.NewDiscipline(oscRx).Start(e)
			txClock = &timing.DisciplinedClock{Osc: oscTx}
			rxClock = &timing.DisciplinedClock{Osc: oscRx}
		} else {
			txClock = &timing.FreeClock{Osc: oscTx}
			rxClock = &timing.FreeClock{Osc: oscRx}
		}
		txCard := netfpga.New(e, netfpga.Config{Clock: txClock})
		rxCard := netfpga.New(e, netfpga.Config{Clock: rxClock})
		const trueDelay = 5 * sim.Microsecond
		txCard.Port(0).SetLink(wire.NewLink(e, wire.Rate10G, trueDelay, rxCard.Port(0)))

		// Let the servos converge before measuring.
		e.RunUntil(60 * sim.Time(sim.Second))

		var measured sim.Duration
		var n int
		rxCard.Port(0).OnReceive = func(f *wire.Frame, _ sim.Time, ts timing.Timestamp) {
			if txTS, ok := gen.ExtractTimestamp(f.Data, gen.DefaultTimestampOffset); ok {
				measured += ts.Sub(txTS)
				n++
			}
		}
		g, err := gen.New(txCard.Port(0), gen.Config{
			Source:         &gen.UDPFlowSource{Spec: spec, FrameSize: 128},
			Spacing:        gen.CBR{Interval: 100 * sim.Microsecond},
			Count:          100,
			EmbedTimestamp: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		g.Start(e.Now())
		e.RunUntil(e.Now() + 20*sim.Time(sim.Millisecond))
		if n == 0 {
			t.Fatal("no samples")
		}
		mean := measured / sim.Duration(n)
		wireTime := wire.SerializationTime(128, wire.Rate10G)
		truth := trueDelay + wireTime
		err2 := mean - truth
		if err2 < 0 {
			err2 = -err2
		}
		return err2
	}
	free := run(false)
	disc := run(true)
	// 75 ppm relative drift over 60 s ≈ 4.5 ms of clock offset: one-way
	// delay measurement is meaningless without discipline.
	if free < sim.Millisecond {
		t.Fatalf("free-running cross-card error %v, expected ms-scale", free)
	}
	if disc > 2*sim.Microsecond {
		t.Fatalf("disciplined cross-card error %v, want sub-µs-ish", disc)
	}
}

// TestOSNTMeasuresOpenFlowSwitchDataplane runs the core LatencyTest
// through the OpenFlow switch (instead of the legacy one), with the
// forwarding rule installed over the real control channel.
func TestOSNTMeasuresOpenFlowSwitchDataplane(t *testing.T) {
	e := sim.NewEngine()
	card := netfpga.New(e, netfpga.Config{})
	sw := ofswitch.New(e, ofswitch.Config{})
	card.Port(0).SetLink(wire.NewLink(e, wire.Rate10G, 0, sw.Port(0)))
	sw.Port(1).SetLink(wire.NewLink(e, wire.Rate10G, 0, card.Port(1)))
	card.Port(1).SetLink(wire.NewLink(e, wire.Rate10G, 0, sw.Port(1)))
	ctl := ofswitch.Connect(sw)

	// Install "everything → OF port 2" over the wire protocol.
	ctl.Send(&openflow.FlowMod{
		Match: openflow.MatchAll(), Command: openflow.FCAdd, Priority: 1,
		BufferID: 0xffffffff, OutPort: openflow.PortNone,
		Actions: []openflow.Action{&openflow.ActionOutput{Port: 2}},
	}, 1)
	e.Run() // control latency + CPU + HW install

	res, err := (&core.LatencyTest{
		Card: card, TxPort: 0, RxPort: 1,
		Spec: spec, FrameSize: 256, Load: 0.05,
		Duration: 5 * sim.Millisecond,
	}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.RxPackets == 0 || res.Lost() != 0 {
		t.Fatalf("rx=%d lost=%d", res.RxPackets, res.Lost())
	}
	// Latency ≈ serialisation + 600ns pipeline + serialisation.
	ser := wire.SerializationTime(256, wire.Rate10G)
	want := int64(2*ser + 600*sim.Nanosecond)
	mean := int64(res.Latency.Mean())
	if d := mean - want; d < -13000 || d > 13000 {
		t.Fatalf("latency %d ps, want ≈%d ps", mean, want)
	}
}

// TestFourPortBidirectionalSaturation wires two cards back to back on all
// four ports and saturates every direction simultaneously: 8×10G of
// aggregate virtual traffic with zero loss and exact line rate each way.
func TestFourPortBidirectionalSaturation(t *testing.T) {
	e := sim.NewEngine()
	a := netfpga.New(e, netfpga.Config{})
	b := netfpga.New(e, netfpga.Config{})
	counts := make([]uint64, 8)
	var gens []*gen.Generator
	for p := 0; p < 4; p++ {
		p := p
		a.Port(p).SetLink(wire.NewLink(e, wire.Rate10G, 0, b.Port(p)))
		b.Port(p).SetLink(wire.NewLink(e, wire.Rate10G, 0, a.Port(p)))
		a.Port(p).OnReceive = func(*wire.Frame, sim.Time, timing.Timestamp) { counts[p]++ }
		b.Port(p).OnReceive = func(*wire.Frame, sim.Time, timing.Timestamp) { counts[4+p]++ }
		for _, card := range []*netfpga.Card{a, b} {
			g, err := gen.New(card.Port(p), gen.Config{
				Source:  &gen.UDPFlowSource{Spec: spec, FrameSize: 512},
				Spacing: gen.CBRForLoad(512, wire.Rate10G, 1.0),
			})
			if err != nil {
				t.Fatal(err)
			}
			g.Start(0)
			gens = append(gens, g)
		}
	}
	e.RunUntil(sim.Time(sim.Millisecond))
	for _, g := range gens {
		g.Stop()
	}
	want := uint64(wire.MaxPPS(512, wire.Rate10G) / 1000) // per ms
	for i, c := range counts {
		if c < want-2 || c > want+2 {
			t.Fatalf("direction %d delivered %d, want ≈%d", i, c, want)
		}
	}
	for _, g := range gens {
		if g.Dropped() != 0 {
			t.Fatal("drops at exactly line rate")
		}
	}
}

// TestMonitorPcapChainMatchesGeneratorCounts pushes IMIX traffic through
// monitor thinning into a pcap and confirms OrigLen survives thinning
// while capture bytes shrink.
func TestMonitorPcapChainMatchesGeneratorCounts(t *testing.T) {
	e := sim.NewEngine()
	tx := netfpga.New(e, netfpga.Config{})
	rx := netfpga.New(e, netfpga.Config{})
	tx.Port(0).SetLink(wire.NewLink(e, wire.Rate10G, 0, rx.Port(0)))
	var buf bytes.Buffer
	w, _ := pcap.NewWriter(&buf, 0, true)
	mon.Attach(rx.Port(0), mon.Config{SnapLen: 64, Sink: func(rec mon.Record) {
		_ = w.Write(pcap.Record{TS: rec.TS.Sim(), Data: rec.Data, OrigLen: rec.WireSize - wire.FCSLen})
	}})
	g, _ := gen.New(tx.Port(0), gen.Config{
		// The classic 7:4:1 Internet mix.
		Source:  &gen.UDPFlowSource{Spec: spec, Sizes: []int{64, 64, 64, 64, 64, 64, 64, 570, 570, 570, 570, 1518}},
		Spacing: gen.CBR{Interval: 5 * sim.Microsecond},
		Count:   120,
	})
	g.Start(0)
	e.Run()
	recs, err := pcap.ReadAll(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 120 {
		t.Fatalf("records %d", len(recs))
	}
	sizes := map[int]int{}
	for _, r := range recs {
		if len(r.Data) > 64 {
			t.Fatalf("thinning leaked %d bytes", len(r.Data))
		}
		sizes[r.OrigLen+wire.FCSLen]++
	}
	if sizes[64] != 70 || sizes[570] != 40 || sizes[1518] != 10 {
		t.Fatalf("IMIX OrigLen mix %v", sizes)
	}
}
