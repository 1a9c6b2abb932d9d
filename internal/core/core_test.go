package core

import (
	"strings"
	"testing"

	"osnt/internal/gen"
	"osnt/internal/netfpga"
	"osnt/internal/packet"
	"osnt/internal/sim"
	"osnt/internal/switchsim"
	"osnt/internal/wire"
)

var (
	macGen = packet.MAC{2, 0, 0, 0, 0, 1}
	macCap = packet.MAC{2, 0, 0, 0, 0, 2}
	spec   = packet.UDPSpec{
		SrcMAC: macGen, DstMAC: macCap,
		SrcIP: packet.IP4{10, 0, 0, 1}, DstIP: packet.IP4{10, 0, 0, 2},
		SrcPort: 5000, DstPort: 7000,
	}
)

// demoTopology builds Figure 2's Part I setup: tester port 0 → switch →
// tester port 1, with the station MACs pre-learned.
func demoTopology(e *sim.Engine, swCfg switchsim.Config) (*netfpga.Card, *switchsim.Switch) {
	card := netfpga.New(e, netfpga.Config{})
	sw := switchsim.New(e, swCfg)

	genOut := wire.NewLink(e, wire.Rate10G, 0, sw.Port(0))
	card.Port(0).SetLink(genOut)
	toCap := wire.NewLink(e, wire.Rate10G, 0, card.Port(1))
	sw.Port(1).SetLink(toCap)
	// The capture port needs a TX link only to teach the switch its MAC.
	capOut := wire.NewLink(e, wire.Rate10G, 0, sw.Port(1))
	card.Port(1).SetLink(capOut)

	// Teach the switch both stations.
	card.Port(1).Enqueue(wire.One(wire.NewFrame(packet.UDPSpec{
		SrcMAC: macCap, DstMAC: macGen,
		SrcIP: packet.IP4{10, 0, 0, 2}, DstIP: packet.IP4{10, 0, 0, 1},
		SrcPort: 1, DstPort: 1, FrameSize: 64,
	}.Build())))
	e.Run()
	return card, sw
}

func TestDevicePortRange(t *testing.T) {
	for _, ports := range [][2]int{{7, 1}, {0, -1}} {
		e := sim.NewEngine()
		card, _ := demoTopology(e, switchsim.Config{})
		_, err := (&LatencyTest{Card: card, TxPort: ports[0], RxPort: ports[1], Spec: spec, Count: 1}).Run()
		if err == nil {
			t.Fatalf("ports %d → %d accepted", ports[0], ports[1])
		}
	}
}

func TestLatencyTestThroughSwitch(t *testing.T) {
	e := sim.NewEngine()
	card, _ := demoTopology(e, switchsim.Config{})
	res, err := (&LatencyTest{
		Card: card, TxPort: 0, RxPort: 1,
		Spec: spec, FrameSize: 512, Load: 0.05,
		Duration: 5 * sim.Millisecond,
	}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.TxPackets == 0 || res.RxPackets == 0 {
		t.Fatalf("no traffic: %+v", res)
	}
	if res.Lost() != 0 {
		t.Fatalf("idle switch lost %d packets", res.Lost())
	}
	// Expected latency at idle: ingress store (store-and-forward) +
	// lookup + pipeline + egress serialisation.
	ser := wire.SerializationTime(512, wire.Rate10G)
	lookup := 20*sim.Nanosecond + 512*sim.Picoseconds(760) + 450*sim.Nanosecond
	want := int64(ser + lookup + ser)
	mean := int64(res.Latency.Mean())
	// Allow the 6.25ns quantisation of both timestamps.
	if diff := mean - want; diff < -13000 || diff > 13000 {
		t.Fatalf("mean latency %d ps, want ≈%d ps", mean, want)
	}
	// Jitter should be bounded by quantisation at constant load: no
	// probe waits behind another, so none exceeds the idle latency by
	// more than the two timestamps' quantisation.
	if over := res.Latency.Max() - want; over > 13000 {
		t.Fatalf("worst latency %d ps above idle at constant load", over)
	}
}

func TestLatencyTestCountMode(t *testing.T) {
	e := sim.NewEngine()
	card, _ := demoTopology(e, switchsim.Config{})
	res, err := (&LatencyTest{
		Card: card, TxPort: 0, RxPort: 1,
		Spec: spec, Count: 100, Load: 0.01,
	}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.TxPackets != 100 {
		t.Fatalf("tx %d, want 100", res.TxPackets)
	}
	if sum := res.Latency.Summary(1, "ps"); !strings.HasPrefix(sum, "n=100 ") {
		t.Fatalf("latency samples %q, want n=100", sum)
	}
}

func TestLatencyGrowsNearSaturation(t *testing.T) {
	// Demo Part I shape: latency at 95% load ≫ latency at 20% load on a
	// jittery switch whose capacity sits just below line rate.
	run := func(load float64) float64 {
		e := sim.NewEngine()
		card, _ := demoTopology(e, switchsim.Config{
			LookupPerByte: sim.Picoseconds(820), LookupJitter: 0.5, Seed: 3,
		})
		res, err := (&LatencyTest{
			Card: card, TxPort: 0, RxPort: 1,
			Spec: spec, FrameSize: 512, Load: load,
			Spacing:  gen.Poisson{Mean: sim.Duration(float64(wire.SerializationTime(512, wire.Rate10G)) / load)},
			Duration: 20 * sim.Millisecond,
		}).Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Latency.Mean()
	}
	low := run(0.2)
	high := run(0.95)
	if high < low*1.5 {
		t.Fatalf("latency: %.0f ps at 20%% vs %.0f ps at 95%% — no queueing growth", low, high)
	}
}

func TestThroughputLineRate(t *testing.T) {
	// Straight cable at 100% load: the tester offers exactly line rate at
	// every frame size and the cable loses nothing (E1's property).
	const d = 2 * sim.Millisecond
	for _, fs := range []int{64, 512, 1518} {
		e := sim.NewEngine()
		card := netfpga.New(e, netfpga.Config{})
		card.Port(0).SetLink(wire.NewLink(e, wire.Rate10G, 0, card.Port(1)))
		res, err := (&LatencyTest{
			Card: card, TxPort: 0, RxPort: 1,
			Spec: spec, FrameSize: fs, Load: 1.0, Duration: d,
		}).Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.TxDropped != 0 || res.Lost() != 0 {
			t.Fatalf("fs=%d: %d refused, %d lost at line rate over a cable", fs, res.TxDropped, res.Lost())
		}
		want := wire.MaxPPS(fs, wire.Rate10G) * d.Seconds()
		if got := float64(res.TxPackets); got < want*0.999 || got > want*1.001 {
			t.Fatalf("fs=%d offered %.0f packets in %v, want ≈%.0f (line rate)", fs, got, d, want)
		}
	}
}

func TestThroughputFindsDUTSaturation(t *testing.T) {
	// A switch with capacity below line rate must show loss at full load
	// but none at half load.
	const d = 10 * sim.Millisecond
	mk := func(load float64) *LatencyResult {
		e := sim.NewEngine()
		card, _ := demoTopology(e, switchsim.Config{
			LookupPerByte: sim.Picoseconds(900), // ≈88% of line rate at 512B
		})
		res, err := (&LatencyTest{
			Card: card, TxPort: 0, RxPort: 1,
			Spec: spec, FrameSize: 512, Load: load, Duration: d,
		}).Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if r := mk(0.5); r.LossFraction() > 0.001 {
		t.Fatalf("loss %v at half load", r.LossFraction())
	}
	r := mk(1.0)
	if r.LossFraction() < 0.05 {
		t.Fatalf("loss %v at full load through a sub-line-rate switch", r.LossFraction())
	}
	// Delivered rate ≈ the switch's service capacity (the 512-deep lookup
	// queue drains after the generator stops, inflating the count by up
	// to 512/Duration ≈ 2.5%).
	cap512 := 1e12 / float64(20000+512*900) // pps
	delivered := float64(r.RxPackets+r.CaptureDrops) / d.Seconds()
	if delivered > cap512*1.05 || delivered < cap512*0.9 {
		t.Fatalf("delivered %.0f pps, switch capacity %.0f", delivered, cap512)
	}
}

func BenchmarkLatencyTest(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := sim.NewEngine()
		card, _ := demoTopology(e, switchsim.Config{})
		if _, err := (&LatencyTest{
			Card: card, TxPort: 0, RxPort: 1,
			Spec: spec, Count: 100, Load: 0.1,
		}).Run(); err != nil {
			b.Fatal(err)
		}
	}
}
