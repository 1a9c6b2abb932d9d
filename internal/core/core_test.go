package core

import (
	"testing"

	"osnt/internal/gen"
	"osnt/internal/mon"
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
func demoTopology(e *sim.Engine, swCfg switchsim.Config) (*Device, *switchsim.Switch) {
	dev := NewDevice(e, netfpga.Config{})
	sw := switchsim.New(e, swCfg)

	genOut := wire.NewLink(e, wire.Rate10G, 0, sw.Port(0))
	dev.Card.Port(0).SetLink(genOut)
	toCap := wire.NewLink(e, wire.Rate10G, 0, dev.Card.Port(1))
	sw.Port(1).SetLink(toCap)
	// The capture port needs a TX link only to teach the switch its MAC.
	capOut := wire.NewLink(e, wire.Rate10G, 0, sw.Port(1))
	dev.Card.Port(1).SetLink(capOut)

	// Teach the switch both stations.
	dev.Card.Port(1).Enqueue(wire.One(wire.NewFrame(packet.UDPSpec{
		SrcMAC: macCap, DstMAC: macGen,
		SrcIP: packet.IP4{10, 0, 0, 2}, DstIP: packet.IP4{10, 0, 0, 1},
		SrcPort: 1, DstPort: 1, FrameSize: 64,
	}.Build())))
	e.Run()
	return dev, sw
}

func TestDevicePortRange(t *testing.T) {
	e := sim.NewEngine()
	dev := NewDevice(e, netfpga.Config{})
	if _, err := dev.ConfigureGenerator(7, gen.Config{}); err == nil {
		t.Fatal("port 7 accepted")
	}
	if _, err := dev.ConfigureMonitor(-1, mon.Config{}); err == nil {
		t.Fatal("port -1 accepted")
	}
}

func TestLatencyTestThroughSwitch(t *testing.T) {
	e := sim.NewEngine()
	dev, _ := demoTopology(e, switchsim.Config{})
	res, err := (&LatencyTest{
		Device: dev, TxPort: 0, RxPort: 1,
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
	// Jitter should be bounded by quantisation at constant load.
	if spread := res.Latency.Max() - res.Latency.Min(); spread > 13000 {
		t.Fatalf("latency spread %d ps at constant load", spread)
	}
}

func TestLatencyTestCountMode(t *testing.T) {
	e := sim.NewEngine()
	dev, _ := demoTopology(e, switchsim.Config{})
	res, err := (&LatencyTest{
		Device: dev, TxPort: 0, RxPort: 1,
		Spec: spec, Count: 100, Load: 0.01,
	}).Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.TxPackets != 100 {
		t.Fatalf("tx %d, want 100", res.TxPackets)
	}
	if res.Latency.Count() != 100 {
		t.Fatalf("samples %d, want 100", res.Latency.Count())
	}
}

func TestLatencyGrowsNearSaturation(t *testing.T) {
	// Demo Part I shape: latency at 95% load ≫ latency at 20% load on a
	// jittery switch whose capacity sits just below line rate.
	run := func(load float64) float64 {
		e := sim.NewEngine()
		dev, _ := demoTopology(e, switchsim.Config{
			LookupPerByte: sim.Picoseconds(820), LookupJitter: 0.5, Seed: 3,
		})
		res, err := (&LatencyTest{
			Device: dev, TxPort: 0, RxPort: 1,
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
	// Straight cable: delivered must equal offered at 100% load for any
	// frame size (E1's property).
	for _, fs := range []int{64, 512, 1518} {
		e := sim.NewEngine()
		dev := NewDevice(e, netfpga.Config{})
		dev.WireUp(0, 1, 0)
		res, err := (&ThroughputTest{
			Device: dev, TxPort: 0, RxPort: 1,
			Spec: spec, FrameSize: fs, Load: 1.0,
			Duration: 2 * sim.Millisecond,
		}).Run()
		if err != nil {
			t.Fatal(err)
		}
		if res.LossFraction != 0 {
			t.Fatalf("fs=%d loss %v at line rate over a cable", fs, res.LossFraction)
		}
		wantPPS := wire.MaxPPS(fs, wire.Rate10G)
		if res.DeliveredPPS < wantPPS*0.999 || res.DeliveredPPS > wantPPS*1.001 {
			t.Fatalf("fs=%d delivered %.0f pps, want ≈%.0f", fs, res.DeliveredPPS, wantPPS)
		}
		// Wire-level bit rate must be 10G at every frame size.
		if res.DeliveredBPS < 9.99e9 || res.DeliveredBPS > 10.01e9 {
			t.Fatalf("fs=%d delivered %.3g bps on the wire", fs, res.DeliveredBPS)
		}
	}
}

func TestThroughputFindsDUTSaturation(t *testing.T) {
	// A switch with capacity below line rate must show loss at full load
	// but none at half load.
	mk := func(load float64) *ThroughputResult {
		e := sim.NewEngine()
		dev, _ := demoTopology(e, switchsim.Config{
			LookupPerByte: sim.Picoseconds(900), // ≈88% of line rate at 512B
		})
		res, err := (&ThroughputTest{
			Device: dev, TxPort: 0, RxPort: 1,
			Spec: spec, FrameSize: 512, Load: load,
			Duration: 10 * sim.Millisecond,
		}).Run()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	if r := mk(0.5); r.LossFraction > 0.001 {
		t.Fatalf("loss %v at half load", r.LossFraction)
	}
	r := mk(1.0)
	if r.LossFraction < 0.05 {
		t.Fatalf("loss %v at full load through a sub-line-rate switch", r.LossFraction)
	}
	// Delivered rate ≈ the switch's service capacity (the 512-deep lookup
	// queue drains after the generator stops, inflating the count by up
	// to 512/Duration ≈ 2.5%).
	cap512 := 1e12 / float64(20000+512*900) // pps
	if r.DeliveredPPS > cap512*1.05 || r.DeliveredPPS < cap512*0.9 {
		t.Fatalf("delivered %.0f pps, switch capacity %.0f", r.DeliveredPPS, cap512)
	}
}

func TestGeneratorMonitorAccessors(t *testing.T) {
	e := sim.NewEngine()
	dev := NewDevice(e, netfpga.Config{})
	dev.WireUp(0, 1, 0)
	if dev.Generator(0) != nil || dev.Monitor(1) != nil {
		t.Fatal("accessors before configure")
	}
	g, err := dev.ConfigureGenerator(0, gen.Config{
		Source:  &gen.UDPFlowSource{Spec: spec, FrameSize: 64},
		Spacing: gen.CBR{Interval: sim.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := dev.ConfigureMonitor(1, mon.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if dev.Generator(0) != g || dev.Monitor(1) != m {
		t.Fatal("accessors after configure")
	}
}

func BenchmarkLatencyTest(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := sim.NewEngine()
		dev, _ := demoTopology(e, switchsim.Config{})
		if _, err := (&LatencyTest{
			Device: dev, TxPort: 0, RxPort: 1,
			Spec: spec, Count: 100, Load: 0.1,
		}).Run(); err != nil {
			b.Fatal(err)
		}
	}
}
