package gen

import (
	"testing"

	"osnt/internal/netfpga"
	"osnt/internal/sim"
	"osnt/internal/wire"
)

// trainCollector observes the wire as a whole-run endpoint: trains and
// bare frames each arrive in one delivery.
type trainCollector struct {
	trainLens []int
	uniforms  []bool
	singles   int
	frames    uint64
}

func (c *trainCollector) Receive(r wire.Run, _, _ sim.Time) {
	c.frames += uint64(r.Len())
	if t := r.Train(); t != nil {
		c.trainLens = append(c.trainLens, len(t.Frames))
		c.uniforms = append(c.uniforms, t.Uniform)
	} else {
		c.singles++
	}
	r.Release()
}

// trainRig builds a one-port card wired into a batch-aware collector.
func trainRig() (*sim.Engine, *netfpga.Card, *trainCollector) {
	e := sim.NewEngine()
	card := netfpga.New(e, netfpga.Config{})
	rx := &trainCollector{}
	card.Port(0).SetLink(wire.NewLink(e, wire.Rate10G, 0, rx))
	return e, card, rx
}

// runTrain drives one generator config to its Until deadline and
// returns the generator for counter checks.
func runTrain(t *testing.T, e *sim.Engine, card *netfpga.Card, cfg Config) *Generator {
	t.Helper()
	g, err := New(card.Port(0), cfg)
	if err != nil {
		t.Fatal(err)
	}
	g.Start(0)
	e.RunUntil(sim.Time(cfg.Until))
	g.Stop()
	e.Run()
	return g
}

// TestTrainFormationAtLineRate checks the coalescing happy path: at load
// 1.0 every frame abuts its predecessor, so the generator forms
// full-length trains (modulo the deadline tail) and the delivered frame
// count matches the per-frame CBR arithmetic.
func TestTrainFormationAtLineRate(t *testing.T) {
	e, card, rx := trainRig()
	const dur = sim.Millisecond
	g := runTrain(t, e, card, Config{
		Source:   &UDPFlowSource{Spec: spec, FrameSize: 64},
		Spacing:  CBRForLoad(64, wire.Rate10G, 1.0),
		Pool:     wire.DefaultPool,
		MaxTrain: 8,
		Until:    sim.Time(dur),
	})
	if rx.frames < 14880 || rx.frames > 14882 {
		t.Fatalf("delivered %d frames in 1ms, want ≈14881", rx.frames)
	}
	if g.Sent().Packets != rx.frames {
		t.Fatalf("sent %d != delivered %d", g.Sent().Packets, rx.frames)
	}
	if len(rx.trainLens) == 0 {
		t.Fatal("no trains formed at load 1.0")
	}
	full := 0
	for _, n := range rx.trainLens {
		if n < 2 || n > 8 {
			t.Fatalf("train of %d frames outside (1, MaxTrain]", n)
		}
		if n == 8 {
			full++
		}
	}
	// At a perfectly even cadence nearly every run should hit the cap.
	if full < len(rx.trainLens)*9/10 {
		t.Errorf("only %d/%d trains reached the cap", full, len(rx.trainLens))
	}
	for i, u := range rx.uniforms {
		if !u {
			t.Fatalf("train %d of a one-flow CBR source not Uniform", i)
		}
	}
}

// TestTrainNoCoalesceBelowLineRate checks the abutment rule: at load 0.5
// consecutive departures never touch, so even a generous cap must
// produce zero trains — the per-frame path, packet for packet.
func TestTrainNoCoalesceBelowLineRate(t *testing.T) {
	e, card, rx := trainRig()
	const dur = sim.Millisecond
	runTrain(t, e, card, Config{
		Source:   &UDPFlowSource{Spec: spec, FrameSize: 512},
		Spacing:  CBRForLoad(512, wire.Rate10G, 0.5),
		Pool:     wire.DefaultPool,
		MaxTrain: 64,
		Until:    sim.Time(dur),
	})
	if len(rx.trainLens) != 0 {
		t.Fatalf("%d trains formed below line rate (lens %v)", len(rx.trainLens), rx.trainLens)
	}
	if rx.singles == 0 {
		t.Fatal("nothing delivered")
	}
}

// TestTrainUniformityAcrossFlows checks the Uniform contract: a
// multi-flow source varies bytes frame to frame, so its trains still
// form (the wire is saturated) but must not claim uniformity, and an
// OnTransmit mutation hook (timestamp embedding) voids the flag even
// for a single flow.
func TestTrainUniformityAcrossFlows(t *testing.T) {
	e, card, rx := trainRig()
	const dur = sim.Millisecond
	runTrain(t, e, card, Config{
		Source:   &UDPFlowSource{Spec: spec, NumFlows: 4, FrameSize: 64},
		Spacing:  CBRForLoad(64, wire.Rate10G, 1.0),
		Pool:     wire.DefaultPool,
		MaxTrain: 8,
		Until:    sim.Time(dur),
	})
	if len(rx.trainLens) == 0 {
		t.Fatal("no trains formed")
	}
	for i, u := range rx.uniforms {
		if u && rx.trainLens[i] > 1 {
			t.Fatalf("train %d of a 4-flow source claims Uniform", i)
		}
	}

	e2, card2, rx2 := trainRig()
	runTrain(t, e2, card2, Config{
		Source:         &UDPFlowSource{Spec: spec, FrameSize: 64},
		Spacing:        CBRForLoad(64, wire.Rate10G, 1.0),
		Pool:           wire.DefaultPool,
		MaxTrain:       8,
		Until:          sim.Time(dur),
		EmbedTimestamp: true,
	})
	if len(rx2.trainLens) == 0 {
		t.Fatal("no trains formed with timestamp embedding")
	}
	for i, u := range rx2.uniforms {
		if u {
			t.Fatalf("train %d claims Uniform despite per-frame timestamp embedding", i)
		}
	}
}

// TestTrainCountBudget checks that the Count limit binds mid-train: the
// run stops at exactly Count frames no matter where the train boundary
// falls, and the generator finishes.
func TestTrainCountBudget(t *testing.T) {
	e, card, rx := trainRig()
	g, err := New(card.Port(0), Config{
		Source:   &UDPFlowSource{Spec: spec, FrameSize: 64},
		Spacing:  CBRForLoad(64, wire.Rate10G, 1.0),
		Pool:     wire.DefaultPool,
		MaxTrain: 8,
		Count:    21, // not a multiple of the cap: the last train is short
		Until:    sim.Time(sim.Millisecond),
	})
	if err != nil {
		t.Fatal(err)
	}
	g.Start(0)
	e.Run()
	if rx.frames != 21 {
		t.Fatalf("delivered %d frames, want 21", rx.frames)
	}
	if g.Sent().Packets != 21 {
		t.Fatalf("sent counter %d, want 21", g.Sent().Packets)
	}
	if g.Running() {
		t.Fatal("generator still running after its count")
	}
}

// TestTrainTimingMatchesPerFrame is the generator-level equivalence
// check: the same config run with cap 1 and cap 64 into a plain
// per-frame endpoint must deliver identical frame counts and identical
// arrival instants — coalescing may never move a packet in time.
func TestTrainTimingMatchesPerFrame(t *testing.T) {
	const dur = 200 * sim.Microsecond
	run := func(cap int) []sim.Time {
		e := sim.NewEngine()
		card := netfpga.New(e, netfpga.Config{})
		rx := &rxCollector{}
		card.Port(0).SetLink(wire.NewLink(e, wire.Rate10G, 0, rx))
		g, err := New(card.Port(0), Config{
			Source:   &UDPFlowSource{Spec: spec, NumFlows: 3, FrameSize: 128},
			Spacing:  CBRForLoad(128, wire.Rate10G, 1.0),
			Pool:     wire.DefaultPool,
			MaxTrain: cap,
			Until:    sim.Time(dur),
		})
		if err != nil {
			t.Fatal(err)
		}
		g.Start(0)
		e.RunUntil(sim.Time(dur))
		g.Stop()
		e.Run()
		return rx.times
	}
	ref := run(1)
	got := run(64)
	if len(ref) == 0 || len(got) != len(ref) {
		t.Fatalf("delivered %d frames with trains, %d without", len(got), len(ref))
	}
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("frame %d arrives at %v with trains, %v without", i, got[i], ref[i])
		}
	}
}
