package netfpga

import (
	"testing"

	"osnt/internal/sim"
	"osnt/internal/timing"
	"osnt/internal/wire"
)

func frame(n int) *wire.Frame { return wire.NewFrame(make([]byte, n-4)) }

func TestCardDefaults(t *testing.T) {
	e := sim.NewEngine()
	c := New(e, Config{})
	if c.NumPorts() != 4 {
		t.Fatalf("ports = %d, want 4", c.NumPorts())
	}
	if c.Rate() != wire.Rate10G {
		t.Fatalf("rate = %v", c.Rate())
	}
	if c.Regs.Get("device.ports") != 4 {
		t.Fatal("device.ports register")
	}
	for i := 0; i < 4; i++ {
		if c.Port(i).Index() != i || c.Port(i).Card() != c {
			t.Fatal("port wiring")
		}
	}
	if c.CaptureQueues() != 8 {
		t.Fatalf("capture queue budget = %d, want 8", c.CaptureQueues())
	}
	if New(e, Config{CaptureQueues: 2}).CaptureQueues() != 2 {
		t.Fatal("capture queue budget override ignored")
	}
}

func TestPortTransmitTimestampLatch(t *testing.T) {
	e := sim.NewEngine()
	c := New(e, Config{})
	p := c.Port(0)

	var rxFrames int
	sink := wire.EndpointFunc(func(f *wire.Frame, _, _ sim.Time) { rxFrames++ })
	p.SetLink(wire.NewLink(e, wire.Rate10G, 0, sink))

	var latched []sim.Time
	p.OnTransmit = func(f *wire.Frame, start sim.Time, ts timing.Timestamp) {
		latched = append(latched, start)
		if ts != timing.Quantize(start) {
			t.Errorf("latched ts %v != quantized start %v", ts, timing.Quantize(start))
		}
	}

	// Enqueue 3 frames at t=0: the MAC must latch timestamps at the
	// *start* of each serialisation, spaced by exactly one 64B slot.
	for i := 0; i < 3; i++ {
		if !p.Enqueue(wire.One(frame(64))) {
			t.Fatal("enqueue failed")
		}
	}
	e.Run()
	want := []sim.Time{0, 67200, 134400}
	for i := range want {
		if latched[i] != want[i] {
			t.Fatalf("latch %d at %v, want %v", i, latched[i], want[i])
		}
	}
	if rxFrames != 3 {
		t.Fatalf("delivered %d", rxFrames)
	}
	if got := c.Regs.Get("port0.tx_packets"); got != 3 {
		t.Fatalf("tx_packets register = %d, want 3", got)
	}
	if got := c.Regs.Get("port0.tx_bytes"); got != 3*64 {
		t.Fatalf("tx_bytes register = %d, want %d", got, 3*64)
	}
}

func TestPortTxQueueOverflow(t *testing.T) {
	e := sim.NewEngine()
	c := New(e, Config{TxQueueCap: 4})
	var ledger wire.DropLedger
	c.SetDropSite(&ledger, 1)
	p := c.Port(0)
	p.SetLink(wire.NewLink(e, wire.Rate10G, 0, nil))

	accepted := 0
	for i := 0; i < 10; i++ {
		if p.Enqueue(wire.One(frame(1518))) {
			accepted++
		}
	}
	// One frame goes straight into the MAC, 4 queue slots: 5 accepted.
	if accepted != 5 {
		t.Fatalf("accepted = %d, want 5", accepted)
	}
	if got := ledger.Count(1, wire.DropTxOverflow); got != 5 {
		t.Fatalf("ledger tx-overflow drops = %d, want 5", got)
	}
	if c.Regs.Get("port0.tx_drops") != 5 {
		t.Fatal("drop register")
	}
	e.Run()
	if !p.TxIdle() {
		t.Fatal("queue not drained")
	}
}

func TestPortReceiveTimestamps(t *testing.T) {
	e := sim.NewEngine()
	c := New(e, Config{})
	p := c.Port(1)
	var gotTS timing.Timestamp
	var gotAt sim.Time
	p.OnReceive = func(f *wire.Frame, at sim.Time, ts timing.Timestamp) {
		gotAt, gotTS = at, ts
	}
	l := wire.NewLink(e, wire.Rate10G, 10*sim.Nanosecond, p)
	e.Schedule(1000, func() { l.Transmit(wire.One(frame(64)), e.Now()) })
	e.Run()
	wantAt := sim.Time(1000).Add(wire.SerializationTime(64, wire.Rate10G)).Add(10 * sim.Nanosecond)
	if gotAt != wantAt {
		t.Fatalf("arrival %v, want %v", gotAt, wantAt)
	}
	if gotTS != timing.Quantize(wantAt) {
		t.Fatalf("rx ts %v, want %v", gotTS, timing.Quantize(wantAt))
	}
	if p.RxStats().Packets != 1 || c.Regs.Get("port1.rx_packets") != 1 {
		t.Fatal("rx stats")
	}
}

func TestPortEnqueueWithoutLinkPanics(t *testing.T) {
	e := sim.NewEngine()
	c := New(e, Config{})
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	c.Port(0).Enqueue(wire.One(frame(64)))
}

func TestCardWithDriftingClock(t *testing.T) {
	// A card with a +50ppm free-running clock must stamp RX packets with
	// a visible lead over true time.
	e := sim.NewEngine()
	osc := timing.NewOscillator(50, 0, 0, 1)
	osc.DeviceTimeAt(0)
	c := New(e, Config{Clock: &timing.FreeClock{Osc: osc}})
	p := c.Port(0)
	var ts timing.Timestamp
	var at sim.Time
	p.OnReceive = func(_ *wire.Frame, a sim.Time, s timing.Timestamp) { at, ts = a, s }
	l := wire.NewLink(e, wire.Rate10G, 0, p)
	e.Schedule(sim.Time(sim.Second), func() { l.Transmit(wire.One(frame(64)), e.Now()) })
	e.Run()
	lead := ts.Sim().Sub(at)
	// ≈ 50 µs lead at 1 s, minus up to one 6.25ns quantisation step.
	if lead < 49*sim.Microsecond || lead > 51*sim.Microsecond {
		t.Fatalf("drifting clock lead = %v, want ≈50µs", lead)
	}
}

func TestRegisters(t *testing.T) {
	r := NewRegisters()
	if r.Get("missing") != 0 {
		t.Fatal("absent register must read 0")
	}
	r.Set("a", 5)
	r.AddAt(r.Index("a"), 3)
	r.AddAt(r.Index("b"), 1)
	if r.Get("a") != 8 || r.Get("b") != 1 {
		t.Fatal("set/add")
	}
	names := r.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("names %v", names)
	}
}

func TestFullDuplexPair(t *testing.T) {
	// Two cards wired back to back; traffic flows both ways without
	// interference.
	e := sim.NewEngine()
	a := New(e, Config{})
	b := New(e, Config{})
	a.Port(0).SetLink(wire.NewLink(e, wire.Rate10G, sim.Microsecond, b.Port(0)))
	b.Port(0).SetLink(wire.NewLink(e, wire.Rate10G, sim.Microsecond, a.Port(0)))

	var aGot, bGot int
	a.Port(0).OnReceive = func(*wire.Frame, sim.Time, timing.Timestamp) { aGot++ }
	b.Port(0).OnReceive = func(*wire.Frame, sim.Time, timing.Timestamp) { bGot++ }
	for i := 0; i < 100; i++ {
		a.Port(0).Enqueue(wire.One(frame(64)))
		b.Port(0).Enqueue(wire.One(frame(1518)))
	}
	e.Run()
	if aGot != 100 || bGot != 100 {
		t.Fatalf("duplex delivery %d/%d", aGot, bGot)
	}
}

func BenchmarkPortForwardingPath(b *testing.B) {
	e := sim.NewEngine()
	c := New(e, Config{TxQueueCap: 1 << 20})
	p := c.Port(0)
	sink := wire.EndpointFunc(func(*wire.Frame, sim.Time, sim.Time) {})
	p.SetLink(wire.NewLink(e, wire.Rate10G, 0, sink))
	f := frame(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.Enqueue(wire.One(f))
		for e.Step() {
		}
	}
}
