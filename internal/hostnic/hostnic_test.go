package hostnic

import (
	"testing"

	"osnt/internal/sim"
	"osnt/internal/wire"
)

func frame(n int) *wire.Frame { return wire.NewFrame(make([]byte, n-4)) }

func TestCoalesceByCount(t *testing.T) {
	e := sim.NewEngine()
	var swTS []sim.Time
	var arrivals []sim.Time
	nic := New(e, Config{CoalesceCount: 4, Seed: 1,
		Sink: func(_ []byte, ts, at sim.Time) { swTS = append(swTS, ts); arrivals = append(arrivals, at) }})
	l := wire.NewLink(e, wire.Rate10G, 0, nic)
	for i := 0; i < 4; i++ {
		l.Transmit(wire.One(frame(64)), e.Now())
	}
	e.Run()
	if len(swTS) != 4 {
		t.Fatalf("delivered %d", len(swTS))
	}
	// All packets in the batch share one software timestamp (one
	// interrupt)...
	for _, ts := range swTS {
		if ts != swTS[0] {
			t.Fatal("batch timestamps differ")
		}
	}
	// ...which is strictly later than every true arrival.
	for _, at := range arrivals {
		if swTS[0] <= at {
			t.Fatal("software timestamp not delayed")
		}
	}
}

func TestCoalesceByTimeout(t *testing.T) {
	e := sim.NewEngine()
	n := 0
	nic := New(e, Config{CoalesceCount: 64, CoalesceTimeout: 30 * sim.Microsecond, Seed: 2,
		Sink: func([]byte, sim.Time, sim.Time) { n++ }})
	l := wire.NewLink(e, wire.Rate10G, 0, nic)
	l.Transmit(wire.One(frame(64)), e.Now()) // a single frame must still be delivered
	e.Run()
	if n != 1 {
		t.Fatalf("delivered %d", n)
	}
}

func TestTimestampErrorDominatesHardware(t *testing.T) {
	// E6's essence: mean software timestamp error must exceed the 6.25ns
	// hardware quantum by orders of magnitude.
	e := sim.NewEngine()
	var worst, sum sim.Duration
	cnt := 0
	nic := New(e, Config{Seed: 3, Sink: func(_ []byte, ts, at sim.Time) {
		errD := ts.Sub(at)
		sum += errD
		cnt++
		if errD > worst {
			worst = errD
		}
	}})
	l := wire.NewLink(e, wire.Rate10G, 0, nic)
	for i := 0; i < 1000; i++ {
		at := sim.Time(i) * sim.Time(10*sim.Microsecond)
		e.Schedule(at, func() { l.Transmit(wire.One(frame(256)), e.Now()) })
	}
	e.Run()
	if cnt != 1000 {
		t.Fatalf("delivered %d", cnt)
	}
	mean := sum / sim.Duration(cnt)
	if mean < sim.Microsecond {
		t.Fatalf("mean software error %v, expected ≫ 1µs", mean)
	}
	if worst < 10*sim.Microsecond {
		t.Fatalf("worst software error %v", worst)
	}
}

func TestBatchesIndependent(t *testing.T) {
	// Two widely spaced packets land in different batches with different
	// timestamps.
	e := sim.NewEngine()
	var ts []sim.Time
	nic := New(e, Config{Seed: 4, Sink: func(_ []byte, s, _ sim.Time) { ts = append(ts, s) }})
	l := wire.NewLink(e, wire.Rate10G, 0, nic)
	l.Transmit(wire.One(frame(64)), e.Now())
	e.Schedule(sim.Time(sim.Millisecond), func() { l.Transmit(wire.One(frame(64)), e.Now()) })
	e.Run()
	if len(ts) != 2 || ts[0] == ts[1] {
		t.Fatalf("timestamps %v", ts)
	}
}

func TestDataCopied(t *testing.T) {
	e := sim.NewEngine()
	var got [][]byte
	nic := New(e, Config{Seed: 5, Sink: func(d []byte, _, _ sim.Time) { got = append(got, d) }})
	f := frame(64)
	f.Data[0] = 0x42
	nic.Receive(wire.One(f), 0, 0)
	f.Data[0] = 0x00 // datapath reuses the buffer
	e.Run()
	if len(got) != 1 || got[0][0] != 0x42 {
		t.Fatal("NIC did not copy packet data")
	}
}
