package wire

import (
	"bytes"
	"testing"

	"osnt/internal/race"
	"osnt/internal/sim"
)

func TestPoolGetSizesFrame(t *testing.T) {
	p := NewPool()
	f := p.Get(60)
	if len(f.Data) != 60 || f.Size != 60+FCSLen {
		t.Fatalf("Get(60): len=%d size=%d", len(f.Data), f.Size)
	}
	f.SrcPort = 3
	f.Release()
	g := p.Get(10)
	if len(g.Data) != 10 || g.Size != 10+FCSLen || g.SrcPort != 0 {
		t.Fatalf("recycled frame not reset: len=%d size=%d src=%d", len(g.Data), g.Size, g.SrcPort)
	}
}

func TestReleaseIsIdempotentAndSafeOnUnpooled(t *testing.T) {
	NewFrame([]byte{1, 2, 3}).Release() // unpooled: no-op
	p := NewPool()
	f := p.Get(8)
	f.Release()
	f.Release() // second release: no-op, must not double-insert
}

func TestCopyFromReusesBuffer(t *testing.T) {
	tmpl := NewFrame(bytes.Repeat([]byte{0xAB}, 100))
	tmpl.SrcPort = 7
	p := NewPool()
	f := p.Get(200)
	buf := &f.Data[0]
	f.CopyFrom(tmpl)
	if &f.Data[0] != buf {
		t.Fatal("CopyFrom reallocated a sufficient buffer")
	}
	if !bytes.Equal(f.Data, tmpl.Data) || f.Size != tmpl.Size || f.SrcPort != 7 {
		t.Fatalf("copy mismatch: len=%d size=%d src=%d", len(f.Data), f.Size, f.SrcPort)
	}
	// Growing copy must still work.
	small := p.Get(4)
	small.CopyFrom(tmpl)
	if !bytes.Equal(small.Data, tmpl.Data) {
		t.Fatal("growing CopyFrom lost bytes")
	}
}

func TestCloneOfPooledFrameIsUnpooled(t *testing.T) {
	p := NewPool()
	f := p.Get(16)
	c := f.Clone()
	if c.pool != nil {
		t.Fatal("clone inherited the pool")
	}
	c.Release() // must be a no-op
}

func TestPoolStatsTrackRecycling(t *testing.T) {
	p := NewPool()
	f := p.Get(64)
	f.Release()
	p.Get(64)
	gets, puts, fresh := p.Stats()
	if gets != 2 || puts != 1 {
		t.Fatalf("gets=%d puts=%d", gets, puts)
	}
	if fresh > gets {
		t.Fatalf("fresh=%d > gets=%d", fresh, gets)
	}
}

// Steady-state link delivery must not allocate: the delivery record, its
// event, and its closure are all recycled per link.
func TestLinkDeliveryZeroAllocSteadyState(t *testing.T) {
	if race.Enabled {
		t.Skip("sync.Pool drops Puts under -race; strict alloc bound only holds in normal builds")
	}
	e := sim.NewEngine()
	p := NewPool()
	var got int
	sink := EndpointFunc(func(f *Frame, _, _ sim.Time) {
		got++
		f.Release()
	})
	l := NewLink(e, Rate10G, 0, sink)
	send := func(n int) {
		for i := 0; i < n; i++ {
			l.Transmit(One(p.Get(60)), e.Now())
		}
		e.Run()
	}
	send(100) // warm pool and free lists
	avg := testing.AllocsPerRun(10, func() { send(100) })
	if avg > 2 {
		t.Errorf("steady-state transmit+delivery allocates %.1f per 100 frames", avg)
	}
	if got < 1100 {
		t.Fatalf("delivered %d", got)
	}
}
