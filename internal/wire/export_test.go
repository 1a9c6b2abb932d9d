package wire

import (
	"testing"

	"osnt/internal/sim"
)

// export is one run a boundary link handed over.
type export struct {
	n, size           int // frames in the run, size of the first
	firstBit, lastBit sim.Time
	key               uint64
}

// captureExporter records what the boundary link hands over.
type captureExporter struct{ got []export }

func (c *captureExporter) Export(r Run, firstBit, lastBit sim.Time, key uint64) {
	c.got = append(c.got, export{r.Len(), r.Frame(0).Size, firstBit, lastBit, key})
}

func TestNewExportLinkRejectsZeroDelay(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewExportLink with zero delay did not panic")
		}
	}()
	NewExportLink(sim.NewEngine(), Rate10G, 0, &captureExporter{})
}

// TestExportLinkMirrorsLocalDelivery holds the boundary link to the
// local link's exact timing and accounting: the exported
// (firstBit, lastBit) instants equal the instants a NewLink with the
// same rate and delay delivers at, the busy horizon and TX counters
// match, and — the point of exporting — no delivery event is scheduled
// on the transmitting engine.
func TestExportLinkMirrorsLocalDelivery(t *testing.T) {
	const delay = 5 * sim.Nanosecond
	// Local reference.
	le := sim.NewEngine()
	var refStart, refEnd sim.Time
	local := NewLink(le, Rate10G, delay, EndpointFunc(func(f *Frame, start, at sim.Time) {
		refStart, refEnd = start, at
	}))
	localTx := local.Transmit(One(NewFrame(make([]byte, 60))), le.Now())
	le.Run()

	// Boundary link, same wire parameters.
	ee := sim.NewEngine()
	exp := &captureExporter{}
	bl := NewExportLink(ee, Rate10G, delay, exp)
	exportTx := bl.Transmit(One(NewFrame(make([]byte, 60))), ee.Now())

	if exportTx != localTx {
		t.Fatalf("serialization end: export %v, local %v", exportTx, localTx)
	}
	if len(exp.got) != 1 || exp.got[0].n != 1 {
		t.Fatalf("exporter saw %+v, want one bare frame", exp.got)
	}
	got := exp.got[0]
	if got.firstBit != refStart || got.lastBit != refEnd {
		t.Fatalf("exported instants (%v, %v) != local delivery (%v, %v)",
			got.firstBit, got.lastBit, refStart, refEnd)
	}
	if bl.txBytes != local.txBytes {
		t.Fatalf("wire bytes: export %d, local %d", bl.txBytes, local.txBytes)
	}
	if bl.busyUntil != local.busyUntil {
		t.Fatalf("busy horizon: export %v, local %v", bl.busyUntil, local.busyUntil)
	}
	if _, pending := ee.Peek(); pending {
		t.Fatal("export link scheduled a local event; delivery belongs to the destination shard")
	}
}

// TestExportLinkCarriesDeliveryKey pins the Exporter contract: the key
// is PrioDefault until the topology assigns one, and every subsequent
// export carries the assigned structural key.
func TestExportLinkCarriesDeliveryKey(t *testing.T) {
	e := sim.NewEngine()
	exp := &captureExporter{}
	l := NewExportLink(e, Rate10G, sim.Microsecond, exp)
	end := l.Transmit(One(NewFrame(make([]byte, 60))), e.Now())
	l.SetDeliveryKey(42)
	l.Transmit(One(NewFrame(make([]byte, 60))), end)
	if exp.got[0].key != sim.PrioDefault || exp.got[1].key != 42 {
		t.Fatalf("exported keys %d, %d; want PrioDefault then 42",
			exp.got[0].key, exp.got[1].key)
	}
}

// TestExportTrainKeepsTheRunWhole checks that a coalesced run crosses
// the boundary as one export carrying the first frame's arrival window
// and the link's key.
func TestExportTrainKeepsTheRunWhole(t *testing.T) {
	const delay = 30 * sim.Nanosecond
	e := sim.NewEngine()
	exp := &captureExporter{}
	l := NewExportLink(e, Rate10G, delay, exp)
	l.SetDeliveryKey(7)
	l.Transmit(trainRun(60, 1514, 124), 0)
	if len(exp.got) != 1 {
		t.Fatalf("exporter saw %d runs, want one whole train", len(exp.got))
	}
	got := exp.got[0]
	first := SerializationTime(64, Rate10G)
	if got.n != 3 || got.key != 7 {
		t.Fatalf("exported train n=%d key=%d, want n=3 key=7", got.n, got.key)
	}
	if got.firstBit != sim.Time(delay) || got.lastBit != sim.Time(delay).Add(first) {
		t.Fatalf("train window (%v, %v), want first frame's (%v, %v)",
			got.firstBit, got.lastBit, sim.Time(delay), sim.Time(delay).Add(first))
	}
	if _, pending := e.Peek(); pending {
		t.Fatal("export link scheduled a local event for the train")
	}
}

// TestDeliverTrainUnbundlesPerFrame checks what the shard barrier's
// replay relies on: a train delivered to a per-frame endpoint reaches it
// frame by frame, each with its abutting (firstBit, lastBit) window
// recovered arithmetically.
func TestDeliverTrainUnbundlesPerFrame(t *testing.T) {
	var got []struct{ start, at sim.Time }
	var peer Endpoint = EndpointFunc(func(f *Frame, start, at sim.Time) {
		got = append(got, struct{ start, at sim.Time }{start, at})
	})
	tr := &Train{Frames: trainFrames(60, 1514), Rate: Rate10G}
	s0, s1 := SerializationTime(64, Rate10G), SerializationTime(1518, Rate10G)
	start := sim.Time(1000)
	peer.Receive(tr.Run(), start, start.Add(s0))
	if len(got) != 2 {
		t.Fatalf("delivered %d frames, want 2", len(got))
	}
	if got[0].start != start || got[0].at != start.Add(s0) {
		t.Fatalf("frame 0 window (%v, %v)", got[0].start, got[0].at)
	}
	if got[1].start != got[0].at || got[1].at != got[0].at.Add(s1) {
		t.Fatalf("frame 1 window (%v, %v), want abutting (%v, %v)",
			got[1].start, got[1].at, got[0].at, got[0].at.Add(s1))
	}
}
