package integration_test

import (
	"testing"

	"osnt/internal/gen"
	"osnt/internal/mon"
	"osnt/internal/netfpga"
	"osnt/internal/shard"
	"osnt/internal/sim"
	"osnt/internal/switchsim"
	"osnt/internal/timing"
	"osnt/internal/topo"
	"osnt/internal/wire"
)

// tracedRecord is what a capture record says about a frame's path: its
// receive timestamp and the hop stamps it carried.
type tracedRecord struct {
	TS    timing.Timestamp
	Trace wire.HopTrace
}

// runTracedChain drives a 100G tx → sw → rx chain with 1 µs cables at
// line rate in 64-frame trains and returns every captured record in
// capture order. With two shards, rx sits on shard 1, so the sw → rx
// cable is a shard cut and the switch transmits into an export link.
func runTracedChain(t *testing.T, shards int) []tracedRecord {
	t.Helper()
	const dur = 100 * sim.Microsecond
	cl := shard.NewCluster(shards)
	defer cl.Close()
	top, err := topo.New().
		Tester("tx", netfpga.Config{Ports: 1, Rate: wire.Rate100G}).
		Tester("rx", netfpga.Config{Ports: 1, Rate: wire.Rate100G}).
		DUT("sw", switchsim.Config{
			Ports:           2,
			Rate:            wire.Rate100G,
			LookupPerPacket: sim.Nanosecond,
			LookupPerByte:   sim.Picoseconds(10),
		}).
		LinkAt("tx:0", "sw:0", 0, sim.Microsecond).
		LinkAt("sw:1", "rx:0", 0, sim.Microsecond).
		BuildPartitioned(cl.Partition(func(name string) int {
			if name == "rx" {
				return shards - 1
			}
			return 0
		}))
	if err != nil {
		t.Fatal(err)
	}
	top.DUT("sw").Learn(spec.DstMAC, 1)
	var recs []tracedRecord
	top.AttachMonitor("rx:0", mon.Config{
		SnapLen: 64,
		Queues: []mon.QueueConfig{{
			RingSize:      1 << 14,
			HostPerPacket: sim.Nanosecond,
			HostPerByte:   -1,
			Sink:          func(r mon.Record) { recs = append(recs, tracedRecord{r.TS, r.Trace}) },
		}},
	})
	g, err := gen.New(top.Port("tx:0"), gen.Config{
		Source:   &gen.UDPFlowSource{Spec: spec, FrameSize: 512},
		Spacing:  gen.CBRForLoad(512, wire.Rate100G, 1.0),
		Pool:     wire.DefaultPool,
		MaxTrain: 64,
		Until:    sim.Time(dur),
	})
	if err != nil {
		t.Fatal(err)
	}
	g.Start(0)
	cl.RunUntil(sim.Time(dur))
	g.Stop()
	cl.Run()
	return recs
}

// TestTrainHopTraceSurvivesShardCut pins that a switch stamps a train's
// hop trace before the frames leave it, so the stamps cross a shard cut
// with the frames: every record captured behind the cut carries the same
// trace and timestamp as in the 1-shard run.
func TestTrainHopTraceSurvivesShardCut(t *testing.T) {
	ref := runTracedChain(t, 1)
	if len(ref) == 0 {
		t.Fatal("nothing captured")
	}
	for i, r := range ref {
		if r.Trace.Len() != 1 {
			t.Fatalf("1-shard record %d carries %d hops, want 1", i, r.Trace.Len())
		}
	}
	got := runTracedChain(t, 2)
	if len(got) != len(ref) {
		t.Fatalf("2-shard run captured %d records, 1-shard %d", len(got), len(ref))
	}
	lost := 0
	for i := range ref {
		if got[i].Trace.Len() == 0 {
			lost++
		}
	}
	if lost > 0 {
		t.Fatalf("%d of %d records lost their hop trace across the shard cut", lost, len(ref))
	}
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("record %d: 2-shard %+v, 1-shard %+v", i, got[i], ref[i])
		}
	}
}
