package experiments

import (
	"osnt/internal/gen"
	"osnt/internal/mon"
	"osnt/internal/netfpga"
	"osnt/internal/packet"
	"osnt/internal/runner"
	"osnt/internal/sim"
	"osnt/internal/stats"
	"osnt/internal/switchsim"
	"osnt/internal/topo"
	"osnt/internal/wire"
)

// E18TrainCaps sweeps the generator's frame-train cap. Cap 1 is the
// per-frame reference path every other cap must reproduce bit-exactly.
var E18TrainCaps = []int{1, 4, 16, 64}

// E18FrameSizes spans the same 100G extremes as E14: 64 B is the
// 148.81 Mpps event-rate worst case batching exists for, 1518 B the
// easy case where per-frame events were already cheap.
var E18FrameSizes = []int{64, 512, 1518}

// e18DUT is a 2-port 100G store-and-forward switch whose lookup stays
// just under the back-to-back slot at every frame size (5.2 vs 6.72 ns
// at 64 B), so a saturated single-flow stream forwards losslessly and
// the train fast path's "lookups chain without queueing" guard holds.
func e18DUT() switchsim.Config {
	return switchsim.Config{
		Ports:           2,
		PortRates:       []wire.Rate{wire.Rate100G, wire.Rate100G},
		LookupPerPacket: 2 * sim.Nanosecond,
		LookupPerByte:   sim.Picoseconds(50),
	}
}

// E18TrainSpeedup measures what GRO/GSO-style frame-train coalescing
// buys the simulator on the 100G tier: one flow at 100% of line rate
// crosses a store-and-forward DUT into an idealised capture, once per
// train cap. At load 1.0 every frame abuts its predecessor, so the
// generator emits full trains and every hot-path layer — generator MAC,
// link, switch lookup and egress, capture steering and ring — handles
// one event per train instead of one per frame; cap 1 is the unchanged
// per-frame path. A bare frame costs 5 events: the generator emit, the
// two link deliveries (each also runs its zero-delay hop's
// transmit-done, see wire.Egress), the switch lookup and the capture
// drain. A train costs 7, because both transmit-dones keep their own
// events.
//
// The table is the proof obligation, not just the speedup: ev/frame is
// engine events fired per frame delivered (the cost batching removes),
// ev-x its improvement over cap 1, and digest an order-sensitive
// FNV-1a over every delivered record's (timestamp, header digest). ok
// requires the digest to be bit-identical to the cap-1 run — trains
// may only coalesce bookkeeping, never move, reorder or retime a frame.
func E18TrainSpeedup(duration sim.Duration) *stats.Table {
	if duration == 0 {
		duration = 2 * sim.Millisecond
	}
	tbl := &stats.Table{
		Title: "E18: frame-train coalescing at 100G — events per frame vs train cap (single flow at 100% load, bit-exact across caps)",
		Columns: []stats.Column{
			{Name: "frame(B)", Verb: "%d"}, {Name: "cap", Verb: "%d"}, {Name: "host(Mpps)", Verb: "%.3f"},
			{Name: "ev/frame", Verb: "%.3f"}, {Name: "ev-x", Verb: "%.2f"}, {Name: "digest", Verb: "%016x"},
			{Name: "ok", Verb: "%v"},
		},
	}
	tbl.Rows = sweeper().Rows(len(E18FrameSizes), func(i int) [][]any {
		fs := E18FrameSizes[i]
		rows := make([][]any, 0, len(E18TrainCaps))
		var refDigest uint64
		var refEvPerFrame float64
		for _, cap := range E18TrainCaps {
			e := sim.NewEngine()
			t := topo.New().
				Tester("tx", netfpga.Config{Ports: 1, Rate: wire.Rate100G}).
				Tester("rx", netfpga.Config{Ports: 1, Rate: wire.Rate100G}).
				DUT("sw", e18DUT()).
				Link("tx:0", "sw:0").
				Link("sw:1", "rx:0").
				MustBuild(e)
			t.DUT("sw").Learn(probeSpec.DstMAC, 1)

			digest := uint64(e17StreamSeed)
			m := t.AttachMonitor("rx:0", mon.Config{
				SnapLen:   64,
				HashBytes: packet.HeaderDigestBytes,
				Queues: []mon.QueueConfig{{
					RingSize:      1 << 20,
					HostPerPacket: sim.Picosecond,
					HostPerByte:   -1,
				}},
				RecycleRecords: true,
				Sink: func(rec mon.Record) {
					digest = fnvFold(fnvFold(digest, uint64(rec.TS)), rec.Hash)
				},
			})

			drive(e, sim.Time(duration), startGen(t.Port("tx:0"), gen.Config{
				Source:   &gen.UDPFlowSource{Spec: probeSpec, NumFlows: 1, FrameSize: fs},
				Spacing:  gen.CBRForLoad(fs, wire.Rate100G, 1.0),
				Seed:     runner.PointSeed(0xe18, i),
				MaxTrain: cap,
				Until:    sim.Time(duration),
			}))

			frames := m.Delivered().Packets
			evPerFrame := 0.0
			if frames > 0 {
				evPerFrame = float64(e.Fired()) / float64(frames)
			}
			if cap == 1 {
				refDigest = digest
				refEvPerFrame = evPerFrame
			}
			evX := 0.0
			if evPerFrame > 0 {
				evX = refEvPerFrame / evPerFrame
			}
			rows = append(rows, []any{
				fs, cap, float64(frames) / duration.Seconds() / 1e6, evPerFrame, evX, digest, digest == refDigest,
			})
		}
		return rows
	})
	return tbl
}
