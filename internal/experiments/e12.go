package experiments

import (
	"fmt"

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

// E12DownLoads sweeps the downstream offered load as a fraction of the
// 40G server port's line rate. The single 10G edge port it targets
// saturates at 0.25, so the sweep crosses the conversion knee from
// underload through saturation into sustained overload. Heaviest first
// for the worker pool.
var E12DownLoads = []float64{1.0, 0.5, 0.3, 0.27, 0.25, 0.22, 0.15}

// e12FrameSize is the probe size; 512 B keeps the embedded timestamp
// inside a 64 B snap and makes the service slots easy to reason about.
const e12FrameSize = 512

// e12EdgeQueueCap bounds the converting DUT's egress FIFOs (frames).
// Shallow enough that overload shows tail drop within the measurement
// window, deep enough that the pre-knee points are lossless.
const e12EdgeQueueCap = 256

// e12EdgeMAC is the station address behind 10G edge port p.
func e12EdgeMAC(p int) packet.MAC {
	return packet.MAC{0x02, 0x05, 0x17, 0x12, 0, byte(p + 1)}
}

// e12UplinkMAC is the station behind the 40G uplink (the server side).
var e12UplinkMAC = packet.MAC{0x02, 0x05, 0x17, 0x12, 0xff, 0x01}

// E12MixedRateFanIn exercises both directions of a mixed-rate edge/uplink
// rig: four 10G tester ports and one 40G uplink meet in a converting DUT
// (switchsim PortRates — 10G edge ports next to a 40G port, egress FIFOs
// drained at each port's own rate).
//
// Upstream, the four edge ports offer Poisson traffic at 100% of line
// rate, 40 Gb/s aggregate, into the 40G uplink. Ingress serialisation
// means the fan-in can never exceed the uplink's drain rate, so this
// direction must stay lossless with bounded queueing at any load — the
// scaling claim, reported as up(Mpps)/up-p99/up-drops.
//
// Downstream is where conversion bites: the 40G server port sweeps
// offered load toward a single 10G edge station. Above 25% of 40G the
// edge port's egress FIFO — draining at 10G, the store-and-forward
// conversion point — first develops queueing delay bounded by the FIFO
// depth, then tail-drops the excess: the knee and drop onset move across
// the table exactly as fan-in overload does on real hardware. Latency is
// measured the paper's way (embedded TX timestamps vs MAC RX timestamps)
// with an idealised host path, so the figures isolate the DUT.
func E12MixedRateFanIn(duration sim.Duration) *stats.Table {
	if duration == 0 {
		duration = 20 * sim.Millisecond
	}
	tbl := &stats.Table{
		Title: "E12: mixed-rate fan-in/fan-out — 4×10G edge + 40G uplink through a converting DUT (512B Poisson)",
		Columns: []stats.Column{
			{Name: "down-load(%)", Verb: "%.0f"}, {Name: "up(Mpps)", Verb: "%.3f"}, {Name: "up-p99(µs)", Verb: "%.2f"},
			{Name: "up-drops", Verb: "%d"}, {Name: "down-offered(Mpps)", Verb: "%.3f"}, {Name: "down-rx(Mpps)", Verb: "%.3f"},
			{Name: "down-p99(µs)", Verb: "%.2f"}, {Name: "down-qdrops", Verb: "%d"}, {Name: "down-loss(%)", Verb: "%.2f"},
		},
	}
	tbl.Rows = sweeper().Rows(len(E12DownLoads), func(i int) [][]any {
		downLoad := E12DownLoads[i]
		e := sim.NewEngine()
		b := topo.New().
			Tester("osnt", netfpga.Config{}). // 4×10G edge card
			Tester("srv", netfpga.Config{Ports: 1, Rate: wire.Rate40G}).
			DUT("dut", switchsim.Config{
				Ports:     5,
				PortRates: []wire.Rate{0, 0, 0, 0, wire.Rate40G},
				// Overspeed lookup (86.8 ns for a 512 B frame against its
				// 106.4 ns arrival slot at 40G), so the only bottleneck in
				// the rig is the speed-converting egress FIFO itself.
				LookupPerPacket: 10 * sim.Nanosecond,
				LookupPerByte:   sim.Picoseconds(150),
				EgressQueueCap:  e12EdgeQueueCap,
			})
		for p := 0; p < 4; p++ {
			b.Duplex(osntPorts[p], fmt.Sprintf("dut:%d", p))
		}
		b.Duplex("dut:4", "srv:0")
		t := b.MustBuild(e)
		dut := t.DUT("dut")
		dut.Learn(e12UplinkMAC, 4)
		for p := 0; p < 4; p++ {
			dut.Learn(e12EdgeMAC(p), p)
		}

		// The measurement isolates the DUT, so both capture paths use the
		// shared idealised host: every MAC-captured probe reaches its
		// latency sink.
		latencySink := func(h *stats.Histogram) func(mon.Record) {
			return func(rec mon.Record) {
				if ts, ok := gen.ExtractTimestamp(rec.Data, gen.DefaultTimestampOffset); ok {
					h.Record(int64(rec.TS.Sub(ts)))
				}
			}
		}
		upLat := stats.NewHistogram()
		downLat := stats.NewHistogram()
		upMon := t.AttachMonitor("srv:0", idealCapture(latencySink(upLat)))
		downMon := t.AttachMonitor(osntPorts[0], idealCapture(latencySink(downLat)))

		newGen := func(port string, spec packet.UDPSpec, rate wire.Rate, load float64, seed int) *gen.Generator {
			slot := wire.SerializationTime(e12FrameSize, rate)
			return startGen(t.Port(port), gen.Config{
				Source:         &gen.UDPFlowSource{Spec: spec, FrameSize: e12FrameSize},
				Spacing:        gen.Poisson{Mean: sim.Duration(float64(slot) / load)},
				EmbedTimestamp: true,
				Seed:           runner.PointSeed(0xe12, seed),
			})
		}

		// Upstream fan-in: every edge port at 100% of 10G line rate; the
		// downstream generator joins them last.
		gens := make([]*gen.Generator, 5)
		for p := 0; p < 4; p++ {
			spec := probeSpec
			spec.SrcMAC = e12EdgeMAC(p)
			spec.DstMAC = e12UplinkMAC
			spec.SrcPort = uint16(5000 + p)
			gens[p] = newGen(osntPorts[p], spec, wire.Rate10G, 1.0, i*8+p)
		}
		// Downstream fan-out: the 40G server sweeps load toward edge
		// station 0 — a 4:1 down-conversion past 25%.
		downSpec := probeSpec
		downSpec.SrcMAC = e12UplinkMAC
		downSpec.DstMAC = e12EdgeMAC(0)
		downSpec.SrcPort = 6000
		gens[4] = newGen("srv:0", downSpec, wire.Rate40G, downLoad, i*8+4)
		drive(e, sim.Time(duration), gens...)

		downOffered := offered(gens[4])
		downRx := downMon.Seen().Packets
		qdrops := dut.Port(0).Drops()
		secs := duration.Seconds()
		lossPct := 0.0
		if downOffered > 0 {
			lossPct = float64(downOffered-downRx) / float64(downOffered) * 100
		}
		return [][]any{{
			downLoad * 100, float64(upMon.Seen().Packets) / secs / 1e6, float64(upLat.Percentile(99)) / 1e6,
			dut.Port(4).Drops(), float64(downOffered) / secs / 1e6, float64(downRx) / secs / 1e6,
			float64(downLat.Percentile(99)) / 1e6, qdrops, lossPct,
		}}
	})
	return tbl
}
