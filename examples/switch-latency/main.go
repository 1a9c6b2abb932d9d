// Demo Part I: "accurately measure the packet-processing latency of a
// legacy switch under different load conditions".
//
// Two OSNT ports are connected to the switch under test. One generates
// traffic at a finely controlled rate with the transmission timestamp
// embedded in each packet; the other captures packets after they traverse
// the switch, and the userspace application estimates the switching
// latency from the two hardware timestamps — exactly the workflow the
// paper demonstrates. The sweep also contrasts store-and-forward and
// cut-through forwarding.
//
//	go run ./examples/switch-latency
package main

import (
	"fmt"
	"log"

	"osnt/internal/core"
	"osnt/internal/gen"
	"osnt/internal/netfpga"
	"osnt/internal/packet"
	"osnt/internal/sim"
	"osnt/internal/stats"
	"osnt/internal/switchsim"
	"osnt/internal/topo"
	"osnt/internal/wire"
)

var probe = packet.UDPSpec{
	SrcMAC:  packet.MAC{0x02, 0x05, 0x17, 0, 0, 0x01},
	DstMAC:  packet.MAC{0x02, 0x05, 0x17, 0, 0, 0x02},
	SrcIP:   packet.IP4{10, 0, 0, 1},
	DstIP:   packet.IP4{10, 0, 0, 2},
	SrcPort: 5000, DstPort: 7000,
}

func measure(mode switchsim.ForwardingMode, frameSize int, load float64) *core.LatencyResult {
	engine := sim.NewEngine()
	// The Demo Part I rig as a topology graph, with the capture-side
	// station pre-learned so nothing floods.
	t := topo.New().
		Tester("osnt", netfpga.Config{}).
		DUT("sw", switchsim.Config{
			Mode:          mode,
			LookupPerByte: sim.Picoseconds(820),
			LookupJitter:  0.5,
			Seed:          11,
		}).
		Link("osnt:0", "sw:0").
		Duplex("sw:1", "osnt:1").
		MustBuild(engine)
	t.DUT("sw").Learn(probe.DstMAC, 1)
	slot := wire.SerializationTime(frameSize, wire.Rate10G)
	res, err := (&core.LatencyTest{
		Card: t.Tester("osnt"), TxPort: 0, RxPort: 1,
		Spec: probe, FrameSize: frameSize, Load: load,
		Spacing:  gen.Poisson{Mean: sim.Duration(float64(slot) / load)},
		Duration: 20 * sim.Millisecond,
		Seed:     42,
	}).Run()
	if err != nil {
		log.Fatal(err)
	}
	return res
}

func main() {
	tbl := &stats.Table{
		Title: "Demo Part I: switching latency under different load conditions",
		Columns: []stats.Column{
			{Name: "mode", Verb: "%v"}, {Name: "frame(B)", Verb: "%d"}, {Name: "load(%)", Verb: "%.0f"},
			{Name: "mean(µs)", Verb: "%.2f"}, {Name: "p99(µs)", Verb: "%.2f"}, {Name: "loss(%)", Verb: "%.2f"},
		},
	}
	for _, mode := range []switchsim.ForwardingMode{switchsim.StoreAndForward, switchsim.CutThrough} {
		for _, fs := range []int{64, 512, 1518} {
			for _, load := range []float64{0.2, 0.8, 0.95} {
				res := measure(mode, fs, load)
				tbl.AddRow(mode, fs, load*100, res.Latency.Mean()/1e6,
					float64(res.Latency.Percentile(99))/1e6, res.LossFraction()*100)
			}
		}
	}
	fmt.Println(tbl.String())
	fmt.Println("note: cut-through latency is lower by the store time of the frame;")
	fmt.Println("both modes queue (and eventually drop) as the load approaches the")
	fmt.Println("switch's internal capacity — the hockey stick of Demo Part I.")
}
