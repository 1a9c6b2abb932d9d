// Quickstart: measure the latency of a switch with OSNT in ~40 lines.
//
// The rig is declared as a topology graph: an OSNT tester (simulated
// NetFPGA-10G) wired through a store-and-forward switch, generator on
// port 0, capture on port 1. The latency distribution comes straight
// from the hardware timestamps.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"osnt/internal/core"
	"osnt/internal/netfpga"
	"osnt/internal/packet"
	"osnt/internal/sim"
	"osnt/internal/switchsim"
	"osnt/internal/topo"
)

func main() {
	engine := sim.NewEngine()

	// Demo Part I topology, declaratively: tester port 0 → switch port 0,
	// switch port 1 ↔ tester port 1.
	t := topo.New().
		Tester("osnt", netfpga.Config{}).
		DUT("sw", switchsim.Config{}).
		Link("osnt:0", "sw:0").
		Duplex("sw:1", "osnt:1").
		MustBuild(engine)

	probe := packet.UDPSpec{
		SrcMAC:  packet.MAC{0x02, 0x05, 0x17, 0, 0, 0x01},
		DstMAC:  packet.MAC{0x02, 0x05, 0x17, 0, 0, 0x02},
		SrcIP:   packet.IP4{10, 0, 0, 1},
		DstIP:   packet.IP4{10, 0, 0, 2},
		SrcPort: 5000, DstPort: 7000,
	}
	// Pre-learn the capture-side station so nothing floods.
	t.DUT("sw").Learn(probe.DstMAC, 1)

	result, err := (&core.LatencyTest{
		Card:   t.Tester("osnt"),
		TxPort: 0, RxPort: 1,
		Spec:      probe,
		FrameSize: 512,
		Load:      0.2, // 20% of 10G line rate
		Duration:  10 * sim.Millisecond,
	}).Run()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("sent %d packets, captured %d, DUT loss %.2f%%\n",
		result.TxPackets, result.RxPackets, result.LossFraction()*100)
	fmt.Printf("switch latency: %s\n", result.Latency.Summary(1e6, "µs"))
}
