// Command oflops runs the OFLOPS-turbo measurement suite against the
// simulated OpenFlow switch (the demo's Part II), printing per-module
// results: flow insertion/modification latency split into control- and
// data-plane components, forwarding consistency, packet-in latency, and
// echo RTT under dataplane load.
//
// Usage:
//
//	oflops                 # full suite with default switch model
//	oflops -rules 256      # batch size for the flow-table modules
//	oflops -hw-lag 3ms     # exaggerate the hardware install lag
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"osnt/internal/oflops"
	"osnt/internal/ofswitch"
	"osnt/internal/sim"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("oflops: ")

	rules := flag.Int("rules", 128, "flow-table batch size")
	hwLag := flag.Duration("hw-lag", 1500*time.Microsecond, "hardware install lag")
	tax := flag.Duration("cpu-tax", 150*time.Nanosecond, "management CPU cost per forwarded packet")
	flag.Parse()
	if *rules < 1 {
		log.Fatalf("-rules %d: need at least one rule", *rules)
	}

	swCfg := ofswitch.Config{
		HWInstallDelay:  sim.DurationOf(*hwLag),
		DataplaneCPUTax: sim.DurationOf(*tax),
	}

	fmt.Println("== OFLOPS-turbo measurement suite (simulated OpenFlow switch) ==")

	{
		r := oflops.NewRunner(oflops.Config{Switch: swCfg})
		m := &oflops.FlowInsertLatency{Rules: *rules}
		if err := r.Run(m); err != nil {
			log.Fatal(err)
		}
		h, seen := m.DataLatencies()
		fmt.Printf("\n[%s]\n", m.Name())
		fmt.Printf("  control plane (barrier ack): %v\n", m.ControlLatency())
		fmt.Printf("  data plane (first packet):   %s\n", h.Summary(1e9, "ms"))
		fmt.Printf("  rules confirmed:             %d/%d\n", seen, *rules)
	}

	{
		r := oflops.NewRunner(oflops.Config{Switch: swCfg})
		m := &oflops.FlowModifyLatency{Rules: *rules}
		if err := r.Run(m); err != nil {
			log.Fatal(err)
		}
		h, seen := m.DataLatencies()
		fmt.Printf("\n[%s]\n", m.Name())
		fmt.Printf("  control plane (barrier ack): %v\n", m.ControlLatency())
		fmt.Printf("  data plane (rule flipped):   %s\n", h.Summary(1e9, "ms"))
		fmt.Printf("  rules confirmed:             %d/%d\n", seen, *rules)
	}

	{
		r := oflops.NewRunner(oflops.Config{Switch: swCfg})
		m := &oflops.ForwardingConsistency{Rules: *rules}
		if err := r.Run(m); err != nil {
			log.Fatal(err)
		}
		res := m.Result()
		fmt.Printf("\n[%s]\n", m.Name())
		fmt.Printf("  control plane (barrier ack): %v\n", res.ControlLatency)
		fmt.Printf("  old-rule packets after ack:  %d\n", res.OldAfterBarrier)
		fmt.Printf("  mixed-state window:          %v\n", res.TransitionWindow)
		fmt.Printf("  old/new marked packets:      %d/%d\n", res.OldTotal, res.NewTotal)
	}

	{
		r := oflops.NewRunner(oflops.Config{Switch: swCfg})
		m := &oflops.PacketInLatency{Count: 50}
		if err := r.Run(m); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n[%s]\n", m.Name())
		fmt.Printf("  packet-in latency: %s\n", m.Latencies().Summary(1e6, "µs"))
	}

	for _, load := range []float64{0, 0.5, 0.9} {
		r := oflops.NewRunner(oflops.Config{Switch: swCfg})
		m := &oflops.EchoUnderLoad{Load: load, Echoes: 15}
		if err := r.Run(m); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\n[%s]\n", m.Name())
		fmt.Printf("  echo RTT: %s\n", m.RTTs().Summary(1e6, "µs"))
	}
}
