// Command osnt-gen is the OSNT traffic generator CLI: it replays a PCAP
// file (or synthesises a UDP flow workload) through the simulated
// NetFPGA-10G data path at a finely controlled rate and writes what went
// on the wire — with hardware transmit timestamps — to an output PCAP.
//
// Examples:
//
//	osnt-gen -out wire.pcap -size 64 -load 1.0 -count 100000
//	osnt-gen -in capture.pcap -scale 0.5 -out replayed.pcap
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"osnt/internal/gen"
	"osnt/internal/netfpga"
	"osnt/internal/packet"
	"osnt/internal/pcap"
	"osnt/internal/sim"
	"osnt/internal/wire"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("osnt-gen: ")

	in := flag.String("in", "", "PCAP file to replay (empty: synthesise UDP)")
	out := flag.String("out", "", "PCAP file for transmitted packets (with TX timestamps)")
	size := flag.Int("size", 512, "synthetic frame size, FCS inclusive (64-1518)")
	load := flag.Float64("load", 0.1, "offered load as a fraction of 10G line rate")
	count := flag.Uint64("count", 10000, "packets to send (0 with -dur for time-bounded)")
	durMS := flag.Int("dur", 0, "generation duration in virtual milliseconds (overrides -count)")
	scale := flag.Float64("scale", 1.0, "inter-departure scale for PCAP replay (0.5 = 2x faster)")
	flows := flag.Int("flows", 16, "synthetic flow count")
	embed := flag.Bool("ts", true, "embed hardware transmit timestamps")
	flag.Parse()

	// -load and -size shape synthesised traffic only; -in replay keeps
	// the capture's own sizes and spacing, and ends with its records.
	// Synthesised traffic never runs dry, so it needs a bound.
	if *in == "" {
		if *load <= 0 {
			log.Fatalf("-load %g: need a positive fraction of line rate", *load)
		}
		if *size < wire.MinFrame || *size > wire.MaxFrame {
			log.Fatalf("-size %d: need %d-%d bytes", *size, wire.MinFrame, wire.MaxFrame)
		}
		if *count == 0 && *durMS <= 0 {
			log.Fatalf("-count 0: synthesised traffic needs a positive -count or -dur")
		}
		if *flows < 1 {
			log.Fatalf("-flows %d: need at least one flow", *flows)
		}
	} else if *scale <= 0 {
		log.Fatalf("-scale %g: need a positive inter-departure factor", *scale)
	}

	e := sim.NewEngine()
	card := netfpga.New(e, netfpga.Config{})

	var sink *pcap.WriteCloser
	if *out != "" {
		var err error
		if sink, err = pcap.Create(*out, 0, true); err != nil {
			log.Fatal(err)
		}
	}
	var written uint64
	card.Port(0).SetLink(wire.NewLink(e, wire.Rate10G, 0, wire.EndpointFunc(
		func(f *wire.Frame, _, at sim.Time) {
			written++
			if sink != nil {
				if err := sink.Write(pcap.Record{TS: at, Data: f.Data, OrigLen: f.Size - wire.FCSLen}); err != nil {
					log.Fatal(err)
				}
			}
		})))

	cfg := gen.Config{Count: *count, EmbedTimestamp: *embed}
	if *in != "" {
		f, err := os.Open(*in)
		if err != nil {
			log.Fatal(err)
		}
		recs, err := pcap.ReadAll(f)
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		log.Printf("replaying %d packets from %s (scale %.2f)", len(recs), *in, *scale)
		cfg.Source = &gen.PCAPSource{Records: recs}
		cfg.Spacing = &gen.RecordedSpacing{Records: recs, Scale: *scale}
	} else {
		spec := packet.UDPSpec{
			SrcMAC:  packet.MAC{0x02, 0x05, 0x17, 0, 0, 0x01},
			DstMAC:  packet.MAC{0x02, 0x05, 0x17, 0, 0, 0x02},
			SrcIP:   packet.IP4{10, 0, 0, 1},
			DstIP:   packet.IP4{10, 0, 0, 2},
			SrcPort: 5000, DstPort: 7000,
		}
		cfg.Source = &gen.UDPFlowSource{Spec: spec, NumFlows: *flows, FrameSize: *size}
		cfg.Spacing = gen.CBRForLoad(*size, wire.Rate10G, *load)
	}

	g, err := gen.New(card.Port(0), cfg)
	if err != nil {
		log.Fatal(err)
	}
	g.Start(0)
	if *durMS > 0 {
		e.RunUntil(sim.After(sim.Milliseconds(int64(*durMS))))
		g.Stop()
	}
	e.Run()

	elapsed := e.Now().Seconds()
	sent := g.Sent()
	fmt.Printf("sent %d packets (%d wire bytes) in %.6fs virtual time\n",
		sent.Packets, sent.Bytes, elapsed)
	if elapsed > 0 {
		fmt.Printf("rate: %.3f Mpps, %.3f Gb/s on the wire\n",
			sent.PacketsPerSecond(elapsed)/1e6, sent.BitsPerSecond(elapsed)/1e9)
	}
	if g.Dropped() > 0 {
		fmt.Printf("dropped at TX queue (offered > line rate): %d\n", g.Dropped())
	}
	if sink != nil {
		if err := sink.Close(); err != nil {
			log.Fatal(err)
		}
		if written > 0 {
			fmt.Printf("wrote %d packets to %s\n", written, *out)
		}
	}
}
