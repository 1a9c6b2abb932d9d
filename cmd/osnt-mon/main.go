// Command osnt-mon is the OSNT traffic monitor CLI: it drives a traffic
// source through the simulated capture engine — hardware wildcard
// filters, packet thinning, hashing, and the loss-limited multi-queue
// DMA path — and writes the capture to a nanosecond PCAP, printing the
// pipeline and per-queue statistics a driver would read from the card's
// registers.
//
// Examples:
//
//	osnt-mon -out cap.pcap -snap 64 -load 1.0 -dur 10
//	osnt-mon -filter-dport 53 -out dns.pcap
//	osnt-mon -queues 4 -steer hash -snap 64 -load 1.0
//	osnt-mon -losses -load 1.0         # per-hop/per-reason loss attribution
//	osnt-mon -queues 8 -flows 64 -heavy 8  # merged capture + per-flow analytics
//
// With -flows the capture queues feed a k-way merge that restores the
// global hardware-timestamp order before any sink runs — the PCAP comes
// out globally ordered even across queues — and the merged stream drives
// a flow table plus count-min/space-saving sketches, printed after the
// run. Flow keying forces header-only hashing (the embedded TX timestamp
// must not enter the digest).
package main

import (
	"flag"
	"fmt"
	"log"

	"osnt/internal/filter"
	"osnt/internal/flowstats"
	"osnt/internal/gen"
	"osnt/internal/mon"
	"osnt/internal/netfpga"
	"osnt/internal/packet"
	"osnt/internal/pcap"
	"osnt/internal/sim"
	"osnt/internal/stats"
	"osnt/internal/wire"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("osnt-mon: ")

	out := flag.String("out", "", "PCAP output for captured packets")
	snap := flag.Int("snap", 0, "thinning snap length in bytes (0 = full packets)")
	hashBytes := flag.Int("hash", 64, "hash the first N bytes of each capture (0 = off)")
	load := flag.Float64("load", 0.5, "traffic source load fraction of line rate")
	size := flag.Int("size", 512, "traffic frame size, FCS inclusive (64-1518)")
	durMS := flag.Int("dur", 10, "capture duration in virtual milliseconds")
	dport := flag.Int("filter-dport", 0, "capture only this UDP destination port (0 = all)")
	ring := flag.Int("ring", 1024, "per-queue DMA descriptor ring size")
	queues := flag.Int("queues", 1, "DMA capture queues (per-queue ring + host core)")
	steer := flag.String("steer", "hash", "queue steering policy: hash (RSS) or rr (round-robin)")
	losses := flag.Bool("losses", false, "print the per-hop/per-reason loss attribution table")
	flows := flag.Int("flows", 0, "generate N UDP flows and print per-flow analytics over the merged capture (0 = off; forces header-only hashing and TX timestamp embedding)")
	heavy := flag.Int("heavy", 8, "heavy-hitter summary size for -flows")
	flag.Parse()

	if *queues < 1 {
		log.Fatalf("-queues %d: need at least one capture queue", *queues)
	}
	if *load <= 0 {
		log.Fatalf("-load %g: need a positive fraction of line rate", *load)
	}
	if *size < wire.MinFrame || *size > wire.MaxFrame {
		log.Fatalf("-size %d: need %d-%d bytes", *size, wire.MinFrame, wire.MaxFrame)
	}
	if *dport < 0 || *dport > 65535 {
		log.Fatalf("-filter-dport %d: need a UDP port 0-65535 (0 = all)", *dport)
	}
	if *durMS <= 0 {
		log.Fatalf("-dur %d: need a positive capture duration", *durMS)
	}
	if *snap < 0 {
		log.Fatalf("-snap %d: need a snap length ≥ 0 (0 = full packets)", *snap)
	}
	if *hashBytes < 0 {
		log.Fatalf("-hash %d: need a byte count ≥ 0 (0 = off)", *hashBytes)
	}
	if *flows < 0 {
		log.Fatalf("-flows %d: need a flow count ≥ 0 (0 = off)", *flows)
	}
	if *flows > 0 && *heavy < 1 {
		log.Fatalf("-heavy %d: -flows needs a heavy-hitter summary of at least one flow", *heavy)
	}
	if *flows > 0 {
		if *size < gen.DefaultTimestampOffset+gen.TimestampLen {
			log.Fatalf("-flows needs -size ≥ %d to carry the embedded TX timestamp", gen.DefaultTimestampOffset+gen.TimestampLen)
		}
		// Flow keying must hash headers only: the embedded timestamp
		// starts right after them and differs packet by packet.
		*hashBytes = packet.HeaderDigestBytes
	}
	var policy mon.Steer
	switch *steer {
	case "hash":
		policy = mon.SteerHash
	case "rr":
		policy = mon.SteerRoundRobin
	default:
		log.Fatalf("unknown -steer %q (valid: hash, rr)", *steer)
	}

	e := sim.NewEngine()
	txCard := netfpga.New(e, netfpga.Config{})
	rxCard := netfpga.New(e, netfpga.Config{})
	txCard.Port(0).SetLink(wire.NewLink(e, wire.Rate10G, 0, rxCard.Port(0)))

	// Loss-attribution ledger over the rig's two loss points: the TX
	// card's MAC queue and the capture engine (filter rejects + DMA
	// ring overflow). stats.LossMap reduces it after the run.
	ledger := &wire.DropLedger{}
	txCard.SetDropSite(ledger, ledger.Add("tx-card"))

	var sink *pcap.WriteCloser
	if *out != "" {
		var err error
		if sink, err = pcap.Create(*out, 0, true); err != nil {
			log.Fatal(err)
		}
	}

	var tbl *filter.Table
	if *dport > 0 {
		tbl = filter.NewTable(filter.Drop)
		if err := tbl.Append(&filter.Rule{
			Name: "dport", Action: filter.Capture,
			Proto:      packet.ProtoUDP,
			DstPortMin: uint16(*dport), DstPortMax: uint16(*dport),
		}); err != nil {
			log.Fatal(err)
		}
	}

	var captured uint64
	emit := func(rec mon.Record) {
		captured++
		if sink != nil {
			if err := sink.Write(pcap.Record{
				TS: rec.TS.Sim(), Data: rec.Data, OrigLen: rec.WireSize - wire.FCSLen,
			}); err != nil {
				log.Fatal(err)
			}
		}
	}
	qcfgs := make([]mon.QueueConfig, *queues)
	for i := range qcfgs {
		qcfgs[i] = mon.QueueConfig{RingSize: *ring}
	}
	monitor, err := mon.New(rxCard.Port(0), mon.Config{
		Filters:   tbl,
		SnapLen:   *snap,
		HashBytes: *hashBytes,
		Queues:    qcfgs,
		Steer:     policy,
		Sink:      emit,
	})
	if err != nil {
		log.Fatal(err)
	}
	monitor.SetDropSite(ledger, ledger.Add("mon"))

	// -flows: interpose the k-way merge between the queues and the sink,
	// so the PCAP and the analytics both see one globally ordered stream.
	var merge *mon.Merge
	var ft *flowstats.FlowTable
	var ss *flowstats.SpaceSaving
	var cm *flowstats.CountMin
	if *flows > 0 {
		ft = flowstats.NewFlowTable(4 * *flows)
		ss = flowstats.NewSpaceSaving(*heavy)
		cm = flowstats.NewCountMin(4, 1<<12)
		merge = mon.NewMerge(monitor, func(rec mon.Record) {
			s := flowstats.Sample{Digest: rec.Hash, RxTS: rec.TS, Wire: rec.WireSize, Trace: rec.Trace}
			if tx, ok := gen.ExtractTimestamp(rec.Data, gen.DefaultTimestampOffset); ok {
				s.TxTS, s.HasTx = tx, true
			}
			ft.Observe(s)
			ss.Add(rec.Hash, 1)
			cm.Add(rec.Hash, 1)
			emit(rec)
		})
	}

	spec := packet.UDPSpec{
		SrcMAC:  packet.MAC{0x02, 0x05, 0x17, 0, 0, 0x01},
		DstMAC:  packet.MAC{0x02, 0x05, 0x17, 0, 0, 0x02},
		SrcIP:   packet.IP4{10, 0, 0, 1},
		DstIP:   packet.IP4{10, 0, 0, 2},
		SrcPort: 5000, DstPort: 7000,
	}
	numFlows := 8
	if *flows > 0 {
		numFlows = *flows
	}
	g, err := gen.New(txCard.Port(0), gen.Config{
		Source:         &gen.UDPFlowSource{Spec: spec, NumFlows: numFlows, FrameSize: *size},
		Spacing:        gen.CBRForLoad(*size, wire.Rate10G, *load),
		EmbedTimestamp: *flows > 0,
	})
	if err != nil {
		log.Fatal(err)
	}
	g.Start(0)
	e.RunUntil(sim.After(sim.Milliseconds(int64(*durMS))))
	g.Stop()
	e.Run()
	if merge != nil {
		merge.Flush()
	}

	fmt.Printf("pipeline: seen %d, filtered %d, accepted %d, ring drops %d, delivered %d\n",
		monitor.Seen().Packets, monitor.Filtered(), monitor.Accepted().Packets,
		monitor.RingDrops(), monitor.Delivered().Packets)
	fmt.Printf("loss-limited path loss: %.2f%%\n", monitor.LossFraction()*100)

	pq := stats.NewPerQueue(monitor.NumQueues())
	for q := 0; q < monitor.NumQueues(); q++ {
		qs := monitor.QueueStats(q)
		pq.Set(q, qs.Seen.Packets, qs.Delivered.Packets, qs.RingDrops)
	}
	qt := &stats.Table{
		Title: fmt.Sprintf("capture queues (steer=%s)", *steer),
		Columns: []stats.Column{
			{Name: "queue", Verb: "%d"}, {Name: "steered", Verb: "%d"}, {Name: "share(%)", Verb: "%.1f"},
			{Name: "ring-drops", Verb: "%d"}, {Name: "delivered", Verb: "%d"}, {Name: "loss(%)", Verb: "%.2f"},
		},
	}
	for q := 0; q < monitor.NumQueues(); q++ {
		qs := monitor.QueueStats(q)
		qt.AddRow(q, qs.Seen.Packets, pq.Share(q)*100, qs.RingDrops, qs.Delivered.Packets, pq.DropFraction(q)*100)
	}
	fmt.Println(qt.String())

	if merge != nil {
		fmt.Printf("merged stream: %d records in global (ts, queue, seq) order, %d order violations, %d overflow samples\n",
			merge.Emitted(), merge.OrderViolations(), ft.Overflow())
		fTbl := &stats.Table{
			Title: fmt.Sprintf("per-flow analytics over the merged capture (top %d of %d tracked flows)", *heavy, ft.Len()),
			Columns: []stats.Column{
				{Name: "rank", Verb: "%d"}, {Name: "flow-digest", Verb: "%016x"}, {Name: "pkts", Verb: "%d"},
				{Name: "bytes", Verb: "%d"}, {Name: "lat-mean(µs)", Verb: "%.2f"}, {Name: "lat-max(µs)", Verb: "%.2f"},
				{Name: "reorders", Verb: "%d"}, {Name: "holes", Verb: "%d"},
			},
		}
		for i, f := range ft.Top(*heavy) {
			fTbl.AddRow(i+1, f.Digest, f.Packets, f.Bytes, f.LatencyMean().Seconds()*1e6,
				f.LatencyMax().Seconds()*1e6, f.Reorders, f.Holes)
		}
		fmt.Println(fTbl.String())
		hTbl := &stats.Table{
			Title: "heavy hitters (space-saving summary, count-min cross-check)",
			Columns: []stats.Column{
				{Name: "flow-digest", Verb: "%016x"}, {Name: "count", Verb: "%d"}, {Name: "err", Verb: "%d"},
				{Name: "cm-est", Verb: "%d"},
			},
		}
		for _, h := range ss.Top(*heavy) {
			hTbl.AddRow(h.Digest, h.Count, h.Err, cm.Estimate(h.Digest))
		}
		fmt.Println(hTbl.String())
	}

	if *losses {
		// Conservation closes over the whole rig: every frame the
		// generator pushed into the MAC either reached a host sink or
		// sits in exactly one ledger cell (filter rejects, ring
		// overflow, TX queue overflow).
		lm := stats.NewLossMap(g.Sent().Packets+g.Dropped(), monitor.Delivered().Packets, ledger)
		fmt.Println(lm.Table().String())
	}

	if sink != nil {
		if err := sink.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %d packets to %s\n", captured, *out)
	}
	for _, name := range rxCard.Regs.Names() {
		fmt.Printf("reg %-22s %d\n", name, rxCard.Regs.Get(name))
	}
}
