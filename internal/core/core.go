// Package core is the OSNT host API: the paper's "simple and
// programmer-friendly API to control the traffic generation and
// monitoring functionality of the OSNT design, enabling the realisation
// of high precision and throughput measurement tests in software".
//
// On top of one simulated NetFPGA-10G card the package provides the
// measurement the demo performs on switches in Part I: latency, from the
// transmit timestamp the generator embeds in each probe.
package core

import (
	"fmt"

	"osnt/internal/gen"
	"osnt/internal/mon"
	"osnt/internal/netfpga"
	"osnt/internal/packet"
	"osnt/internal/sim"
	"osnt/internal/stats"
	"osnt/internal/wire"
)

// LatencyResult summarises one latency measurement.
type LatencyResult struct {
	// Latency collects per-packet latency samples in picoseconds,
	// computed as (hardware RX timestamp - embedded TX timestamp).
	Latency *stats.Histogram
	// TxPackets is what the generator offered to the MAC.
	TxPackets uint64
	// RxPackets is what the monitor delivered to the host.
	RxPackets uint64
	// TxDropped counts generator-side TX queue overflow (offered load
	// beyond line rate).
	TxDropped uint64
	// CaptureDrops counts monitor-side ring overflow.
	CaptureDrops uint64
}

// Lost returns packets that left the generator but never reached the
// host, excluding capture-path drops (i.e. DUT loss).
func (r *LatencyResult) Lost() uint64 {
	got := r.RxPackets + r.CaptureDrops
	if r.TxPackets <= got {
		return 0
	}
	return r.TxPackets - got
}

// LossFraction returns DUT loss as a fraction of transmitted packets.
func (r *LatencyResult) LossFraction() float64 {
	if r.TxPackets == 0 {
		return 0
	}
	return float64(r.Lost()) / float64(r.TxPackets)
}

// LatencyTest measures packet-processing latency of whatever sits
// between two tester ports — the Demo Part I scenario: "one of the ports
// will be used to generate traffic at variable rates with the
// transmission timestamp embedded in each packet, while the other port
// will be used to capture packets after they traverse the switch".
type LatencyTest struct {
	// Card is the tester: TxPort generates, RxPort captures.
	Card           *netfpga.Card
	TxPort, RxPort int
	// Spec is the packet template (MACs must match the DUT's learned
	// stations; IPs/ports identify the probe flow).
	Spec packet.UDPSpec
	// FrameSize is the FCS-inclusive probe size (default 512).
	FrameSize int
	// Load is the offered fraction of line rate (default 0.1). Ignored
	// when Spacing is set.
	Load float64
	// Spacing overrides the CBR spacing derived from Load.
	Spacing gen.Spacing
	// Duration bounds the generation phase (default 10 ms of virtual
	// time).
	Duration sim.Duration
	// Count, when nonzero, bounds the number of probes instead.
	Count uint64
	// Seed feeds stochastic spacings.
	Seed uint64
}

// Run executes the measurement to completion and returns the result.
func (t *LatencyTest) Run() (*LatencyResult, error) {
	for _, port := range []int{t.TxPort, t.RxPort} {
		if port < 0 || port >= t.Card.NumPorts() {
			return nil, fmt.Errorf("core: port %d out of range", port)
		}
	}
	if t.FrameSize == 0 {
		t.FrameSize = 512
	}
	if t.Load == 0 {
		t.Load = 0.1
	}
	if t.Duration == 0 {
		t.Duration = 10 * sim.Millisecond
	}
	res := &LatencyResult{Latency: stats.NewHistogram()}

	m, err := mon.New(t.Card.Port(t.RxPort), mon.Config{
		// The sink only extracts the embedded timestamp, so record
		// buffers can be recycled as soon as it returns.
		RecycleRecords: true,
		Sink: func(rec mon.Record) {
			ts, ok := gen.ExtractTimestamp(rec.Data, gen.DefaultTimestampOffset)
			if !ok {
				return
			}
			res.Latency.Record(int64(rec.TS.Sub(ts)))
		},
	})
	if err != nil {
		return nil, err
	}

	spacing := t.Spacing
	if spacing == nil {
		spacing = gen.CBRForLoad(t.FrameSize, t.Card.Rate(), t.Load)
	}
	spec := t.Spec
	spec.FrameSize = t.FrameSize
	g, err := gen.New(t.Card.Port(t.TxPort), gen.Config{
		Source:         &gen.UDPFlowSource{Spec: spec, FrameSize: t.FrameSize},
		Spacing:        spacing,
		Count:          t.Count,
		EmbedTimestamp: true,
		Seed:           t.Seed,
		Pool:           wire.DefaultPool,
	})
	if err != nil {
		return nil, err
	}

	e := t.Card.Engine
	start := e.Now()
	g.Start(start)
	if t.Count > 0 {
		e.Run()
	} else {
		e.RunUntil(start.Add(t.Duration))
		g.Stop()
		// Let in-flight packets and the capture ring drain.
		e.Run()
	}

	res.TxPackets = g.Sent().Packets
	res.TxDropped = g.Dropped()
	res.RxPackets = m.Delivered().Packets
	res.CaptureDrops = m.RingDrops()
	return res, nil
}
