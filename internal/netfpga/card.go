// Package netfpga simulates the NetFPGA-10G board that hosts OSNT: four
// 10GbE ports, per-port TX queues and MACs, receive-side timestamping at
// the MAC (the paper's "associates packets with a 64-bit timestamp on
// receipt by the MAC module, thus minimising queueing noise"), and the
// register file the host driver reads statistics from.
package netfpga

import (
	"fmt"

	"osnt/internal/sim"
	"osnt/internal/stats"
	"osnt/internal/timing"
	"osnt/internal/wire"
)

// Config sizes a simulated card. Zero values select the NetFPGA-10G
// defaults.
type Config struct {
	// Ports is the port count (default 4, as on the NetFPGA-10G).
	Ports int
	// Rate is the per-port line rate (default 10 Gb/s).
	Rate wire.Rate
	// Clock is the timestamp source (default a GPS-perfect clock).
	Clock timing.Clock
	// TxQueueCap bounds each port's TX queue in frames (default 8192).
	// The generator paces itself, so the queue only fills when software
	// offers more than line rate.
	TxQueueCap int
	// CaptureQueues is the per-port DMA capture queue budget (default
	// 8): how many independent descriptor rings the card's DMA engine
	// can expose for one port's capture. mon.Attach validates its queue
	// count against it.
	CaptureQueues int
}

func (c *Config) fill() {
	if c.Ports == 0 {
		c.Ports = 4
	}
	if c.Rate == 0 {
		c.Rate = wire.Rate10G
	}
	if c.Clock == nil {
		c.Clock = timing.PerfectClock{}
	}
	if c.TxQueueCap == 0 {
		c.TxQueueCap = 8192
	}
	if c.CaptureQueues == 0 {
		c.CaptureQueues = 8
	}
}

// Card is one simulated NetFPGA-10G board.
type Card struct {
	Engine *sim.Engine
	Clock  timing.Clock
	Regs   *Registers

	cfg   Config
	ports []*Port
}

// SetDropSite attaches the scenario's loss-attribution ledger; TX queue
// overflows on any port report at the given hop ID.
func (c *Card) SetDropSite(ledger *wire.DropLedger, hop int) {
	for _, p := range c.ports {
		p.mac.SetDropSite(ledger, hop)
	}
}

// New builds a card on the given engine.
func New(e *sim.Engine, cfg Config) *Card {
	cfg.fill()
	c := &Card{Engine: e, Clock: cfg.Clock, Regs: NewRegisters(), cfg: cfg}
	for i := 0; i < cfg.Ports; i++ {
		p := &Port{card: c, index: i}
		p.mac.Init(e, cfg.TxQueueCap, p)
		// Register indices are resolved once here: the TX/RX paths bump
		// these counters per packet and must pay neither a fmt.Sprintf
		// nor a map probe there.
		p.regTxPackets = c.Regs.Index(p.regName("tx_packets"))
		p.regTxBytes = c.Regs.Index(p.regName("tx_bytes"))
		p.regTxDrops = c.Regs.Index(p.regName("tx_drops"))
		p.regRxPackets = c.Regs.Index(p.regName("rx_packets"))
		p.regRxBytes = c.Regs.Index(p.regName("rx_bytes"))
		c.ports = append(c.ports, p)
	}
	c.Regs.Set("device.id", 0x05170)
	c.Regs.Set("device.ports", uint64(cfg.Ports))
	return c
}

// NumPorts returns the port count.
func (c *Card) NumPorts() int { return len(c.ports) }

// Port returns port i.
func (c *Card) Port(i int) *Port { return c.ports[i] }

// Rate returns the per-port line rate.
func (c *Card) Rate() wire.Rate { return c.cfg.Rate }

// CaptureQueues returns the per-port DMA capture queue budget.
func (c *Card) CaptureQueues() int { return c.cfg.CaptureQueues }

// Port is one 10GbE interface: a TX queue feeding a MAC, and an RX MAC
// that timestamps every arriving frame.
type Port struct {
	card  *Card
	index int

	// TX side: the queue and MAC in front of the egress link.
	mac wire.Egress
	// OnTransmit fires when a frame is latched into the MAC, just before
	// serialisation begins — the point where OSNT's generator embeds the
	// departure timestamp. The callback may modify the frame bytes.
	OnTransmit func(f *wire.Frame, start sim.Time, ts timing.Timestamp)

	// RX side.
	// OnReceive fires for every frame whose last bit has arrived, with
	// the MAC-latched receive timestamp.
	OnReceive func(f *wire.Frame, at sim.Time, ts timing.Timestamp)
	// OnReceiveRun, when set, takes every delivered run in one callback
	// instead (at is the first frame's last-bit arrival; later boundaries
	// follow arithmetically at the train's Rate). The consumer latches
	// per-frame timestamps itself via Card().Clock, in arrival order — the
	// port does not pre-latch, so stateful clocks still step exactly once
	// per frame. The port releases the run when the hook returns.
	OnReceiveRun func(r wire.Run, at sim.Time)

	rxStats stats.Counter

	// Pre-resolved register indices (see New) keep the per-packet counter
	// updates allocation-free and map-free.
	regTxPackets, regTxBytes, regTxDrops int
	regRxPackets, regRxBytes             int
}

// Index returns the port number on the card.
func (p *Port) Index() int { return p.index }

// Card returns the owning card.
func (p *Port) Card() *Card { return p.card }

// SetLink attaches the egress link (towards the device under test).
func (p *Port) SetLink(l *wire.Link) { p.mac.SetLink(l) }

// Link returns the attached egress link.
func (p *Port) Link() *wire.Link { return p.mac.Link() }

// Enqueue places a run on the TX queue and reports whether it was
// accepted. The port owns the run from here: when the queue is full —
// software offered more than line rate for longer than the queue can
// absorb — it counts the drop and releases the frames. A run of two or
// more goes out back to back in one MAC pass (one transmit event,
// per-frame OnTransmit hooks at each frame's exact latch instant); the
// caller must have checked TxIdle, because coalescing a run through a
// busy MAC would reorder it against queued frames — a contract
// violation, not a recoverable condition.
//
//lint:hotpath
func (p *Port) Enqueue(r wire.Run) bool {
	if p.mac.Link() == nil {
		panic(fmt.Sprintf("netfpga: port %d transmit with no link attached", p.index))
	}
	n := r.Len()
	if n > 1 && !p.TxIdle() {
		panic(fmt.Sprintf("netfpga: port %d frame train enqueued on a busy MAC", p.index))
	}
	if !p.mac.Push(r, p.card.Engine.Now(), wire.DropTxOverflow) {
		p.card.Regs.AddAt(p.regTxDrops, uint64(n))
		return false
	}
	return true
}

// TxIdle reports whether the MAC is between transmissions with an empty
// TX queue — the precondition for handing it a coalesced frame train.
// It holds at every emission instant as long as offered load stays at or
// below line rate.
func (p *Port) TxIdle() bool { return p.mac.Idle() }

// Latch implements wire.Latcher: the MAC latches the TX timestamp the
// instant serialisation starts, runs OnTransmit, and counts the frame.
// The clock is read for every frame, hook or not, so a stateful clock
// steps exactly once per frame.
func (p *Port) Latch(f *wire.Frame, start, _ sim.Time) {
	ts := p.card.Clock.Now(start)
	if p.OnTransmit != nil {
		p.OnTransmit(f, start, ts)
	}
	p.card.Regs.AddAt(p.regTxPackets, 1)
	p.card.Regs.AddAt(p.regTxBytes, uint64(f.Size))
}

// Receive implements wire.Endpoint: the RX MAC counts every frame and
// hands the run to the attached subsystem. With an OnReceiveRun hook the
// whole run goes to it in one call and the hook latches the per-frame
// timestamps; otherwise each frame's timestamp is latched the instant it
// fully arrives and OnReceive sees it. The card port is a terminal
// endpoint, so pooled frames are released once the hook returns; hooks
// that keep the bytes past the callback must copy them (the monitor's
// capture ring does).
//
//lint:hotpath
func (p *Port) Receive(r wire.Run, start, at sim.Time) {
	if p.OnReceiveRun != nil {
		n := r.Len()
		var sizes uint64
		for i := 0; i < n; i++ {
			size := r.Frame(i).Size
			p.rxStats.Add(wire.WireBytes(size))
			sizes += uint64(size)
		}
		p.card.Regs.AddAt(p.regRxPackets, uint64(n))
		p.card.Regs.AddAt(p.regRxBytes, sizes)
		p.OnReceiveRun(r, at)
		r.Release()
		return
	}
	for w := r.Walk(start, at); w.Next(); {
		f := w.Frame
		ts := p.card.Clock.Now(w.LastBit)
		p.rxStats.Add(wire.WireBytes(f.Size))
		p.card.Regs.AddAt(p.regRxPackets, 1)
		p.card.Regs.AddAt(p.regRxBytes, uint64(f.Size))
		if p.OnReceive != nil {
			p.OnReceive(f, w.LastBit, ts)
		}
		f.Release()
	}
}

// RxStats returns cumulative receive counters (wire bytes).
func (p *Port) RxStats() stats.Counter { return p.rxStats }

func (p *Port) regName(suffix string) string {
	return fmt.Sprintf("port%d.%s", p.index, suffix)
}

// Registers is the card's host-visible register file. Real OSNT exposes
// statistics and configuration through memory-mapped registers; the
// simulated card keeps the same observable surface so host tools read
// stats the way a driver would. Values live in a flat array addressed by
// a stable per-name index — the driver-style split between the one-time
// address lookup and the per-packet counter bump, so hot paths that
// resolve Index once pay an array add per packet instead of a map probe.
type Registers struct {
	idx   map[string]int
	vals  []uint64
	order []string
}

// NewRegisters returns an empty register file.
func NewRegisters() *Registers { return &Registers{idx: make(map[string]int)} }

// Index resolves a register name to its stable array index, creating the
// register at zero if needed. Resolve once, then use AddAt on the
// per-packet path.
func (r *Registers) Index(name string) int {
	i, ok := r.idx[name]
	if !ok {
		i = len(r.vals)
		r.idx[name] = i
		r.vals = append(r.vals, 0)
		r.order = append(r.order, name)
	}
	return i
}

// Set stores a register value, creating the register if needed.
func (r *Registers) Set(name string, v uint64) { r.vals[r.Index(name)] = v }

// AddAt increments the register at a previously resolved index.
func (r *Registers) AddAt(i int, delta uint64) { r.vals[i] += delta }

// Get reads a register; absent registers read zero, as on hardware.
func (r *Registers) Get(name string) uint64 {
	i, ok := r.idx[name]
	if !ok {
		return 0
	}
	return r.vals[i]
}

// Names returns the registers in creation order.
func (r *Registers) Names() []string { return append([]string(nil), r.order...) }
