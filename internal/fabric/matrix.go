package fabric

// Traffic matrices: deterministic sender → destination schedules over a
// fabric's hosts, compiled onto the zero-alloc generator path. A matrix
// is data, not behaviour — Sources turns it into looping SliceSources
// (one per transmitting host) that a gen.Generator with a frame pool
// replays without allocating.

import (
	"osnt/internal/gen"
	"osnt/internal/packet"
	"osnt/internal/wire"
)

// TrafficMatrix is a per-sender cyclic destination schedule: sender i
// rotates through Dests[i] (host indices), splitting its offered load
// evenly across the slots. An empty slot list keeps the host silent.
type TrafficMatrix struct {
	Name  string
	Dests [][]int
}

// flowsPerSlot is how many distinct source ports each (sender, slot)
// pair cycles through, so the ECMP header digest sees enough flow
// entropy to spread a bundle instead of pinning one five-tuple to one
// member.
const flowsPerSlot = 4

// Permutation is the classic all-to-all stress pattern: host i sends to
// host (i + hostsPerPod) mod N, so every host sends and receives
// exactly one unit of load and every byte crosses the core.
func (f *Fabric) Permutation() TrafficMatrix {
	n := len(f.Hosts)
	shift := f.Spec.K * f.Spec.K / 4 // hosts per pod
	m := TrafficMatrix{Name: "permutation", Dests: make([][]int, n)}
	for i := 0; i < n; i++ {
		m.Dests[i] = []int{(i + shift) % n}
	}
	return m
}

// Incast partitions the hosts into groups of fanIn+1: the first member
// of each group receives, the other fanIn members all send to it. With
// fanIn ≥ hosts-per-edge the senders necessarily span edge switches,
// so the convergence pressure lands on the receiver's edge downlink.
// Hosts in an incomplete trailing group stay silent.
func (f *Fabric) Incast(fanIn int) TrafficMatrix {
	n := len(f.Hosts)
	m := TrafficMatrix{Name: "incast", Dests: make([][]int, n)}
	for base := 0; base+fanIn < n; base += fanIn + 1 {
		for s := 1; s <= fanIn; s++ {
			m.Dests[base+s] = []int{base}
		}
	}
	return m
}

// hotSpotSlots splits each sender's load: 1 slot to the hot host,
// hotSpotSlots-1 to its permutation partner, i.e. a quarter of the
// fabric-wide load converges on one host port.
const hotSpotSlots = 4

// HotSpot overlays a single hot destination on the permutation matrix:
// every other host keeps its permutation partner for 3/4 of its load
// and aims the remaining quarter at host 0, overloading host 0's edge
// downlink while the rest of the fabric stays busy.
func (f *Fabric) HotSpot() TrafficMatrix {
	perm := f.Permutation()
	m := TrafficMatrix{Name: "hot-spot", Dests: make([][]int, len(f.Hosts))}
	for i, d := range perm.Dests {
		if i == 0 {
			m.Dests[i] = d // the hot host itself only sends its permutation flow
			continue
		}
		slots := make([]int, 0, hotSpotSlots)
		slots = append(slots, 0)
		for len(slots) < hotSpotSlots {
			slots = append(slots, d[0])
		}
		m.Dests[i] = slots
	}
	return m
}

// Sources compiles the matrix into per-host frame schedules: entry i is
// a looping SliceSource cycling sender i's slots (flowsPerSlot source-
// port variants each, for ECMP entropy), or nil when host i is silent.
// The templates are built once here; with a frame Pool the generator's
// replay path is zero-alloc.
func (f *Fabric) Sources(m TrafficMatrix, frameSize int) []*gen.SliceSource {
	out := make([]*gen.SliceSource, len(f.Hosts))
	for i, dests := range m.Dests {
		if len(dests) == 0 {
			continue
		}
		src := f.Hosts[i]
		frames := make([]*wire.Frame, 0, len(dests)*flowsPerSlot)
		for s, d := range dests {
			dst := f.Hosts[d]
			for v := 0; v < flowsPerSlot; v++ {
				spec := packet.UDPSpec{
					SrcMAC: src.MAC, DstMAC: dst.MAC,
					SrcIP: src.IP, DstIP: dst.IP,
					SrcPort: uint16(5000 + s*flowsPerSlot + v),
					DstPort: 9, FrameSize: frameSize,
				}
				frames = append(frames, wire.NewFrame(spec.Build()))
			}
		}
		out[i] = &gen.SliceSource{Frames: frames, Loop: true}
	}
	return out
}
