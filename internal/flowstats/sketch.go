package flowstats

import (
	"slices"

	"osnt/internal/packet"
)

// CountMin is a count-min sketch over flow digests: d rows of w
// counters, each row indexed by an independently whitened hash of the
// digest. Estimates never undercount and overcount by at most the
// collision mass of the narrowest row — the classic bound — so it pairs
// with SpaceSaving: the summary proposes heavy candidates, the sketch
// bounds their true volume when the exact table has overflowed.
type CountMin struct {
	rows   int
	mask   uint64
	counts []uint64 // rows × width, row-major
}

// NewCountMin returns a sketch with the given depth (rows; minimum 1)
// and width rounded up to a power of two (minimum 16).
func NewCountMin(rows, width int) *CountMin {
	if rows < 1 {
		rows = 1
	}
	w := 16
	for w < width {
		w <<= 1
	}
	return &CountMin{rows: rows, mask: uint64(w - 1), counts: make([]uint64, rows*w)}
}

// rowSeeds decorrelate the per-row hash functions; any fixed odd
// constants work with the Mix64 avalanche.
var rowSeeds = [...]uint64{
	0x9e3779b97f4a7c15, 0xbf58476d1ce4e5b9, 0x94d049bb133111eb,
	0xd6e8feb86659fd93, 0xa5a3564d4e9ae0f9, 0xc2b2ae3d27d4eb4f,
}

// Add counts n more packets (or bytes) for digest and returns the new
// point estimate.
func (c *CountMin) Add(digest uint64, n uint64) uint64 {
	est := ^uint64(0)
	w := int(c.mask) + 1
	for r := 0; r < c.rows; r++ {
		i := packet.Mix64(digest^rowSeeds[r%len(rowSeeds)]) & c.mask
		cell := &c.counts[r*w+int(i)]
		*cell += n
		if *cell < est {
			est = *cell
		}
	}
	return est
}

// Estimate returns the sketch's (never-undercounting) estimate for
// digest.
func (c *CountMin) Estimate(digest uint64) uint64 {
	est := ^uint64(0)
	w := int(c.mask) + 1
	for r := 0; r < c.rows; r++ {
		i := packet.Mix64(digest^rowSeeds[r%len(rowSeeds)]) & c.mask
		if v := c.counts[r*w+int(i)]; v < est {
			est = v
		}
	}
	return est
}

// HeavyHitter is one SpaceSaving candidate: Count overestimates the
// true volume by at most Err.
type HeavyHitter struct {
	Digest uint64
	Count  uint64
	Err    uint64
}

// SpaceSaving is the space-saving top-k summary (Metwally et al.): at
// most k monitored flows; an unmonitored arrival evicts the current
// minimum and inherits its count as error bound. Any flow with true
// volume above the evicted minimum is guaranteed to be monitored, which
// is the property heavy-hitter reports need.
//
// Membership is a linear scan over a dense digest array rather than the
// textbook stream-summary pointer structure: for capture-path k (tens
// to a few hundred) the scan touches a handful of cache lines, costs no
// allocation ever, and stays deterministic — the same cache-over-
// pointers trade the flow table makes.
type SpaceSaving struct {
	digests []uint64
	counts  []uint64
	errs    []uint64
	n       int
}

// NewSpaceSaving returns a summary monitoring at most k flows
// (minimum 1).
func NewSpaceSaving(k int) *SpaceSaving {
	if k < 1 {
		k = 1
	}
	return &SpaceSaving{
		digests: make([]uint64, k),
		counts:  make([]uint64, k),
		errs:    make([]uint64, k),
	}
}

// Add counts n more packets for digest. A hit scans digests only; the
// minimum is searched for only when a full summary must evict.
func (s *SpaceSaving) Add(digest uint64, n uint64) {
	if i := slices.Index(s.digests[:s.n], digest); i >= 0 {
		s.counts[i] += n
		return
	}
	if s.n < len(s.digests) {
		s.digests[s.n], s.counts[s.n], s.errs[s.n] = digest, n, 0
		s.n++
		return
	}
	// Evict the minimum (lowest slot on ties): the newcomer inherits its
	// count as error.
	minIdx := 0
	for i, c := range s.counts {
		if c < s.counts[minIdx] {
			minIdx = i
		}
	}
	s.errs[minIdx] = s.counts[minIdx]
	s.digests[minIdx] = digest
	s.counts[minIdx] += n
}

// Monitored reports whether digest is currently tracked.
func (s *SpaceSaving) Monitored(digest uint64) bool {
	return slices.Contains(s.digests[:s.n], digest)
}

// Top returns up to k monitored flows by descending count (ties by
// ascending digest). It allocates the result — call it off the hot
// path.
func (s *SpaceSaving) Top(k int) []HeavyHitter {
	var top []HeavyHitter
	for i := 0; i < s.n; i++ {
		h := HeavyHitter{Digest: s.digests[i], Count: s.counts[i], Err: s.errs[i]}
		pos := len(top)
		for pos > 0 && hhMore(h, top[pos-1]) {
			pos--
		}
		if pos >= k {
			continue
		}
		if len(top) < k {
			top = append(top, HeavyHitter{})
		}
		copy(top[pos+1:], top[pos:])
		top[pos] = h
	}
	return top
}

func hhMore(a, b HeavyHitter) bool {
	if a.Count != b.Count {
		return a.Count > b.Count
	}
	return a.Digest < b.Digest
}
