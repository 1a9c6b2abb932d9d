// Package stats provides the streaming statistics the OSNT host tools
// report: latency histograms with percentile queries, packet/byte
// counters, loss ledgers and the tables experiments print. Everything is
// allocation-light so it can run inside per-packet callbacks.
package stats

import (
	"fmt"
	"math"
	"math/bits"
	"strings"
)

// Histogram is an HDR-style log-linear histogram of non-negative int64
// samples (typically latencies in picoseconds or nanoseconds). Values are
// bucketed by power of two with subBuckets linear divisions inside each
// power, giving a bounded relative error of 1/subBuckets while covering
// the full int64 range in a few KiB.
type Histogram struct {
	counts []uint64
	count  uint64
	sum    float64
	max    int64
}

// subBucketBits fixes the relative resolution: 64 sub-buckets per octave
// keeps quantile error under ~1.6%.
const subBucketBits = 6
const subBuckets = 1 << subBucketBits

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{counts: make([]uint64, (64-subBucketBits)*subBuckets)}
}

func bucketIndex(v int64) int {
	u := uint64(v)
	if u < subBuckets {
		return int(u)
	}
	top := 63 - bits.LeadingZeros64(u)
	shift := top - subBucketBits
	sub := int(u>>uint(shift)) - subBuckets // 0..subBuckets-1
	return (shift+1)*subBuckets + sub
}

// bucketLow returns the smallest value mapping to index i, the value
// reported for quantiles in that bucket.
func bucketLow(i int) int64 {
	if i < subBuckets {
		return int64(i)
	}
	shift := i/subBuckets - 1
	sub := i % subBuckets
	return int64(subBuckets+sub) << uint(shift)
}

// Record adds one sample. Negative samples are clamped to zero (latency
// can round slightly negative when two clocks disagree). The clamp
// applies before any accumulation, so Mean, Max and every
// percentile describe the same clamped sample — they can never disagree
// about a negative tail.
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.sum += float64(v)
	if v > h.max {
		h.max = v
	}
	h.counts[bucketIndex(v)]++
	h.count++
}

// Mean returns the arithmetic mean of the recorded (clamped) samples.
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.sum / float64(h.count)
}

// Max returns the largest recorded sample.
func (h *Histogram) Max() int64 { return h.max }

// Percentile returns the value at quantile p in [0,100]. The result is
// the lower bound of the bucket containing the quantile, so it
// underestimates by at most one part in 64 — except at p ≥ 100, which
// returns the exact recorded maximum (the bucket floor would otherwise
// understate the worst case by up to the same factor).
func (h *Histogram) Percentile(p float64) int64 {
	if h.count == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p >= 100 {
		return h.max
	}
	rank := uint64(math.Ceil(p / 100 * float64(h.count)))
	if rank == 0 {
		rank = 1
	}
	var seen uint64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			return bucketLow(i)
		}
	}
	return h.max
}

// Merge adds all of o's samples into h.
func (h *Histogram) Merge(o *Histogram) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.count += o.count
	h.sum += o.sum
	if o.max > h.max {
		h.max = o.max
	}
}

// Summary formats count/mean/p50/p99/max using unit as a divisor (e.g.
// 1000 to display picosecond samples in nanoseconds).
func (h *Histogram) Summary(unit float64, unitName string) string {
	return fmt.Sprintf("n=%d mean=%.1f%s p50=%.1f%s p99=%.1f%s max=%.1f%s",
		h.count, h.Mean()/unit, unitName,
		float64(h.Percentile(50))/unit, unitName,
		float64(h.Percentile(99))/unit, unitName,
		float64(h.max)/unit, unitName)
}

// Counter is a monotonically increasing event/byte counter pair, the
// shape of every OSNT hardware statistics register.
type Counter struct {
	Packets uint64
	Bytes   uint64
}

// Add counts one packet of n bytes.
func (c *Counter) Add(n int) {
	c.Packets++
	c.Bytes += uint64(n)
}

// BitsPerSecond converts a byte delta over elapsed seconds to a bit rate.
func (c Counter) BitsPerSecond(elapsed float64) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(c.Bytes) * 8 / elapsed
}

// PacketsPerSecond converts a packet delta over elapsed seconds to pps.
func (c Counter) PacketsPerSecond(elapsed float64) float64 {
	if elapsed <= 0 {
		return 0
	}
	return float64(c.Packets) / elapsed
}

// Column is one table column: its header and the fmt verb every cell
// in it renders with.
type Column struct {
	Name string
	Verb string
}

// Table is a printable experiment result: the harness emits one per
// paper table/figure. Cells hold values, so checks compare them
// exactly; String renders each with its column's verb, and a nil cell
// (a value the row does not have) as "-".
type Table struct {
	Title   string
	Columns []Column
	Rows    [][]any
}

// AddRow appends a row of values, one per column.
func (t *Table) AddRow(cells ...any) { t.Rows = append(t.Rows, cells) }

// Col returns the index of the column named name, or -1.
func (t *Table) Col(name string) int {
	for i, c := range t.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// Cell renders the cell at row r, column c as String prints it.
func (t *Table) Cell(r, c int) string {
	v := t.Rows[r][c]
	if v == nil {
		return "-"
	}
	return fmt.Sprintf(t.Columns[c].Verb, v)
}

// String renders the table with aligned columns.
func (t *Table) String() string {
	header := make([]string, len(t.Columns))
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		header[i], widths[i] = c.Name, len(c.Name)
	}
	cells := make([][]string, len(t.Rows))
	for r, row := range t.Rows {
		cells[r] = make([]string, len(row))
		for c := range row {
			cells[r][c] = t.Cell(r, c)
			widths[c] = max(widths[c], len(cells[r][c]))
		}
	}
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "== %s ==\n", t.Title)
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(header)
	for _, row := range cells {
		writeRow(row)
	}
	return b.String()
}
