package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

var processStart = time.Now()

// clock returns host nanoseconds since process start on the monotonic
// clock.
func clock() int64 { return int64(time.Since(processStart)) }

// span is one timed call the benchmark made into a layer. Spans of one
// repetition share Run; Parent indexes the enclosing span (-1 at a root).
type span struct {
	Name   string `json:"name"`
	Run    int    `json:"run"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// tracer records spans in memory. A nil *tracer is the untraced run:
// every method is a no-op, so untraced repetitions pay one nil check per
// phase boundary and nothing per event.
type tracer struct {
	run   int
	spans []span
}

func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return -1
	}
	now := clock()
	t.spans = append(t.spans, span{Name: name, Run: t.run, Parent: parent, Start: now, End: now})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = clock()
}

// child records a span of a known duration under parent, starting where
// the parent starts. It carries the per-slice sum of sink-callback time,
// which is spread over the slice rather than contiguous.
func (t *tracer) child(name string, parent int, dur int64) {
	if t == nil || dur <= 0 {
		return
	}
	start := t.spans[parent].Start
	t.spans = append(t.spans, span{Name: name, Run: t.run, Parent: parent, Start: start, End: start + dur})
}

func (s *span) dur() int64 { return s.End - s.Start }

// selfTimes fills each span's Self: its duration minus the part its
// children cover. Children never overlap one another, except the sink
// child on a sharded run, whose time is summed over shards; Self is
// clamped at zero there.
func (t *tracer) selfTimes() {
	for i := range t.spans {
		t.spans[i].Self = t.spans[i].dur()
	}
	for i := range t.spans {
		if p := t.spans[i].Parent; p >= 0 {
			t.spans[p].Self -= t.spans[i].dur()
		}
	}
	for i := range t.spans {
		t.spans[i].Self = max(t.spans[i].Self, 0)
	}
}

// sum returns the total duration of the spans named name under any span
// named under (one level up).
func (t *tracer) sum(name, under string) int64 {
	var n int64
	for _, s := range t.spans {
		if s.Name == name && s.Parent >= 0 && t.spans[s.Parent].Name == under {
			n += s.dur()
		}
	}
	return n
}

// write stores every span as one JSON line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range t.spans {
		if err := enc.Encode(&t.spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// summary prints one row per span name: count, total and self time, and
// self time as a share of all "run" spans.
func (t *tracer) summary(w io.Writer) {
	type row struct {
		name        string
		n           int
		total, self int64
	}
	rows := map[string]*row{}
	var run int64
	for _, s := range t.spans {
		r := rows[s.Name]
		if r == nil {
			r = &row{name: s.Name}
			rows[s.Name] = r
		}
		r.n++
		r.total += s.dur()
		r.self += s.Self
		if s.Name == "run" {
			run += s.dur()
		}
	}
	list := make([]*row, 0, len(rows))
	for _, r := range rows {
		list = append(list, r)
	}
	sort.Slice(list, func(i, j int) bool { return list[i].self > list[j].self })
	fmt.Fprintf(w, "%-18s %8s %12s %12s %9s\n", "span", "count", "total(ms)", "self(ms)", "self/run")
	for _, r := range list {
		fmt.Fprintf(w, "%-18s %8d %12.3f %12.3f %8.2f%%\n", r.name, r.n,
			float64(r.total)/1e6, float64(r.self)/1e6, 100*ratio(float64(r.self), float64(run)))
	}
}
