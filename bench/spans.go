package main

import (
	"sort"
	"time"
)

// span is one timed call from the benchmark into a layer's public
// functions. Spans are recorded around calls, never inside the program, so
// tracing cannot change what the program does.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"` // index into the span list; -1 for a rep root
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced reps run the same code. It is used from one
// goroutine only.
type tracer struct {
	epoch time.Time
	spans []span
	open  int // innermost open span, -1 when none
}

func newTracer() *tracer { return &tracer{epoch: time.Now(), open: -1} }

// begin opens a span as a child of the innermost open span.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	t.spans = append(t.spans, span{Name: name, Start: int64(time.Since(t.epoch)), Parent: t.open})
	t.open = len(t.spans) - 1
	return t.open
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = int64(time.Since(t.epoch))
	t.open = t.spans[id].Parent
}

// timed runs f inside a span named name and returns its wall time, which
// is measured whether or not the tracer records.
func (t *tracer) timed(name string, f func() error) (time.Duration, error) {
	id := t.begin(name)
	start := time.Now()
	err := f()
	d := time.Since(start)
	t.end(id)
	return d, err
}

// selfTimes returns every span's self time: its duration minus the part of
// its interval that its children cover.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		self[i] = s.dur() - covered(spans, s, children[i])
	}
	return self
}

// covered returns how much of parent's interval the union of the given
// child spans covers.
func covered(spans []span, parent span, kids []int) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(spans[k].Start, parent.Start), min(spans[k].End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var total, end int64
	for _, v := range ivs {
		if v.lo < end {
			v.lo = end
		}
		if v.hi > v.lo {
			total += v.hi - v.lo
			end = v.hi
		}
	}
	return total
}

// coverage is the share of root's duration covered by its direct children.
func coverage(spans []span, root int) float64 {
	var kids []int
	for i, s := range spans {
		if s.Parent == root {
			kids = append(kids, i)
		}
	}
	d := spans[root].dur()
	if d <= 0 {
		return 1
	}
	return float64(covered(spans, spans[root], kids)) / float64(d)
}

// selfByName sums the self times of root's descendants by span name.
func selfByName(spans []span, self []int64, root int) map[string]time.Duration {
	out := make(map[string]time.Duration)
	for i := root + 1; i < len(spans); i++ {
		if !descends(spans, i, root) {
			continue
		}
		out[spans[i].Name] += time.Duration(self[i])
	}
	return out
}

func descends(spans []span, i, root int) bool {
	for p := spans[i].Parent; p >= 0; p = spans[p].Parent {
		if p == root {
			return true
		}
	}
	return false
}
