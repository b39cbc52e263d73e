// Span timers and execution-trace integration: spans record wall-clock
// durations into registry histograms and, when `go test -trace` /
// runtime/trace collection is active, open matching runtime/trace regions
// so `go tool trace` shows the profiler's own phases (plan, offline
// annotation, per-thread analysis, merge) on the timeline. pprof labels tag worker goroutines so
// CPU profiles split by pipeline thread.
package telemetry

import (
	"context"
	"runtime/pprof"
	"runtime/trace"
	"time"
)

// Span is an in-flight timed section returned by Registry.StartSpan. End
// stops the timer, records the duration (in nanoseconds) into the span's
// histogram and the registry's completed-span ring, and closes the
// runtime/trace region. The zero Span is inert.
type Span struct {
	reg    *Registry
	name   string
	attrs  map[string]string
	h      *Histogram
	start  time.Time
	region *trace.Region
}

// StartSpan opens a timed section named name. The duration is recorded in
// the histogram "<name>_ns" when End is called. A runtime/trace region
// with the same name is opened regardless of whether the registry is nil,
// so `go tool trace` timelines work even with metrics disabled (regions
// are near-free when tracing is off).
func (r *Registry) StartSpan(ctx context.Context, name string) Span {
	return r.StartSpanAttrs(ctx, name, nil)
}

// StartSpanAttrs is StartSpan with key=value attributes attached to the
// completed-span record (e.g. which pipeline thread a span analyzed). The
// attrs map must not be mutated after the call.
func (r *Registry) StartSpanAttrs(ctx context.Context, name string, attrs map[string]string) Span {
	s := Span{region: trace.StartRegion(ctx, name)}
	if r != nil {
		s.reg = r
		s.name = name
		s.attrs = attrs
		s.h = r.Histogram(name + "_ns")
		s.start = time.Now()
	}
	return s
}

// End closes the span: the elapsed time is observed into the histogram,
// the completed span enters the registry's span ring, and the
// runtime/trace region ends. Safe to call on the zero Span.
func (s Span) End() {
	if s.h != nil {
		end := time.Now()
		s.h.Observe(uint64(end.Sub(s.start)))
		s.reg.recordSpan(SpanRecord{Name: s.name, Start: s.start, Duration: end.Sub(s.start), Attrs: s.attrs})
	}
	if s.region != nil {
		s.region.End()
	}
}

// spanRingCap bounds the registry's completed-span ring: a long run keeps
// the most recent spanRingCap spans, so the /spans.json timeline stays a
// fixed-size window no matter how long the process lives.
const spanRingCap = 512

// SpanRecord is one completed span in the registry's bounded ring: what
// ran, when it started, how long it took, and any attributes attached at
// start.
type SpanRecord struct {
	Name     string            `json:"name"`
	Start    time.Time         `json:"start"`
	Duration time.Duration     `json:"duration_ns"`
	Attrs    map[string]string `json:"attrs,omitempty"`
}

// recordSpan appends one completed span to the ring, evicting the oldest
// once the ring is full. No-op on a nil registry.
func (r *Registry) recordSpan(rec SpanRecord) {
	if r == nil {
		return
	}
	r.spanMu.Lock()
	if len(r.spans) < spanRingCap {
		r.spans = append(r.spans, rec)
	} else {
		r.spans[r.spanNext] = rec
	}
	r.spanNext = (r.spanNext + 1) % spanRingCap
	r.spanMu.Unlock()
}

// Spans returns the completed spans currently in the ring, oldest first.
// Safe on a nil registry (returns nil).
func (r *Registry) Spans() []SpanRecord {
	if r == nil {
		return nil
	}
	r.spanMu.Lock()
	defer r.spanMu.Unlock()
	out := make([]SpanRecord, 0, len(r.spans))
	if len(r.spans) == spanRingCap {
		out = append(out, r.spans[r.spanNext:]...)
		out = append(out, r.spans[:r.spanNext]...)
	} else {
		out = append(out, r.spans...)
	}
	return out
}

// StartTask opens a runtime/trace task (a named interval that groups child
// regions in `go tool trace`). The returned context must be passed to
// StartSpan/Do calls belonging to the task; call end when the task
// completes. Works with a nil registry.
func StartTask(ctx context.Context, name string) (context.Context, func()) {
	ctx, task := trace.NewTask(ctx, name)
	return ctx, task.End
}

// Do runs fn with the pprof label key=value attached, so CPU and goroutine
// profiles taken while fn runs can be split by the label (e.g. per pipeline
// worker). It composes with StartSpan via the shared context.
func Do(ctx context.Context, key, value string, fn func(ctx context.Context)) {
	pprof.Do(ctx, pprof.Labels(key, value), fn)
}
