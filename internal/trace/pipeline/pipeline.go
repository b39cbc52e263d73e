// Package pipeline implements offline, parallel trace-replay analysis: it
// computes the same input-sensitive profile the inline profiler (core.New
// attached to a live machine, or core.FromTrace over a recording) computes,
// but splits the work so the expensive per-thread shadow analysis runs on
// GOMAXPROCS worker goroutines.
//
// The decomposition exploits the structure of the paper's Fig. 11 algorithm.
// Per event, the inline profiler consults two kinds of state:
//
//   - global state — the counter bumped at calls, thread switches and kernel
//     writes, and the global shadow memory wts holding each cell's latest
//     write timestamp and provenance — which depends on the whole
//     interleaving; and
//   - per-thread state — the thread's latest-access shadow memory ts_t and
//     its shadow stack of partial trms/rms values — which depends only on
//     that thread's own events plus the global values observed at them.
//
// The pipeline therefore splits work into global-state derivation and
// per-thread analysis. The global half is the trace's stamp annotations
// (trace.Stamp): every segment's entry counter and every read's (wts,
// writer) stamp. Traces recorded by trace.StreamRecorder carry them in the
// file; any other trace is first annotated offline by trace.Annotate, one
// sequential pass over the merged order. Either way BuildPlan assembles the
// plan from the annotations in O(#segments), and there is one plan route.
//
// The analyze phase processes each guest thread independently — shadow
// memory, shadow stack, histogram aggregation — on a bounded pool of
// workers, and deterministically folds the per-thread profiles together.
// The result is byte-identical (core.Profile.Export) to the inline
// profiler's on every route: the differential tests and the metamorphic
// harness's recorded-vs-offline-annotations axis assert this across
// workloads and worker counts.
//
// Timestamps are 64-bit throughout, so the pipeline never renumbers; this
// is equivalent because the paper's renumbering (Fig. 13) preserves exactly
// the order relations the algorithm consults, and profiles depend only on
// those relations.
package pipeline

import (
	"context"
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/guest"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Options configures a parallel analysis run.
type Options struct {
	// TieSeed is the tie-breaking seed for the merge order, as in
	// trace.Merge. Machine-recorded traces have globally unique timestamps,
	// so the seed is irrelevant for them.
	TieSeed int64

	// Workers bounds the number of concurrently analyzed guest threads.
	// Zero selects GOMAXPROCS. The profile is identical for every worker
	// count.
	Workers int

	// MaxEvents, when positive, refuses traces with more events before any
	// analysis allocation happens — a guard against pathological or
	// corrupted inputs exhausting memory. Zero means unlimited.
	MaxEvents int

	// Profile configures the analyzers. ContextSensitive is not supported
	// by the parallel pipeline (it needs a shared calling-context tree);
	// Analyze rejects it. RenumberThreshold is ignored: the
	// pipeline's 64-bit counters never overflow.
	Profile core.Options

	// Telemetry, when non-nil, receives the pipeline's self-metrics:
	// pipeline/* counters (events and segments processed, threads
	// analyzed), histograms (queue wait, per-thread analysis time, merge
	// time) and gauges (worker count, utilization percent). It also turns
	// the analysis phases into runtime/trace regions under an
	// "aprof.analyze" task, so `go tool trace` shows them. Nil disables
	// metric collection (regions still open; they are near-free when
	// execution tracing is off).
	Telemetry *telemetry.Registry

	// Progress, when non-nil, is invoked as segments of the trace complete
	// with the cumulative number of processed events and the total event
	// count of the plan. It works independently of Telemetry — a bare
	// progress line needs no registry. Callbacks fire from worker
	// goroutines concurrently; the callee must be safe for concurrent use
	// (telemetry.Progress is).
	Progress func(processed, total uint64)

	// Snapshot, when non-nil with a Path or Sink, publishes live profile
	// snapshots mid-run (see SnapshotOptions).
	Snapshot *SnapshotOptions
}

// segment is a run of one thread's events in the merged order: the unit the
// plan shards traces into. Lo and Hi index into the events of thread trace
// Src; StartCount is the global counter value on entry (after the preceding
// switchThread bump). Segments split at thread switches and, in recorded
// annotations, additionally at recorder-flush boundaries — splits within a
// run are exact (the entry counter is recorded at the split point) and do
// not change profiles.
type segment struct {
	src        int // index into Trace.Threads
	lo, hi     int
	startCount uint64
}

// threadPlan is the per-guest-thread share of a Plan: the thread's segments
// in merged order and the global write-shadow observations of its reads, in
// event order, sharing the annotation's stamp slice without copying (nil
// under RMSOnly, which consults no write shadow).
type threadPlan struct {
	id       guest.ThreadID
	events   int
	segments []segment
	reads    []trace.Stamp
}

// Plan is the output of plan assembly: everything the per-thread analyzers
// need to run independently of each other.
type Plan struct {
	tr        *trace.Trace
	opts      core.Options
	annotated bool          // assembled from annotations recorded in the file
	threads   []*threadPlan // in order of first appearance in the merged order

	// reg, progress and snapshot are AnalyzeContext's Options.Telemetry,
	// Progress and Snapshot; a plan from BuildPlan runs without them.
	reg      *telemetry.Registry
	progress func(processed, total uint64)
	snapshot *SnapshotOptions
}

// Annotated reports whether the plan was assembled from stamp annotations
// recorded in the trace file, rather than from an offline trace.Annotate
// pass over an unannotated trace.
func (p *Plan) Annotated() bool { return p.annotated }

// NumEvents returns the total number of events across the plan's threads —
// the denominator a Progress callback receives.
func (p *Plan) NumEvents() uint64 {
	var n uint64
	for _, tp := range p.threads {
		n += uint64(tp.events)
	}
	return n
}

// Analyze computes the trace's input-sensitive profile with the parallel
// pipeline: BuildPlan, fan-out to workers, deterministic merge. The result
// is identical to core.FromTrace(tr, tieSeed, opts.Profile). tr itself is
// never modified; an unannotated trace stays unannotated.
func Analyze(tr *trace.Trace, opts Options) (*core.Profile, error) {
	return AnalyzeContext(context.Background(), tr, opts)
}

// AnalyzeContext is Analyze with cancellation: plan assembly (including an
// offline Annotate pass) and the worker pool observe ctx and return
// ctx.Err() promptly when it is canceled or its deadline passes. It also
// enforces the Options.MaxEvents guard. It always runs BuildPlan and then
// Plan.Run.
func AnalyzeContext(ctx context.Context, tr *trace.Trace, opts Options) (*core.Profile, error) {
	if opts.MaxEvents > 0 {
		if n := tr.NumEvents(); n > opts.MaxEvents {
			return nil, fmt.Errorf("pipeline: trace has %d events, exceeding the max-events guard (%d); raise the limit to analyze it", n, opts.MaxEvents)
		}
	}
	ctx, endTask := telemetry.StartTask(ctx, "aprof.analyze")
	defer endTask()
	plan, err := buildPlan(ctx, tr, opts.TieSeed, opts.Profile, opts.Telemetry)
	if err != nil {
		return nil, err
	}
	plan.reg, plan.progress, plan.snapshot = opts.Telemetry, opts.Progress, opts.Snapshot
	return plan.RunContext(ctx, opts.Workers)
}

// BuildPlan assembles the analysis plan from the trace's stamp annotations
// (see trace.Stamp) in O(#segments). A trace without annotations, or whose
// annotations are inconsistent, is first annotated offline by
// trace.Annotate, one sequential pass over the merged event order; the
// annotated copy shares tr's events, and tr is left unchanged. Annotate's
// errors (a trace whose annotations cannot be expressed per ThreadTrace)
// are returned.
//
// The analyzers keep the counter and their shadow cells at 64 bits, so no
// renumbering ever happens.
func BuildPlan(tr *trace.Trace, tieSeed int64, opts core.Options) (*Plan, error) {
	return buildPlan(context.Background(), tr, tieSeed, opts, nil)
}

// planFromAnnotations assembles a plan from the trace's recorded stamp
// annotations without scanning any events: each annotated run becomes a
// segment, reads share the decoded stamp slices, and threads are ordered by
// their first run's entry count — which is exactly first appearance in the
// merged order, because every thread switch bumps the counter. It returns
// ok=false (the caller annotates offline instead) if the annotations are
// internally inconsistent, which the decoder rules out for traces it marks
// Annotated but a hand-mutated trace could still exhibit.
func planFromAnnotations(tr *trace.Trace, opts core.Options) (*Plan, bool) {
	p := &Plan{tr: tr, opts: opts}
	type firstOf struct {
		tp    *threadPlan
		start uint64
	}
	order := make([]firstOf, 0, len(tr.Threads))
	for ti := range tr.Threads {
		tt := &tr.Threads[ti]
		if len(tt.Events) == 0 {
			continue
		}
		ann := tt.Ann
		if ann == nil {
			return nil, false
		}
		tp := &threadPlan{id: tt.ID, events: len(tt.Events)}
		if !opts.RMSOnly {
			tp.reads = ann.Stamps
		}
		lo := 0
		first := uint64(0)
		for _, run := range ann.Runs {
			if run.Events <= 0 {
				if run.Events < 0 {
					return nil, false
				}
				continue
			}
			if len(tp.segments) == 0 {
				first = run.StartCount
			}
			start := run.StartCount
			if opts.RMSOnly {
				// The rms-only counter skips kernel-write bumps; recover its
				// image by subtracting the recorded bump tally.
				if run.KernelBumps > run.StartCount {
					return nil, false
				}
				start -= run.KernelBumps
			}
			if lo+run.Events > len(tt.Events) {
				return nil, false
			}
			tp.segments = append(tp.segments, segment{src: ti, lo: lo, hi: lo + run.Events, startCount: start})
			lo += run.Events
		}
		if lo != len(tt.Events) {
			return nil, false
		}
		order = append(order, firstOf{tp: tp, start: first})
	}
	sort.Slice(order, func(i, j int) bool { return order[i].start < order[j].start })
	p.threads = make([]*threadPlan, len(order))
	for i, o := range order {
		p.threads[i] = o.tp
	}
	return p, true
}

// buildPlan is BuildPlan with cancellation, timed into reg: the offline
// Annotate pass polls ctx once per merged scheduler run, so a canceled
// pass stops within one run and returns ctx.Err(); planning from recorded
// annotations does no event work and ignores ctx. pipeline/plan covers
// planning from recorded annotations, pipeline/prescan the offline
// Annotate pass and planning from its output.
func buildPlan(ctx context.Context, tr *trace.Trace, tieSeed int64, opts core.Options, reg *telemetry.Registry) (*Plan, error) {
	if opts.ContextSensitive {
		return nil, fmt.Errorf("pipeline: ContextSensitive profiling requires the sequential replayer (core.FromTrace)")
	}
	if tr.Annotated {
		span := reg.StartSpan(ctx, "pipeline/plan")
		p, ok := planFromAnnotations(tr, opts)
		span.End()
		if ok {
			p.annotated = true
			return p, nil
		}
	}
	span := reg.StartSpan(ctx, "pipeline/prescan")
	defer span.End()
	annotated, err := trace.Annotate(ctx, tr, tieSeed)
	if err != nil {
		return nil, fmt.Errorf("pipeline: %w", err)
	}
	p, ok := planFromAnnotations(annotated, opts)
	if !ok {
		return nil, fmt.Errorf("pipeline: offline annotations of the trace are inconsistent")
	}
	return p, nil
}

// NumThreads returns the number of guest threads the plan shards work into —
// the pipeline's maximum useful parallelism.
func (p *Plan) NumThreads() int { return len(p.threads) }

// NumSegments returns the total number of thread-switch-bounded segments.
func (p *Plan) NumSegments() int {
	n := 0
	for _, tp := range p.threads {
		n += len(tp.segments)
	}
	return n
}

// Run executes the plan's analyze phase: every guest thread's events are
// processed by an independent shadow-memory analyzer on a pool of at most
// workers goroutines (0 selects GOMAXPROCS), and the per-thread profiles are
// folded together in deterministic thread order. Run may be called multiple
// times; every call returns an identical profile.
func (p *Plan) Run(workers int) (*core.Profile, error) {
	return p.RunContext(context.Background(), workers)
}

// RunContext is Run with cancellation and worker fault isolation: a panic
// inside one per-thread analyzer is converted into an error carrying the
// thread and segment context instead of crashing the process, the remaining
// workers drain cleanly, and the first failure (in deterministic thread
// order) is returned. When ctx is canceled, threads not yet started are
// skipped and ctx.Err() is returned after in-flight threads finish.
func (p *Plan) RunContext(ctx context.Context, workers int) (*core.Profile, error) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	reg := p.reg
	reg.Gauge("pipeline/workers").Set(int64(workers))

	// Live snapshots: the manager owns all JSON and file work.
	var mgr *snapManager
	if p.snapshot != nil && p.snapshot.enabled() {
		mgr = newSnapManager(p, *p.snapshot, reg)
	}

	// Progress plumbing: workers accumulate processed events into one
	// shared atomic at segment granularity and report the running total.
	// The onSegment hook stays nil when neither progress nor telemetry is
	// wanted, so the default run carries no atomic traffic.
	total := p.NumEvents()
	var processed atomic.Uint64
	var onSegment func(events int)
	evCounter := reg.Counter("pipeline/events_processed")
	segCounter := reg.Counter("pipeline/segments_processed")
	if p.progress != nil || reg != nil {
		progress := p.progress
		onSegment = func(events int) {
			done := processed.Add(uint64(events))
			evCounter.Add(uint64(events))
			segCounter.Inc()
			if progress != nil {
				progress(done, total)
			}
		}
	}

	// analyze wraps one thread's analysis with its telemetry: a span (a
	// runtime/trace region plus the pipeline/thread_ns histogram), a pprof
	// label so CPU profiles split by guest thread, and the shared busy-time
	// tally behind the utilization gauge.
	var busyNS atomic.Int64
	analyze := func(ctx context.Context, i int, tp *threadPlan) (*core.Profile, error) {
		var prof *core.Profile
		var err error
		telemetry.Do(ctx, "aprof.thread", strconv.Itoa(int(tp.id)), func(ctx context.Context) {
			span := reg.StartSpanAttrs(ctx, "pipeline/thread",
				map[string]string{"thread": strconv.Itoa(int(tp.id))})
			start := time.Now()
			var snap *workerSnap
			if mgr != nil {
				snap = &workerSnap{mgr: mgr, threadIdx: i}
			}
			prof, err = analyzeThread(ctx, p.tr, tp, p.opts, onSegment, snap)
			busyNS.Add(int64(time.Since(start)))
			span.End()
		})
		return prof, err
	}

	runStart := time.Now()
	results := make([]*core.Profile, len(p.threads))
	errs := make([]error, len(p.threads))
	// The context is checked once a slot is free, so a cancellation skips
	// every thread not yet started; with one slot the pool runs the
	// threads one after another.
	var wg sync.WaitGroup
	queueHist := reg.Histogram("pipeline/queue_wait_ns")
	sem := make(chan struct{}, workers)
	for i, tp := range p.threads {
		enqueued := time.Now()
		sem <- struct{}{}
		queueHist.Observe(uint64(time.Since(enqueued)))
		if err := ctx.Err(); err != nil {
			errs[i] = err
			break
		}
		wg.Add(1)
		go func(i int, tp *threadPlan) {
			defer wg.Done()
			results[i], errs[i] = analyze(ctx, i, tp)
			<-sem
		}(i, tp)
	}
	wg.Wait()
	if reg != nil {
		reg.Counter("pipeline/threads_analyzed").Add(uint64(len(p.threads)))
		if wall := time.Since(runStart); wall > 0 && workers > 0 {
			util := 100 * busyNS.Load() / (int64(wall) * int64(workers))
			reg.Gauge("pipeline/utilization_pct").Set(util)
		}
	}

	var firstErr error
	for _, err := range errs {
		if err != nil {
			firstErr = err
			break
		}
	}
	if mgr != nil {
		// The final snapshot is written here, synchronously: a canceled run
		// leaves its partial profile on disk before RunContext returns.
		mgr.close(firstErr != nil || ctx.Err() != nil)
	}
	if firstErr != nil {
		return nil, firstErr
	}
	// The cross-thread merge is the same associative PartialProfile fold
	// the continuous daemon uses across time windows: each worker's profile
	// is one partial of the execution's activation multiset.
	mergeSpan := reg.StartSpan(ctx, "pipeline/merge")
	parts := make([]*core.PartialProfile, len(results))
	for i, r := range results {
		parts[i] = core.NewPartialProfile(r)
	}
	out := core.MergePartials(parts...).Profile
	mergeSpan.End()
	return out, nil
}
