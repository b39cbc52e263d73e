package invariant

import (
	"bytes"
	"fmt"

	"repro/internal/core"
	"repro/internal/guest"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/trace/pipeline"
	"repro/internal/workloads"
)

// Metamorphic differential testing: a workload's profile must not depend
// on parameters the paper's algorithm never consults. The runner executes
// one workload and then re-derives its profile under perturbations of
// those don't-care parameters, requiring byte-identical canonical exports
// (Profile.Export) for every perturbation that provably cannot change the
// result:
//
//   - analysis route: inline profiler vs. sequential trace replay vs. the
//     parallel pipeline at several worker counts — both from the recorded
//     trace's stamp annotations and, with the annotations stripped, from
//     annotations computed offline by trace.Annotate;
//   - merge tie seed: recorded timestamps are globally unique, so the
//     tie-breaker is never consulted;
//   - renumbering cadence: a tiny RenumberThreshold forces many Fig. 13
//     passes, which preserve every order relation the algorithm reads;
//   - CheckLevel: the checks observe, never steer;
//   - trace segment size: framing only, invisible after decoding;
//   - event batching: dispatch granularity inside the guest machine;
//   - HTTP observability: a scraper hammering the live endpoints mid-run
//     (including on-demand /profile captures) observes, never steers;
//   - window split: the merged event stream cut into consecutive time
//     windows, analyzed incrementally (core.Incremental) and re-merged
//     (core.MergePartials) — the continuous daemon's rolling fold; window
//     boundaries are framing, since every activation is recorded exactly
//     once, at its return.
//
// The scheduler timeslice is deliberately weaker: thread-induced
// first-accesses (the trms extension, paper Fig. 2) depend on the actual
// interleaving, so for multithreaded workloads a different quantum
// legitimately changes trms. Those variants assert the tier of properties
// that must still hold — identical routine sets, identical per-routine
// activation counts, and a well-formed profile — and escalate to strict
// byte-identity when the workload is single-threaded.

// Config selects the workload and perturbation depth of one metamorphic run.
type Config struct {
	// Workload names a registered workload (workloads.Get).
	Workload string
	// Params scales the baseline run. Timeslice and BatchMax must be
	// zero: they are the perturbation axes. Telemetry is managed
	// by the runner (conservation is checked per run).
	Params workloads.Params
	// Level is the CheckLevel applied to the checked runs (default
	// CheckDeep).
	Level core.CheckLevel
	// RenumberThreshold is the tiny threshold of the forced-renumbering
	// variants (default 64).
	RenumberThreshold uint32
	// Quick trims each perturbation axis to a single value; the full
	// matrix is the default.
	Quick bool
}

// Variant is the outcome of one perturbed re-derivation.
type Variant struct {
	// Name identifies the perturbation ("replay", "workers=8", ...).
	Name string
	// Strict records whether byte-identity was required (true) or only
	// the weak property tier (false; multithreaded timeslice variants).
	Strict bool
	// OK reports whether the variant agreed with the baseline.
	OK bool
	// Detail describes the disagreement when OK is false.
	Detail string
}

// Result is the outcome of one metamorphic run.
type Result struct {
	// Workload is the workload analyzed.
	Workload string
	// Events and Threads describe the recorded baseline trace.
	Events  int
	Threads int
	// Variants holds every perturbation's outcome.
	Variants []Variant
	// Report aggregates the invariant violations of the baseline run and
	// all checked variants (live profiler checks, trace and profile
	// checkers, conservation).
	Report *Report
}

// OK reports whether every variant agreed and no invariant was violated.
func (r *Result) OK() bool {
	if !r.Report.OK() {
		return false
	}
	for _, v := range r.Variants {
		if !v.OK {
			return false
		}
	}
	return true
}

// String renders a one-line-per-variant summary.
func (r *Result) String() string {
	var sb bytes.Buffer
	fmt.Fprintf(&sb, "%s: %d events, %d threads\n", r.Workload, r.Events, r.Threads)
	for _, v := range r.Variants {
		status := "ok"
		if !v.OK {
			status = "FAIL: " + v.Detail
		}
		tier := "strict"
		if !v.Strict {
			tier = "weak"
		}
		fmt.Fprintf(&sb, "  %-24s %-6s %s\n", v.Name, tier, status)
	}
	fmt.Fprintf(&sb, "  invariants: %d violation(s)", len(r.Report.Violations))
	return sb.String()
}

// Run executes the metamorphic suite for one workload: a recorded,
// invariant-checked baseline run, then the perturbation matrix.
func Run(cfg Config) (*Result, error) {
	if cfg.Level == core.CheckOff {
		cfg.Level = core.CheckDeep
	}
	if cfg.RenumberThreshold == 0 {
		cfg.RenumberThreshold = 64
	}
	if cfg.Params.Timeslice != 0 || cfg.Params.BatchMax != 0 || cfg.Params.Telemetry != nil {
		return nil, fmt.Errorf("invariant: Params.Timeslice/BatchMax/Telemetry are perturbation axes; leave them zero")
	}
	spec, err := workloads.Get(cfg.Workload)
	if err != nil {
		return nil, err
	}

	res := &Result{Workload: cfg.Workload, Report: &Report{}}

	// Baseline: one run with the checked inline profiler and the annotating
	// recorder side by side. The recorded trace feeds every re-analysis
	// variant; the exported inline profile is the reference output.
	rec := trace.NewRecorder()
	rec.SetAnnotations(true)
	base, err := runInline(spec, cfg.Params, core.Options{CheckLevel: cfg.Level}, res.Report, rec)
	if err != nil {
		return nil, fmt.Errorf("invariant: baseline run: %w", err)
	}
	if err := rec.Close(); err != nil {
		return nil, fmt.Errorf("invariant: recording baseline trace: %w", err)
	}
	tr := rec.Trace()
	res.Threads = len(tr.Threads)
	for i := range tr.Threads {
		res.Events += len(tr.Threads[i].Events)
	}
	res.Report.Merge(CheckTrace(tr))

	strict := func(name string, run func() ([]byte, error)) {
		v := Variant{Name: name, Strict: true}
		got, err := run()
		switch {
		case err != nil:
			v.Detail = err.Error()
		case !bytes.Equal(got, base):
			v.Detail = fmt.Sprintf("profile diverges from baseline (%d vs %d bytes)", len(got), len(base))
		default:
			v.OK = true
		}
		res.Variants = append(res.Variants, v)
	}

	// Analysis-route and tie-seed axes: replay and pipeline re-analyses of
	// the recorded trace.
	strict("replay", func() ([]byte, error) { return replayExport(tr, 1, core.Options{}) })
	strict("replay/checked", func() ([]byte, error) {
		return replayExport(tr, 1, core.Options{CheckLevel: cfg.Level, OnViolation: res.Report.Add})
	})
	strict(fmt.Sprintf("renumber=%d", cfg.RenumberThreshold), func() ([]byte, error) {
		return replayExport(tr, 1, core.Options{RenumberThreshold: cfg.RenumberThreshold})
	})
	strict(fmt.Sprintf("renumber=%d/checked", cfg.RenumberThreshold), func() ([]byte, error) {
		return replayExport(tr, 1, core.Options{RenumberThreshold: cfg.RenumberThreshold, CheckLevel: core.CheckDeep, OnViolation: res.Report.Add})
	})
	tieSeeds := []int64{99}
	if !cfg.Quick {
		tieSeeds = []int64{0, 99}
	}
	for _, seed := range tieSeeds {
		seed := seed
		strict(fmt.Sprintf("tieseed=%d", seed), func() ([]byte, error) { return replayExport(tr, seed, core.Options{}) })
	}
	work := []int{2}
	if !cfg.Quick {
		work = []int{1, 2, 8}
	}
	for _, w := range work {
		w := w
		strict(fmt.Sprintf("workers=%d", w), func() ([]byte, error) { return pipelineExport(tr, 1, w, core.Options{}) })
	}
	strict("workers=8/tieseed=99", func() ([]byte, error) { return pipelineExport(tr, 99, 8, core.Options{}) })
	strict("workers=2/checked", func() ([]byte, error) { return pipelineExport(tr, 1, 2, core.Options{CheckLevel: cfg.Level}) })

	// Recorded-vs-offline-annotations axis: the streamed baseline trace
	// carries stamp annotations, so every pipeline variant above plans from
	// the recorded ones. An annotation-stripped twin is annotated offline
	// by trace.Annotate instead; both must export byte-identical profiles.
	stripped := strippedCopy(tr)
	strict("offline-annotate/workers=2", func() ([]byte, error) { return pipelineExport(stripped, 1, 2, core.Options{}) })
	if !cfg.Quick {
		strict("offline-annotate/workers=8", func() ([]byte, error) { return pipelineExport(stripped, 1, 8, core.Options{}) })
		strict("offline-annotate/plan", func() ([]byte, error) {
			plan, err := pipeline.BuildPlan(stripped, 1, core.Options{})
			if err != nil {
				return nil, err
			}
			p, err := plan.Run(2)
			if err != nil {
				return nil, err
			}
			return p.Export()
		})
	}

	// HTTP observability axis: a scraper hammering the live plane's
	// endpoints — including /profile, which forces mid-run snapshot
	// captures through the snapshot trigger — while the pipeline
	// re-derives the profile. Observation is read-only by contract, so the
	// export must stay byte-identical (httpaxis.go).
	strict("http-scrape", func() ([]byte, error) { return httpScrapeExport(tr, 2) })

	// Window-split axis: slice the trace into k consecutive time windows,
	// feed them to an incremental analyzer with a window cut after each, and
	// merge the per-window partials (core.MergePartials) — the continuous
	// daemon's rolling-merge fold. Window boundaries are framing: an
	// activation is recorded exactly once, at its return, so the windows
	// partition the activation multiset and the merged profile must be
	// byte-identical to the batch analysis.
	winCounts := []int{3}
	if !cfg.Quick {
		winCounts = []int{2, 5}
	}
	for _, k := range winCounts {
		k := k
		strict(fmt.Sprintf("windows=%d", k), func() ([]byte, error) { return windowSplitExport(tr, k) })
	}

	// Segment-size axis: re-record the (deterministic) workload with a
	// different streaming segment capacity; the decoded trace must carry
	// the same events, and its replay the same profile.
	segs := []int{7}
	if !cfg.Quick {
		segs = []int{1, 7}
	}
	for _, n := range segs {
		res.Variants = append(res.Variants, segmentVariant(spec, cfg.Params, tr, base, n))
	}

	// Guest-dispatch axis: re-run the workload with perturbed batching;
	// the inline profile must be byte-identical.
	batch := []int{2}
	if !cfg.Quick {
		batch = []int{2, 16}
	}
	for _, n := range batch {
		n := n
		strict(fmt.Sprintf("batchmax=%d", n), func() ([]byte, error) {
			return rerunExport(spec, cfg.Params, res.Report, func(p *workloads.Params) { p.BatchMax = n })
		})
	}

	// Scheduler-timeslice axis: strict only for single-threaded baselines
	// (one thread means no interleaving and no thread-induced accesses);
	// weak tier otherwise — see the package comment.
	slices := []int{37}
	if !cfg.Quick {
		slices = []int{37, 250}
	}
	for _, q := range slices {
		res.Variants = append(res.Variants,
			timesliceVariant(spec, cfg.Params, res.Report, base, tr, q))
	}

	return res, nil
}

// runInline runs the workload on a fresh machine with a checked inline
// profiler (plus any extra tools), wiring violations into rep and checking
// profile well-formedness and event conservation, and returns the
// profile's canonical export.
func runInline(spec workloads.Spec, params workloads.Params, opts core.Options, rep *Report, extra ...guest.Tool) ([]byte, error) {
	reg := telemetry.NewRegistry()
	params.Telemetry = reg
	opts.Telemetry = reg
	if opts.OnViolation == nil {
		opts.OnViolation = rep.Add
	}
	prof := core.New(opts)
	tools := append([]guest.Tool{prof}, extra...)
	if _, err := workloads.Run(spec, params, tools...); err != nil {
		return nil, err
	}
	p := prof.Profile()
	rep.Merge(CheckProfile(p))
	rep.Merge(CheckConservation(reg))
	return p.Export()
}

// replayExport re-analyzes the trace sequentially (core.FromTrace).
func replayExport(tr *trace.Trace, tieSeed int64, opts core.Options) ([]byte, error) {
	p, err := core.FromTrace(tr, tieSeed, opts)
	if err != nil {
		return nil, err
	}
	return p.Export()
}

// pipelineExport re-analyzes the trace with the parallel pipeline.
func pipelineExport(tr *trace.Trace, tieSeed int64, workers int, opts core.Options) ([]byte, error) {
	p, err := pipeline.Analyze(tr, pipeline.Options{TieSeed: tieSeed, Workers: workers, Profile: opts})
	if err != nil {
		return nil, err
	}
	return p.Export()
}

// windowSplitExport splits the trace into k consecutive time windows at
// evenly spaced cut timestamps (trace.SplitByTS), feeds each window in
// sequence to an incremental analyzer with a window cut after each, and
// returns the export of the merged per-window partials. Coinciding cuts
// (tiny traces) simply yield empty windows, which is itself a useful case:
// cutting an empty window must be a no-op.
func windowSplitExport(tr *trace.Trace, k int) ([]byte, error) {
	var minTS, maxTS uint64
	empty := true
	for i := range tr.Threads {
		for _, e := range tr.Threads[i].Events {
			if empty || e.TS < minTS {
				minTS = e.TS
			}
			if empty || e.TS > maxTS {
				maxTS = e.TS
			}
			empty = false
		}
	}
	var cuts []uint64
	if !empty {
		span := maxTS - minTS
		for i := 1; i < k; i++ {
			cuts = append(cuts, minTS+span*uint64(i)/uint64(k))
		}
	}
	windows := trace.SplitByTS(tr, cuts)
	in := core.NewIncremental(core.Options{})
	parts := make([]*core.PartialProfile, 0, len(windows))
	for i, w := range windows {
		if err := in.FeedTrace(w, 1); err != nil {
			return nil, err
		}
		if i == len(windows)-1 {
			in.Finish()
		}
		parts = append(parts, in.Cut())
	}
	return core.MergePartials(parts...).Profile.Export()
}

// rerunExport re-runs the workload with mutated parameters and a checked
// inline profiler, returning the new profile's export.
func rerunExport(spec workloads.Spec, params workloads.Params, rep *Report, mutate func(*workloads.Params)) ([]byte, error) {
	mutate(&params)
	return runInline(spec, params, core.Options{CheckLevel: core.CheckCheap}, rep)
}

// segmentVariant re-records the workload with segment capacity n and
// requires both the decoded trace and its replayed profile to match the
// baseline.
func segmentVariant(spec workloads.Spec, params workloads.Params, baseTr *trace.Trace, base []byte, n int) Variant {
	v := Variant{Name: fmt.Sprintf("segment=%d", n), Strict: true}
	rec := trace.NewRecorder()
	rec.SetAnnotations(true)
	rec.SetSegmentEvents(n)
	if _, err := workloads.Run(spec, params, rec); err != nil {
		v.Detail = err.Error()
		return v
	}
	if err := rec.Close(); err != nil {
		v.Detail = "record: " + err.Error()
		return v
	}
	tr := rec.Trace()
	if !tracesEqual(baseTr, tr) {
		v.Detail = "re-recorded trace differs from baseline trace"
		return v
	}
	got, err := replayExport(tr, 1, core.Options{})
	if err != nil {
		v.Detail = err.Error()
		return v
	}
	if !bytes.Equal(got, base) {
		v.Detail = fmt.Sprintf("profile diverges from baseline (%d vs %d bytes)", len(got), len(base))
		return v
	}
	// A tiny segment capacity forces many recorder flushes, splitting the
	// recorded annotation runs mid-schedule; the pipeline's annotated route
	// over this trace must still reproduce the baseline exactly.
	got, err = pipelineExport(tr, 1, 2, core.Options{})
	if err != nil {
		v.Detail = "pipeline: " + err.Error()
		return v
	}
	if !bytes.Equal(got, base) {
		v.Detail = fmt.Sprintf("annotated pipeline profile diverges from baseline (%d vs %d bytes)", len(got), len(base))
		return v
	}
	v.OK = true
	return v
}

// strippedCopy returns a twin of tr whose stamp annotations are removed,
// leaving the shared event data untouched: the pipeline annotates it
// offline.
func strippedCopy(tr *trace.Trace) *trace.Trace {
	cp := *tr
	cp.Threads = append([]trace.ThreadTrace(nil), tr.Threads...)
	cp.StripAnnotations()
	return &cp
}

// timesliceVariant re-runs the workload under a different scheduler
// quantum. Single-threaded baselines demand byte-identity; multithreaded
// ones the weak tier: same routine set, same per-routine merged activation
// counts, well-formed profile.
func timesliceVariant(spec workloads.Spec, params workloads.Params, rep *Report, base []byte, baseTr *trace.Trace, quantum int) Variant {
	name := fmt.Sprintf("timeslice=%d", quantum)
	params.Timeslice = quantum
	singleThreaded := len(baseTr.Threads) == 1
	if singleThreaded {
		v := Variant{Name: name, Strict: true}
		got, err := runInline(spec, params, core.Options{CheckLevel: core.CheckCheap}, rep)
		switch {
		case err != nil:
			v.Detail = err.Error()
		case !bytes.Equal(got, base):
			v.Detail = fmt.Sprintf("profile diverges from baseline (%d vs %d bytes)", len(got), len(base))
		default:
			v.OK = true
		}
		return v
	}

	v := Variant{Name: name, Strict: false}
	prof := core.New(core.Options{CheckLevel: core.CheckCheap, OnViolation: rep.Add})
	if _, err := workloads.Run(spec, params, prof); err != nil {
		v.Detail = err.Error()
		return v
	}
	got := prof.Profile()
	if bad := CheckProfile(got); !bad.OK() {
		rep.Merge(bad)
		v.Detail = "perturbed profile violates well-formedness"
		return v
	}
	want, err := core.FromTrace(baseTr, 1, core.Options{})
	if err != nil {
		v.Detail = err.Error()
		return v
	}
	if detail := compareWeak(want, got); detail != "" {
		v.Detail = detail
		return v
	}
	v.OK = true
	return v
}

// compareWeak checks the timeslice-invariant property tier: the perturbed
// run visits exactly the same routines, each exactly as often. (trms, and
// through ancestor attribution even rms and cost splits, may shift with
// the interleaving; activation counts cannot — the scheduler does not
// decide what the program calls.)
func compareWeak(want, got *core.Profile) string {
	wantNames, gotNames := want.RoutineNames(), got.RoutineNames()
	if len(wantNames) != len(gotNames) {
		return fmt.Sprintf("routine set changed: %d vs %d routines", len(wantNames), len(gotNames))
	}
	for i, name := range wantNames {
		if gotNames[i] != name {
			return fmt.Sprintf("routine set changed: %q vs %q", name, gotNames[i])
		}
		w := want.Routines[name].Merged()
		g := got.Routines[name].Merged()
		if w.Calls != g.Calls {
			return fmt.Sprintf("%s: activation count changed: %d vs %d", name, w.Calls, g.Calls)
		}
	}
	return ""
}

// tracesEqual compares two traces event for event, matching threads by id:
// the order thread traces appear in the container depends on segment flush
// order, which is exactly the framing detail the segment-size axis perturbs.
func tracesEqual(a, b *trace.Trace) bool {
	if len(a.Threads) != len(b.Threads) {
		return false
	}
	byID := make(map[guest.ThreadID]*trace.ThreadTrace, len(b.Threads))
	for i := range b.Threads {
		byID[b.Threads[i].ID] = &b.Threads[i]
	}
	for i := range a.Threads {
		ta := &a.Threads[i]
		tb := byID[ta.ID]
		if tb == nil || len(ta.Events) != len(tb.Events) {
			return false
		}
		for j := range ta.Events {
			if ta.Events[j] != tb.Events[j] {
				return false
			}
		}
	}
	return true
}
