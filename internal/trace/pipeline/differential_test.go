package pipeline_test

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/guest"
	"repro/internal/trace"
	"repro/internal/trace/pipeline"
	"repro/internal/workloads"
)

// recordAndProfile runs the named workload once with the inline profiler,
// the trace recorder and any extra tools attached side by side, returning
// the inline profile's canonical export and the recorded trace.
func recordAndProfile(t *testing.T, name string, params workloads.Params, opts core.Options, extra ...guest.Tool) ([]byte, *trace.Trace) {
	t.Helper()
	prof := core.New(opts)
	rec := trace.NewRecorder()
	if _, err := workloads.RunByName(name, params, append([]guest.Tool{prof, rec}, extra...)...); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want := export(t, prof.Profile())
	return want, rec.Trace()
}

func export(t *testing.T, p *core.Profile) []byte {
	t.Helper()
	b, err := p.Export()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDifferentialWorkloads is the pipeline's central correctness test: for
// workloads drawn from three suites, the inline profile, the sequential
// replay profile (core.FromTrace) and the parallel pipeline profile at
// several worker counts are byte-identical.
func TestDifferentialWorkloads(t *testing.T) {
	cases := []struct {
		name   string // workload (suite noted for the three-suite criterion)
		params workloads.Params
	}{
		{"producer-consumer", workloads.Params{Size: 48}},  // micro
		{"fig1a", workloads.Params{Size: 32}},              // micro
		{"mysqld", workloads.Params{Size: 24, Threads: 4}}, // mysql
		{"vips", workloads.Params{Size: 24, Threads: 3}},   // parsec
		{"dedup", workloads.Params{Size: 24, Threads: 3}},  // parsec
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, tr := recordAndProfile(t, tc.name, tc.params, core.Options{})

			seq, err := core.FromTrace(tr, 1, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if got := export(t, seq); !bytes.Equal(got, want) {
				t.Fatalf("sequential replay diverges from inline profile\ninline: %d bytes\nreplay: %d bytes", len(want), len(got))
			}

			for _, workers := range []int{1, 2, 4, 8} {
				par, err := pipeline.Analyze(tr, pipeline.Options{TieSeed: 1, Workers: workers})
				if err != nil {
					t.Fatal(err)
				}
				if got := export(t, par); !bytes.Equal(got, want) {
					t.Fatalf("pipeline with %d workers diverges from inline profile", workers)
				}
			}
		})
	}
}

// TestDifferentialOptions holds the pipeline to the inline profiler under
// every supported Options variant, including the metric ablations. Both run
// core's rms/trms kernel, so each is also held to the naive set-based
// profiler (Fig. 10), which shares no timestamping code with them. The naive
// profiler has no RMSOnly mode; with every induced input disabled it
// computes the same profile.
func TestDifferentialOptions(t *testing.T) {
	variants := []struct {
		name string
		opts core.Options
	}{
		{"default", core.Options{}},
		{"rms-only", core.Options{RMSOnly: true}},
		{"no-thread-induced", core.Options{DisableThreadInduced: true}},
		{"no-external", core.Options{DisableExternal: true}},
		{"no-induced", core.Options{DisableThreadInduced: true, DisableExternal: true}},
	}
	for _, v := range variants {
		t.Run(v.name, func(t *testing.T) {
			naiveOpts := v.opts
			if v.opts.RMSOnly {
				naiveOpts = core.Options{DisableThreadInduced: true, DisableExternal: true}
			}
			naive := core.NewNaive(naiveOpts)
			want, tr := recordAndProfile(t, "producer-consumer", workloads.Params{Size: 40}, v.opts, naive)
			got, err := pipeline.Analyze(tr, pipeline.Options{TieSeed: 1, Workers: 3, Profile: v.opts})
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(export(t, got), want) {
				t.Fatalf("pipeline diverges from inline profile under %+v", v.opts)
			}
			if diffs := got.Diff(naive.Profile()); len(diffs) > 0 {
				t.Fatalf("pipeline diverges from the naive reference under %+v:\n%s", v.opts, strings.Join(diffs, "\n"))
			}
		})
	}
}

// TestDifferentialRenumbering pins the 64-bit-counters-need-no-renumbering
// argument: an inline profiler forced to renumber frequently still matches
// the pipeline, which never renumbers.
func TestDifferentialRenumbering(t *testing.T) {
	want, tr := recordAndProfile(t, "mysqld", workloads.Params{Size: 16, Threads: 3},
		core.Options{RenumberThreshold: 101})
	got, err := pipeline.Analyze(tr, pipeline.Options{TieSeed: 1, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(export(t, got), want) {
		t.Fatal("pipeline diverges from a frequently-renumbering inline profiler")
	}
}

// TestPlanReuse checks the plan/analyze split: one plan can be run
// repeatedly at different worker counts and always yields the same profile.
func TestPlanReuse(t *testing.T) {
	want, tr := recordAndProfile(t, "vips", workloads.Params{Size: 20, Threads: 3}, core.Options{})
	plan, err := pipeline.BuildPlan(tr, 1, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumThreads() < 2 {
		t.Fatalf("expected a multi-threaded plan, got %d threads", plan.NumThreads())
	}
	if plan.NumSegments() < plan.NumThreads() {
		t.Fatalf("fewer segments (%d) than threads (%d)", plan.NumSegments(), plan.NumThreads())
	}
	for _, workers := range []int{1, 2, 4, 0} {
		got, err := plan.Run(workers)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(export(t, got), want) {
			t.Fatalf("plan.Run(%d) diverges", workers)
		}
	}
}

// TestRejectsUnsupportedOptions: ContextSensitive, which needs a shared
// calling-context tree, is refused up front with a pointer to the
// sequential replayer.
func TestRejectsUnsupportedOptions(t *testing.T) {
	tr := &trace.Trace{Routines: []string{"r"}}
	if _, err := pipeline.BuildPlan(tr, 0, core.Options{ContextSensitive: true}); err == nil {
		t.Error("ContextSensitive was not rejected")
	}
}

// TestEmptyTrace: analyzing an empty trace yields an empty profile rather
// than an error.
func TestEmptyTrace(t *testing.T) {
	p, err := pipeline.Analyze(&trace.Trace{}, pipeline.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Routines) != 0 || p.InducedThread != 0 || p.InducedExternal != 0 {
		t.Fatalf("empty trace produced a non-empty profile: %+v", p)
	}
}

// TestThreadReuseAfterExit: a thread id that exits and then runs again
// starts from fresh shadow state, in the pipeline as in the sequential
// replayer. Thread 2 writes cell 8; thread 1 reads it, exits, and reads it
// again under the same id. Each read is a thread-induced first access,
// because the second incarnation has not accessed the cell since that
// write; a worker that kept reading the first incarnation's cells would
// count the second read as plain input.
func TestThreadReuseAfterExit(t *testing.T) {
	tr := &trace.Trace{Routines: []string{"f"}, Threads: []trace.ThreadTrace{
		{ID: 1, Events: []trace.Event{
			{TS: 4, Thread: 1, Kind: trace.KindCall},
			{TS: 5, Thread: 1, Kind: trace.KindRead, Arg: 8},
			{TS: 6, Thread: 1, Kind: trace.KindReturn},
			{TS: 7, Thread: 1, Kind: trace.KindThreadExit},
			{TS: 8, Thread: 1, Kind: trace.KindCall},
			{TS: 9, Thread: 1, Kind: trace.KindRead, Arg: 8},
			{TS: 10, Thread: 1, Kind: trace.KindReturn},
		}},
		{ID: 2, Events: []trace.Event{
			{TS: 1, Thread: 2, Kind: trace.KindCall},
			{TS: 2, Thread: 2, Kind: trace.KindWrite, Arg: 8},
			{TS: 3, Thread: 2, Kind: trace.KindReturn},
		}},
	}}
	seq, err := core.FromTrace(tr, 0, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if seq.InducedThread != 2 {
		t.Fatalf("sequential replay counts %d thread-induced reads, want 2", seq.InducedThread)
	}
	want := export(t, seq)
	for _, workers := range []int{1, 4} {
		par, err := pipeline.Analyze(tr, pipeline.Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if got := export(t, par); !bytes.Equal(got, want) {
			t.Errorf("pipeline with %d workers diverges from sequential replay:\n got %s\nwant %s", workers, got, want)
		}
	}
}
