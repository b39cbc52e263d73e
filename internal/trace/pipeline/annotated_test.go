package pipeline

// Differential tests for the two sources of stamp annotations: recorded by
// the streaming recorder, or computed offline by trace.Annotate for a trace
// without them. Both, at every worker count, must export byte-for-byte the
// profile the inline profiler computes.

import (
	"bytes"
	"context"
	"errors"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/shadow"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// streamedTrace records a workload through the streaming recorder (the
// annotating path) and decodes it.
func streamedTrace(t testing.TB, wl string, params workloads.Params, segmentEvents int) (*trace.Trace, *core.Profile) {
	t.Helper()
	var buf bytes.Buffer
	rec := trace.NewStreamRecorder(&buf)
	if segmentEvents > 0 {
		rec.SetSegmentEvents(segmentEvents)
	}
	inline := core.New(core.Options{})
	if _, err := workloads.RunByName(wl, params, rec, inline); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return tr, inline.Profile()
}

func export(t testing.TB, p *core.Profile, err error) []byte {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	out, err := p.Export()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// analyzeExport analyzes tr and returns the profile's canonical export.
func analyzeExport(t testing.TB, tr *trace.Trace, opts Options) []byte {
	t.Helper()
	p, err := Analyze(tr, opts)
	return export(t, p, err)
}

// routeCase is one workload the annotation-route tests sweep.
type routeCase struct {
	wl     string
	params workloads.Params
}

var routeCases = []routeCase{
	{"mysqld", workloads.Params{Size: 16, Threads: 4}},
	{"producer-consumer", workloads.Params{Size: 24, Threads: 3}},
	{"external-read", workloads.Params{Size: 16}},
	{"fig1b", workloads.Params{}},
}

// strippedTwin returns a copy of tr without annotations, sharing its events.
func strippedTwin(tr *trace.Trace) *trace.Trace {
	stripped := *tr
	stripped.Threads = append([]trace.ThreadTrace(nil), tr.Threads...)
	stripped.StripAnnotations()
	return &stripped
}

// TestAnnotatedRouteMatchesInline sweeps workloads and worker counts over
// recorded annotations and the stripped twin's offline annotations; both
// must reproduce the inline profiler byte for byte.
func TestAnnotatedRouteMatchesInline(t *testing.T) {
	for _, tc := range routeCases {
		tr, inline := streamedTrace(t, tc.wl, tc.params, 0)
		if !tr.Annotated {
			t.Fatalf("%s: streamed trace not annotated", tc.wl)
		}
		base := export(t, inline, nil)
		stripped := strippedTwin(tr)

		for _, workers := range []int{1, 2, 4, 0} {
			got := analyzeExport(t, tr, Options{Workers: workers})
			if !bytes.Equal(got, base) {
				t.Fatalf("%s: annotated route, workers=%d: diverges from inline", tc.wl, workers)
			}
			got = analyzeExport(t, stripped, Options{Workers: workers})
			if !bytes.Equal(got, base) {
				t.Fatalf("%s: offline annotations, workers=%d: diverge from inline", tc.wl, workers)
			}
		}
	}
}

// TestAnnotatedPlanShape: the fast-path plan must be marked annotated,
// cover every event, and be reusable across Run calls like any plan.
func TestAnnotatedPlanShape(t *testing.T) {
	tr, inline := streamedTrace(t, "mysqld", workloads.Params{Size: 16, Threads: 4}, 0)
	plan, err := BuildPlan(tr, 0, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Annotated() {
		t.Fatal("plan over annotated trace not marked annotated")
	}
	if got, want := plan.NumEvents(), uint64(tr.NumEvents()); got != want {
		t.Fatalf("plan covers %d of %d events", got, want)
	}
	if plan.NumThreads() < 2 || plan.NumSegments() < plan.NumThreads() {
		t.Fatalf("degenerate plan: %d threads, %d segments", plan.NumThreads(), plan.NumSegments())
	}
	base := export(t, inline, nil)
	for _, workers := range []int{1, 4, 2} {
		prof, err := plan.Run(workers)
		if got := export(t, prof, err); !bytes.Equal(got, base) {
			t.Fatalf("reused annotated plan, workers=%d: diverges from inline", workers)
		}
	}
}

// TestFlushSplitAnnotations forces a tiny recorder segment capacity so
// annotation runs split at flush boundaries far more often than at thread
// switches; the split entry counts must still be exact on both full and
// rms-only schemes.
func TestFlushSplitAnnotations(t *testing.T) {
	for _, segEvents := range []int{1, 3, 64} {
		tr, inline := streamedTrace(t, "producer-consumer", workloads.Params{Size: 24, Threads: 3}, segEvents)
		if !tr.Annotated {
			t.Fatalf("segment=%d: streamed trace not annotated", segEvents)
		}
		base := export(t, inline, nil)
		if got := analyzeExport(t, tr, Options{Workers: 2}); !bytes.Equal(got, base) {
			t.Fatalf("segment=%d: annotated route diverges from inline", segEvents)
		}

		rmsProf, rmsErr := core.FromTrace(tr, 0, core.Options{RMSOnly: true})
		rmsBase := export(t, rmsProf, rmsErr)
		rmsPipe, rmsPipeErr := Analyze(tr, Options{Workers: 2, Profile: core.Options{RMSOnly: true}})
		got := export(t, rmsPipe, rmsPipeErr)
		if !bytes.Equal(got, rmsBase) {
			t.Fatalf("segment=%d: rms-only annotated route diverges from inline", segEvents)
		}
	}
}

// TestOfflineAnnotateMatchesRecorder: trace.Annotate of a stripped
// recording must reproduce the recorder's annotations — identical stamps,
// and identical runs once the recorder's flush splits are coalesced — while
// analyzing the stripped trace leaves it unannotated and its plan marked as
// not built from recorded annotations.
func TestOfflineAnnotateMatchesRecorder(t *testing.T) {
	cases := append(slices.Clip(routeCases), routeCase{"linear-scan", workloads.Params{Size: 128}})
	for _, tc := range cases {
		for _, segEvents := range []int{0, 3} {
			tr, _ := streamedTrace(t, tc.wl, tc.params, segEvents)
			if !tr.Annotated {
				t.Fatalf("%s/seg=%d: streamed trace not annotated", tc.wl, segEvents)
			}
			stripped := strippedTwin(tr)
			ann, err := trace.Annotate(context.Background(), stripped, 0)
			if err != nil {
				t.Fatal(err)
			}
			for i := range tr.Threads {
				rec, got := tr.Threads[i].Ann, ann.Threads[i].Ann
				events := tr.Threads[i].Events
				if !slices.Equal(got.Stamps, rec.Stamps) {
					t.Fatalf("%s/seg=%d: thread %d: offline stamps differ from recorded", tc.wl, segEvents, tr.Threads[i].ID)
				}
				if want := coalesceRuns(events, rec.Runs); !slices.Equal(got.Runs, want) {
					t.Fatalf("%s/seg=%d: thread %d: offline runs %v, want %v", tc.wl, segEvents, tr.Threads[i].ID, got.Runs, want)
				}
			}

			if _, err := Analyze(stripped, Options{Workers: 2}); err != nil {
				t.Fatal(err)
			}
			plan, err := BuildPlan(stripped, 0, core.Options{})
			if err != nil {
				t.Fatal(err)
			}
			if plan.Annotated() {
				t.Fatalf("%s/seg=%d: plan of a stripped trace marked annotated", tc.wl, segEvents)
			}
			if stripped.Annotated {
				t.Fatalf("%s/seg=%d: analysis annotated the caller's trace", tc.wl, segEvents)
			}
			for i := range stripped.Threads {
				if stripped.Threads[i].Ann != nil {
					t.Fatalf("%s/seg=%d: analysis attached annotations to the caller's trace", tc.wl, segEvents)
				}
			}
		}
	}
}

// coalesceRuns merges a thread's recorded runs that the recorder split at
// flush boundaries: a continuation starts at exactly the counter its
// predecessor ended at, while a real interleaving adds two switch bumps.
func coalesceRuns(events []trace.Event, runs []trace.StampRun) []trace.StampRun {
	var out []trace.StampRun
	lo, end := 0, uint64(0)
	for _, r := range runs {
		if n := len(out); n > 0 && r.StartCount == end {
			out[n-1].Events += r.Events
		} else {
			out = append(out, r)
		}
		end = r.StartCount
		for _, e := range events[lo : lo+r.Events] {
			switch e.Kind {
			case trace.KindCall, trace.KindSwitch, trace.KindKernelWrite:
				end++
			}
		}
		lo += r.Events
	}
	return out
}

// TestAnnotatedOutOfRangeAddress: planning from annotations skips
// trace.Annotate and its address check, so the worker checks addresses
// itself. An access moved out of range after annotation is an
// *trace.AddressError whose Event is its index within the thread's
// events, for every memory kind and worker count.
func TestAnnotatedOutOfRangeAddress(t *testing.T) {
	const limit = uint64(1) << shadow.MaxAddrBits
	for _, k := range []trace.Kind{trace.KindRead, trace.KindWrite, trace.KindKernelRead, trace.KindKernelWrite} {
		tr, err := trace.Annotate(context.Background(), recordedTrace(t, "mysqld", workloads.Params{Size: 8, Threads: 2}), 1)
		if err != nil {
			t.Fatal(err)
		}
		ti := len(tr.Threads) - 1
		events := tr.Threads[ti].Events
		j := slices.IndexFunc(events, func(e trace.Event) bool { return e.Kind == trace.KindWrite })
		if j < 0 {
			t.Fatal("no write to move out of range")
		}
		// Write and kernel write carry no stamp, so swapping one for the
		// other keeps the annotations consistent; reads need a stamp, so a
		// read test moves an existing read instead.
		if k == trace.KindRead || k == trace.KindKernelRead {
			j = slices.IndexFunc(events, func(e trace.Event) bool { return e.Kind == trace.KindRead })
		}
		events[j].Kind, events[j].Arg = k, limit
		for _, workers := range []int{1, 2} {
			_, err := Analyze(tr, Options{TieSeed: 1, Workers: workers})
			var ae *trace.AddressError
			if !errors.As(err, &ae) || ae.Event != j || ae.Kind != k || ae.Addr != limit {
				t.Errorf("%s at %#x, workers=%d: got %v, want an *AddressError for event %d", k, limit, workers, err, j)
			}
		}
	}
}
