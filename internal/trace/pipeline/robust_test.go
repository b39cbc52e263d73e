package pipeline

// In-package robustness tests: these reach the unexported workerPanicHook to
// inject failures inside the per-thread analyzers, which no public API can
// (or should) do.

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"

	"repro/internal/guest"
	"repro/internal/trace"
)

// robustTrace builds a small multi-thread trace directly.
func robustTrace(threads, events int) *trace.Trace {
	tr := &trace.Trace{Routines: []string{"main", "work"}}
	ts := uint64(0)
	for th := 0; th < threads; th++ {
		tt := trace.ThreadTrace{ID: guest.ThreadID(th + 1)}
		add := func(k trace.Kind, arg, aux uint64) {
			ts++
			tt.Events = append(tt.Events, trace.Event{TS: ts, Thread: tt.ID, Kind: k, Arg: arg, Aux: aux})
		}
		add(trace.KindCall, 1, 0)
		for i := 0; i < events; i++ {
			add(trace.KindWrite, uint64(0x100*th+i), 0)
			add(trace.KindRead, uint64(0x100*th+i), 0)
		}
		add(trace.KindReturn, 1, 8)
		tr.Threads = append(tr.Threads, tt)
	}
	return tr
}

// TestWorkerPanicBecomesError injects a panic into exactly one thread's
// worker: the run must return an error naming that thread with segment
// context, not crash, and the remaining workers must drain cleanly.
func TestWorkerPanicBecomesError(t *testing.T) {
	tr := robustTrace(4, 6)
	victim := tr.Threads[2].ID
	var others atomic.Int32
	workerPanicHook = func(id guest.ThreadID) {
		if id == victim {
			panic("injected worker failure")
		}
		others.Add(1)
	}
	defer func() { workerPanicHook = nil }()

	for _, workers := range []int{1, 4} {
		others.Store(0)
		_, err := Analyze(tr, Options{Workers: workers})
		if err == nil {
			t.Fatalf("workers=%d: injected panic did not surface as an error", workers)
		}
		msg := err.Error()
		if !strings.Contains(msg, "injected worker failure") || !strings.Contains(msg, "thread 3") {
			t.Fatalf("workers=%d: error %q lacks panic value or thread attribution", workers, msg)
		}
		if !strings.Contains(msg, "segment") {
			t.Fatalf("workers=%d: error %q lacks segment context", workers, msg)
		}
		if workers > 1 && others.Load() == 0 {
			t.Fatalf("workers=%d: no other worker ran; the pool did not drain", workers)
		}
	}
}

// TestAnalyzeContextCancel: a canceled context aborts both the Annotate pass and
// the worker phase with ctx.Err().
func TestAnalyzeContextCancel(t *testing.T) {
	tr := robustTrace(3, 50)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := AnalyzeContext(ctx, tr, Options{}); err == nil || !strings.Contains(err.Error(), context.Canceled.Error()) {
		t.Fatalf("AnalyzeContext on canceled ctx = %v, want context.Canceled", err)
	}

	plan, err := BuildPlan(tr, 0, Options{}.Profile)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plan.RunContext(ctx, 2); err == nil || !strings.Contains(err.Error(), context.Canceled.Error()) {
		t.Fatalf("RunContext on canceled ctx = %v, want context.Canceled", err)
	}
}

// TestMaxEventsGuard: oversized traces are rejected before any analysis
// allocation; raising the limit admits them.
func TestMaxEventsGuard(t *testing.T) {
	tr := robustTrace(2, 10)
	n := tr.NumEvents()
	if _, err := Analyze(tr, Options{MaxEvents: n - 1}); err == nil || !strings.Contains(err.Error(), "max-events") {
		t.Fatalf("Analyze over the guard = %v, want max-events rejection", err)
	}
	if _, err := Analyze(tr, Options{MaxEvents: n}); err != nil {
		t.Fatalf("Analyze at the guard: %v", err)
	}
	if _, err := Analyze(tr, Options{}); err != nil {
		t.Fatalf("Analyze with no guard: %v", err)
	}
}

// TestRecoveredTraceAnalyzes: a partially recovered trace is an ordinary
// trace to the pipeline.
func TestRecoveredTraceAnalyzes(t *testing.T) {
	tr := robustTrace(3, 8)
	prof, err := Analyze(tr, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Drop one thread's tail, as recovery of a truncated file would.
	cut := *tr
	cut.Threads = append([]trace.ThreadTrace(nil), tr.Threads...)
	last := &cut.Threads[2]
	last.Events = last.Events[:len(last.Events)/2]
	cutProf, err := Analyze(&cut, Options{})
	if err != nil {
		t.Fatalf("analyzing a prefix-salvaged trace: %v", err)
	}
	if prof == nil || cutProf == nil {
		t.Fatal("nil profile")
	}
}
