package pipeline

// Live-snapshot tests: snapshot documents report the run's progress and a
// restorable partial profile, a canceled run leaves its partial profile
// behind, and the snapshot machinery's goroutines all exit.

import (
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// recordedTrace records one workload run into an unannotated trace.
func recordedTrace(t testing.TB, name string, params workloads.Params) *trace.Trace {
	t.Helper()
	rec := trace.NewRecorder()
	if _, err := workloads.RunByName(name, params, rec); err != nil {
		t.Fatal(err)
	}
	return rec.Trace()
}

// cancelAfter returns a Progress callback canceling ctx once the given
// fraction of the run's events has been processed.
func cancelAfter(cancel context.CancelFunc, frac float64) func(uint64, uint64) {
	var fired atomic.Bool
	return func(done, total uint64) {
		if total > 0 && float64(done) >= frac*float64(total) && fired.CompareAndSwap(false, true) {
			cancel()
		}
	}
}

// snapshotDoc is the part of a live snapshot document the tests read.
type snapshotDoc struct {
	Partial         bool              `json:"partial"`
	EventsProcessed uint64            `json:"events_processed"`
	TotalEvents     uint64            `json:"total_events"`
	Threads         int               `json:"threads"`
	Profile         *core.ProfileDump `json:"profile"`
}

// parseSnapshot decodes one document and checks that its profile restores
// and its partial marker agrees with its tally.
func parseSnapshot(t *testing.T, raw []byte) snapshotDoc {
	t.Helper()
	var doc snapshotDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("live snapshot not valid JSON: %v", err)
	}
	if doc.TotalEvents == 0 {
		t.Fatal("live snapshot carries no total")
	}
	if doc.Partial != (doc.EventsProcessed < doc.TotalEvents) {
		t.Fatalf("partial=%v inconsistent with %d/%d events", doc.Partial, doc.EventsProcessed, doc.TotalEvents)
	}
	if doc.Profile == nil {
		t.Fatal("live snapshot carries no profile")
	}
	if _, err := doc.Profile.Restore(); err != nil {
		t.Fatalf("live snapshot profile does not restore: %v", err)
	}
	return doc
}

// TestCancelEmitsPartialStateAndLeaksNothing: a timeout firing mid-run
// still leaves partial telemetry and a final partial snapshot on disk, and
// the snapshot manager's goroutine exits.
func TestCancelEmitsPartialStateAndLeaksNothing(t *testing.T) {
	tr := recordedTrace(t, "mysqld", workloads.Params{Size: 16, Threads: 4})
	before := runtime.NumGoroutine()

	path := filepath.Join(t.TempDir(), "live.json")
	reg := telemetry.NewRegistry()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	_, err := AnalyzeContext(ctx, tr, Options{
		TieSeed:   1,
		Workers:   2,
		Snapshot:  &SnapshotOptions{Path: path},
		Telemetry: reg,
		Progress:  cancelAfter(cancel, 0.4),
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}

	snap := reg.Snapshot()
	if snap.Counters["pipeline/events_processed"] == 0 {
		t.Fatal("no partial event telemetry after cancel")
	}
	if snap.Counters["snapshot/written"] != 1 {
		t.Fatalf("snapshot/written = %d, want the one final document", snap.Counters["snapshot/written"])
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("no snapshot after cancel: %v", err)
	}
	if doc := parseSnapshot(t, raw); !doc.Partial || doc.EventsProcessed == 0 {
		t.Fatalf("snapshot after cancel: partial=%v with %d events, want a partial profile with progress",
			doc.Partial, doc.EventsProcessed)
	}

	// The manager goroutine must exit; allow the runtime a moment.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestLiveSnapshotFile: an on-demand trigger mid-run produces a readable
// partial-profile JSON document, atomically written.
func TestLiveSnapshotFile(t *testing.T) {
	tr := recordedTrace(t, "mysqld", workloads.Params{Size: 16, Threads: 4})
	snapPath := filepath.Join(t.TempDir(), "live.json")
	trig := NewSnapshotTrigger()
	var fired atomic.Bool
	opts := Options{
		TieSeed:  1,
		Workers:  2,
		Snapshot: &SnapshotOptions{Path: snapPath, Trigger: trig},
		Progress: func(done, total uint64) {
			if total > 0 && done >= total/3 && fired.CompareAndSwap(false, true) {
				trig.Request()
			}
		},
	}
	if _, err := Analyze(tr, opts); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(snapPath)
	if err != nil {
		t.Fatalf("live snapshot not written: %v", err)
	}
	// The last document written is the run's final one.
	if doc := parseSnapshot(t, raw); doc.Partial || doc.EventsProcessed != doc.TotalEvents {
		t.Fatalf("final snapshot reports %d of %d events", doc.EventsProcessed, doc.TotalEvents)
	}
}

// TestSnapshotTickCapturesThreadsInFlight: an Interval tick asks the
// workers for fresh states, so a periodic document reports the progress of
// a thread still being analyzed, not only the threads that finished. The
// test runs the plan's threads one after another, as one worker does,
// against a manager with only an Interval. The worker blocks after its
// first segment until a tick has moved the snapshot generation past the
// one it last saw; when it resumes, it captures mid-thread at its next
// safepoint. After its second segment it blocks again until the manager
// has published a document, so a manager goroutine the scheduler runs
// late cannot find the run already over and drain the capture unpublished.
// Both waits are bounded by a generous timeout rather than a guess at wall
// time.
func TestSnapshotTickCapturesThreadsInFlight(t *testing.T) {
	tr := recordedTrace(t, "mysqld", workloads.Params{Size: 16, Threads: 4})
	plan, err := BuildPlan(tr, 1, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// prefix[k] is the event count of the first k threads: what a document
	// holding k threads reports when all of them are finished.
	prefix := []uint64{0}
	for _, tp := range plan.threads {
		if tp.events >= 1<<18 {
			t.Fatalf("thread %d has %d events; this test wants threads shorter than 1<<18", tp.id, tp.events)
		}
		prefix = append(prefix, prefix[len(prefix)-1]+uint64(tp.events))
	}
	if len(plan.threads[0].segments) < 3 {
		t.Fatalf("the first thread has %d segments; this test wants at least 3", len(plan.threads[0].segments))
	}

	var mu sync.Mutex
	var docs [][]byte
	mgr := newSnapManager(plan, SnapshotOptions{
		Interval: 2 * time.Millisecond,
		Sink: func(doc []byte) {
			mu.Lock()
			docs = append(docs, doc)
			mu.Unlock()
		},
	}, nil)
	published := func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(docs) > 0
	}
	var snap *workerSnap
	segments := 0
	onSegment := func(int) {
		segments++
		switch segments {
		case 1:
			// The worker polled the generation at the end of this segment,
			// just before this call.
			for deadline := time.Now().Add(30 * time.Second); mgr.gen.Load() == snap.gen; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Error("no tick moved the snapshot generation within 30s")
					return
				}
			}
		case 2:
			// The worker captured in this segment, after the tick that
			// asked for a document; the first state the manager takes
			// in after that tick publishes one.
			for deadline := time.Now().Add(30 * time.Second); !published(); time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Error("no document published within 30s of a tick")
					return
				}
			}
		}
	}
	for i, tp := range plan.threads {
		snap = &workerSnap{mgr: mgr, threadIdx: i}
		if _, err := analyzeThread(context.Background(), tr, tp, plan.opts, onSegment, snap); err != nil {
			t.Fatal(err)
		}
	}
	mgr.close(false)
	mu.Lock()
	defer mu.Unlock()
	inFlight := false
	for _, raw := range docs {
		doc := parseSnapshot(t, raw)
		if doc.Threads < 1 || doc.Threads >= len(prefix) {
			t.Fatalf("document reports %d threads of %d", doc.Threads, len(plan.threads))
		}
		if doc.EventsProcessed < prefix[doc.Threads] {
			inFlight = true
		}
	}
	if !inFlight {
		t.Fatalf("none of %d documents reports a thread in flight", len(docs))
	}
}
