package pipeline

// Checkpoint/resume tests: interrupted analyses must resume to
// byte-identical profiles, and a damaged checkpoint must degrade to full
// re-analysis — never a wrong answer. The kill -9 smoke (gated behind
// APROF_CKPT_SMOKE=1) does it with a real subprocess and a real SIGKILL.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/guest"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// ckptTrace records one workload run and returns the trace plus the
// uninterrupted pipeline profile's canonical export.
func ckptTrace(t testing.TB, name string, params workloads.Params) (*trace.Trace, []byte) {
	t.Helper()
	rec := trace.NewRecorder()
	if _, err := workloads.RunByName(name, params, rec); err != nil {
		t.Fatal(err)
	}
	tr := rec.Trace()
	base, err := Analyze(tr, Options{TieSeed: 1, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := base.Export()
	if err != nil {
		t.Fatal(err)
	}
	return tr, raw
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

// runCheckpointed analyzes tr with checkpointing to path, canceling at
// frac of the events (frac >= 1 runs to completion). It returns the
// profile export (nil when canceled) and the analysis error.
func runCheckpointed(t testing.TB, tr *trace.Trace, path string, frac float64, resume *Checkpoint, reg *telemetry.Registry) ([]byte, error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	opts := Options{
		TieSeed: 1,
		Workers: 2,
		Checkpoint: &CheckpointOptions{
			Path:        path,
			EveryEvents: 300,
		},
		Resume:    resume,
		Telemetry: reg,
	}
	if frac < 1 {
		opts.Progress = cancelAfter(cancel, frac)
	}
	prof, err := AnalyzeContext(ctx, tr, opts)
	if err != nil {
		return nil, err
	}
	raw, err := prof.Export()
	if err != nil {
		t.Fatal(err)
	}
	return raw, nil
}

// TestCheckpointResumeByteIdentical is the tentpole's core guarantee: an
// analysis canceled mid-run leaves a checkpoint from which a resumed run
// produces a byte-identical profile — including across a second
// interruption and for both narrow and multi-thread workloads.
func TestCheckpointResumeByteIdentical(t *testing.T) {
	cases := []struct {
		name   string
		params workloads.Params
	}{
		{"mysqld", workloads.Params{Size: 16, Threads: 4}},
		{"dedup", workloads.Params{Size: 20, Threads: 3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			tr, want := ckptTrace(t, tc.name, tc.params)
			path := filepath.Join(t.TempDir(), "a.ckpt")

			// First run: cancel around 40% of the events.
			if _, err := runCheckpointed(t, tr, path, 0.4, nil, nil); !errors.Is(err, context.Canceled) {
				t.Fatalf("canceled run returned %v, want context.Canceled", err)
			}
			ck, err := LoadCheckpoint(path)
			if err != nil {
				t.Fatalf("loading checkpoint after cancel: %v", err)
			}
			if !ck.Canceled() {
				t.Fatal("checkpoint of a canceled run not marked canceled")
			}
			if ck.Events() == 0 {
				t.Fatal("checkpoint recorded no progress")
			}

			// Second run: resume, interrupt again later.
			if _, err := runCheckpointed(t, tr, path, 0.85, ck, nil); !errors.Is(err, context.Canceled) {
				// A fast machine may finish before 85% cancellation fires;
				// that is a pass too, as long as the profile matches.
				if err != nil {
					t.Fatalf("second run: %v", err)
				}
			}
			ck2, err := LoadCheckpoint(path)
			if err != nil {
				t.Fatalf("loading checkpoint after second cancel: %v", err)
			}
			if ck2.Events() < ck.Events() {
				t.Fatalf("second checkpoint lost progress: %d < %d events", ck2.Events(), ck.Events())
			}

			// Final run: resume to completion and compare bytes.
			reg := telemetry.NewRegistry()
			got, err := runCheckpointed(t, tr, path, 2, ck2, reg)
			if err != nil {
				t.Fatalf("resumed run: %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatal("resumed profile differs from uninterrupted profile")
			}
			if reg.Counter("resume/events_skipped").Load() == 0 {
				t.Fatal("resume did not skip any checkpointed work")
			}

			// The final checkpoint records completion; resuming from it
			// skips everything and still reproduces the same bytes.
			ck3, err := LoadCheckpoint(path)
			if err != nil {
				t.Fatal(err)
			}
			if !ck3.Complete() {
				t.Fatal("checkpoint of a completed run not marked complete")
			}
			got2, err := runCheckpointed(t, tr, path, 2, ck3, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got2, want) {
				t.Fatal("resume-from-complete profile differs")
			}
		})
	}
}

// TestCheckpointCadence: with EveryEvents a multiple of safepointStride,
// each worker captures exactly events/EveryEvents states, one pause each,
// however its segments cut the strides.
func TestCheckpointCadence(t *testing.T) {
	tr, _ := ckptTrace(t, "mysqld", workloads.Params{Size: 24, Threads: 4})
	for _, every := range []int{safepointStride, 2 * safepointStride} {
		p, err := BuildPlan(tr, 1, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		reg := telemetry.NewRegistry()
		p.Telemetry = reg
		p.Checkpoint = &CheckpointOptions{Path: filepath.Join(t.TempDir(), "c.ckpt"), EveryEvents: every}
		if _, err := p.Run(2); err != nil {
			t.Fatal(err)
		}
		want := 0
		for _, tp := range p.threads {
			want += tp.events / every
		}
		if want < len(p.threads) {
			t.Fatalf("every=%d: trace too small to test the cadence (%d captures due)", every, want)
		}
		if got := reg.Histogram("checkpoint/pause_ns").Count(); got != uint64(want) {
			t.Errorf("every=%d: %d captures, want %d", every, got, want)
		}
	}
}

// exitReuseTrace hand-builds a two-thread trace in which thread 1 exits
// and its id comes back with more than safepointStride further events,
// re-reading the cells it wrote before the exit. Thread 2 interleaves an
// event every 400 ticks, so thread 1's events fall into many segments.
func exitReuseTrace() *trace.Trace {
	tr := &trace.Trace{Routines: []string{"main", "again"}}
	t1 := trace.ThreadTrace{ID: 1}
	ts := uint64(0)
	add := func(k trace.Kind, arg, aux uint64) {
		ts++
		t1.Events = append(t1.Events, trace.Event{TS: ts, Thread: 1, Kind: k, Arg: arg, Aux: aux})
	}
	for life, n := range []int{3000, 2 * safepointStride} {
		add(trace.KindThreadStart, 0, 0)
		add(trace.KindCall, uint64(life), ts)
		for i := 0; i < n; i++ {
			a := uint64(0x10000 + 8*(i%700))
			if i%3 == life {
				add(trace.KindWrite, a, 0)
			} else {
				add(trace.KindRead, a, 0)
			}
		}
		add(trace.KindReturn, uint64(life), ts)
		add(trace.KindThreadExit, 0, 0)
	}
	t2 := trace.ThreadTrace{ID: 2}
	for tick := uint64(200); tick < ts; tick += 400 {
		t2.Events = append(t2.Events, trace.Event{TS: tick, Thread: 2, Kind: trace.KindWrite, Arg: 0x10000 + tick%4096})
	}
	tr.Threads = []trace.ThreadTrace{t1, t2}
	return tr
}

// TestCheckpointThreadExitResume: checkpoints taken after a thread exits
// and its id reappears capture the fresh shadow memory, not the one the
// exit dropped, so resuming from any of them is byte-identical.
func TestCheckpointThreadExitResume(t *testing.T) {
	tr := exitReuseTrace()
	base, err := Analyze(tr, Options{TieSeed: 1, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	want, err := base.Export()
	if err != nil {
		t.Fatal(err)
	}
	for _, frac := range []float64{0.2, 0.35, 0.5, 0.65, 0.8} {
		path := filepath.Join(t.TempDir(), "x.ckpt")
		ctx, cancel := context.WithCancel(context.Background())
		_, err := AnalyzeContext(ctx, tr, Options{
			TieSeed:    1,
			Workers:    1,
			Checkpoint: &CheckpointOptions{Path: path, EveryEvents: safepointStride},
			Progress:   cancelAfter(cancel, frac),
		})
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("frac %.2f: canceled run returned %v", frac, err)
		}
		ck, err := LoadCheckpoint(path)
		if err != nil {
			t.Fatalf("frac %.2f: %v", frac, err)
		}
		if ck.Events() == 0 {
			t.Fatalf("frac %.2f: checkpoint recorded no progress", frac)
		}
		prof, err := Analyze(tr, Options{TieSeed: 1, Workers: 1, Resume: ck})
		if err != nil {
			t.Fatalf("frac %.2f: resume: %v", frac, err)
		}
		got, err := prof.Export()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frac %.2f: resumed profile differs from uninterrupted profile", frac)
		}
	}
}

// TestCheckpointResumeOptionVariants holds resume byte-identity under the
// metric ablations, whose counter images differ from the default's.
func TestCheckpointResumeOptionVariants(t *testing.T) {
	variants := []core.Options{
		{RMSOnly: true},
		{DisableThreadInduced: true},
		{DisableExternal: true},
	}
	rec := trace.NewRecorder()
	if _, err := workloads.RunByName("producer-consumer", workloads.Params{Size: 40}, rec); err != nil {
		t.Fatal(err)
	}
	tr := rec.Trace()
	for _, popts := range variants {
		base, err := Analyze(tr, Options{TieSeed: 1, Workers: 2, Profile: popts})
		if err != nil {
			t.Fatal(err)
		}
		want, err := base.Export()
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "v.ckpt")
		ctx, cancel := context.WithCancel(context.Background())
		opts := Options{
			TieSeed:    1,
			Workers:    2,
			Profile:    popts,
			Checkpoint: &CheckpointOptions{Path: path, EveryEvents: 200},
			Progress:   cancelAfter(cancel, 0.5),
		}
		_, err = AnalyzeContext(ctx, tr, opts)
		cancel()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%+v: canceled run returned %v", popts, err)
		}
		ck, err := LoadCheckpoint(path)
		if err != nil {
			t.Fatalf("%+v: %v", popts, err)
		}
		prof, err := Analyze(tr, Options{TieSeed: 1, Workers: 2, Profile: popts, Resume: ck})
		if err != nil {
			t.Fatalf("%+v: resume: %v", popts, err)
		}
		got, err := prof.Export()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%+v: resumed profile differs", popts)
		}
	}
}

// TestCheckpointTruncationEveryOffset: every proper prefix of a valid
// checkpoint file must fail to load — the required footer and per-block
// checksums leave no prefix that parses.
func TestCheckpointTruncationEveryOffset(t *testing.T) {
	tr, _ := ckptTrace(t, "fig1a", workloads.Params{Size: 24})
	path := filepath.Join(t.TempDir(), "t.ckpt")
	if _, err := runCheckpointed(t, tr, path, 2, nil, nil); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeCheckpoint(data); err != nil {
		t.Fatalf("pristine checkpoint does not load: %v", err)
	}
	for cut := 0; cut < len(data); cut++ {
		if _, err := decodeCheckpoint(data[:cut]); err == nil {
			t.Fatalf("truncation to %d of %d bytes loaded successfully", cut, len(data))
		}
	}
}

// TestCheckpointCorruptionDegrades: bit-flipped checkpoints either fail to
// load or — were a flip ever to slip past the checksums — still produce a
// byte-identical profile through resume validation. Never a wrong answer.
func TestCheckpointCorruptionDegrades(t *testing.T) {
	tr, want := ckptTrace(t, "fig1a", workloads.Params{Size: 24})
	path := filepath.Join(t.TempDir(), "c.ckpt")
	if _, err := runCheckpointed(t, tr, path, 2, nil, nil); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for seed := int64(0); seed < 64; seed++ {
		mut := append([]byte(nil), data...)
		faultinject.FlipBits(mut, seed, 3, 0)
		ck, err := decodeCheckpoint(mut)
		if err != nil {
			continue // the normal outcome: corruption detected at load
		}
		prof, err := Analyze(tr, Options{TieSeed: 1, Workers: 2, Resume: ck})
		if err != nil {
			t.Fatalf("seed %d: resume after undetected corruption errored: %v", seed, err)
		}
		got, err := prof.Export()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("seed %d: corrupted checkpoint produced a wrong profile", seed)
		}
	}
}

// TestCheckpointMismatchDegrades: a checkpoint from a different trace or
// different options is ignored wholesale and the run re-analyzes fully,
// exporting exactly what a fresh run does. That includes a trace of the
// same shape — the same threads, event and segment counts — whose content
// differs, which only the fingerprint's content hash tells apart.
func TestCheckpointMismatchDegrades(t *testing.T) {
	trA, _ := ckptTrace(t, "fig1a", workloads.Params{Size: 24})
	trB, wantB := ckptTrace(t, "producer-consumer", workloads.Params{Size: 32})
	dir := t.TempDir()
	pathA := filepath.Join(dir, "a.ckpt")
	if _, err := runCheckpointed(t, trA, pathA, 2, nil, nil); err != nil {
		t.Fatal(err)
	}
	pathB := filepath.Join(dir, "b.ckpt")
	// Canceled about halfway; a fast host may finish first, which leaves a
	// complete checkpoint and tests the same thing.
	if _, err := runCheckpointed(t, trB, pathB, 0.5, nil, nil); err != nil && !errors.Is(err, context.Canceled) {
		t.Fatal(err)
	}
	ckA, err := LoadCheckpoint(pathA)
	if err != nil {
		t.Fatal(err)
	}
	ckB, err := LoadCheckpoint(pathB)
	if err != nil {
		t.Fatal(err)
	}

	// trB2 is trB with every read address in the first quarter of each
	// thread moved: same shape, different content, different profile.
	trB2 := *trB
	trB2.Threads = make([]trace.ThreadTrace, len(trB.Threads))
	for i, tt := range trB.Threads {
		tt.Events = slices.Clone(tt.Events)
		for j := range tt.Events[:len(tt.Events)/4] {
			if e := &tt.Events[j]; e.Kind == trace.KindRead {
				e.Arg += 1 << 30
			}
		}
		trB2.Threads[i] = tt
	}
	if bytes.Equal(analyzeExport(t, &trB2, Options{TieSeed: 1, Workers: 2}), wantB) {
		t.Fatal("moving the read addresses left the profile unchanged")
	}

	for _, c := range []struct {
		name  string
		ck    *Checkpoint
		tr    *trace.Trace
		popts core.Options
	}{
		{"other trace", ckA, trB, core.Options{}},
		{"other options", ckA, trA, core.Options{RMSOnly: true}},
		{"same shape, other content", ckB, &trB2, core.Options{}},
	} {
		want := analyzeExport(t, c.tr, Options{TieSeed: 1, Workers: 2, Profile: c.popts})
		reg := telemetry.NewRegistry()
		got := analyzeExport(t, c.tr, Options{TieSeed: 1, Workers: 2, Profile: c.popts, Resume: c.ck, Telemetry: reg})
		if !bytes.Equal(got, want) {
			t.Errorf("%s: mismatched checkpoint perturbed the profile", c.name)
		}
		if n := reg.Counter("resume/checkpoint_mismatched").Load(); n != 1 {
			t.Errorf("%s: resume/checkpoint_mismatched = %d, want 1", c.name, n)
		}
	}
}

// TestCancelEmitsPartialStateAndLeaksNothing: a timeout firing mid-run
// still leaves partial telemetry and a valid canceled checkpoint, and the
// checkpoint machinery's goroutines (manager, copiers) all exit.
func TestCancelEmitsPartialStateAndLeaksNothing(t *testing.T) {
	tr, _ := ckptTrace(t, "mysqld", workloads.Params{Size: 16, Threads: 4})
	before := runtime.NumGoroutine()

	path := filepath.Join(t.TempDir(), "p.ckpt")
	reg := telemetry.NewRegistry()
	_, err := runCheckpointed(t, tr, path, 0.4, nil, reg)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}

	snap := reg.Snapshot()
	if snap.Counters["pipeline/events_processed"] == 0 {
		t.Fatal("no partial event telemetry after cancel")
	}
	if snap.Counters["checkpoint/writes"] == 0 {
		t.Fatal("no checkpoint writes recorded after cancel")
	}
	ck, err := LoadCheckpoint(path)
	if err != nil {
		t.Fatalf("checkpoint after cancel invalid: %v", err)
	}
	if !ck.Canceled() {
		t.Fatal("checkpoint not marked canceled")
	}

	// All checkpoint goroutines must exit; allow the runtime a moment.
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
	tr, _ := ckptTrace(t, "mysqld", workloads.Params{Size: 16, Threads: 4})
	dir := t.TempDir()
	snapPath := filepath.Join(dir, "live.json")
	trig := NewSnapshotTrigger()
	var fired atomic.Bool
	opts := Options{
		TieSeed: 1,
		Workers: 2,
		Checkpoint: &CheckpointOptions{
			Path:         filepath.Join(dir, "s.ckpt"),
			EveryEvents:  200,
			SnapshotPath: snapPath,
			Trigger:      trig,
		},
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
	var doc struct {
		Partial         bool              `json:"partial"`
		EventsProcessed uint64            `json:"events_processed"`
		TotalEvents     uint64            `json:"total_events"`
		Profile         *core.ProfileDump `json:"profile"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("live snapshot not valid JSON: %v", err)
	}
	if doc.EventsProcessed == 0 || doc.TotalEvents == 0 {
		t.Fatal("live snapshot carries no progress")
	}
	// On a fast box the trigger may be serviced after the last worker
	// finishes; the partial marker must agree with the tally either way.
	if doc.Partial != (doc.EventsProcessed < doc.TotalEvents) {
		t.Fatalf("partial=%v inconsistent with %d/%d events",
			doc.Partial, doc.EventsProcessed, doc.TotalEvents)
	}
	if doc.Profile == nil {
		t.Fatal("live snapshot carries no profile")
	}
	if _, err := doc.Profile.Restore(); err != nil {
		t.Fatalf("live snapshot profile does not restore: %v", err)
	}
}

// TestCheckpointKillSmoke is the CI crash-recovery gate (APROF_CKPT_SMOKE=1):
// a child process analyzes a trace with checkpointing, the parent SIGKILLs
// it mid-run, and resuming from whatever checkpoint survived produces a
// byte-identical profile.
func TestCheckpointKillSmoke(t *testing.T) {
	if os.Getenv("GO_CKPT_CHILD") != "" {
		ckptChild(t)
		return
	}
	if os.Getenv("APROF_CKPT_SMOKE") == "" {
		t.Skip("set APROF_CKPT_SMOKE=1 to run the kill -9 smoke")
	}

	dir := t.TempDir()
	tracePath := filepath.Join(dir, "smoke.trace")
	ckptPath := filepath.Join(dir, "smoke.ckpt")

	rec := trace.NewRecorder()
	if _, err := workloads.RunByName("mysqld", workloads.Params{Size: 48, Threads: 4}, rec); err != nil {
		t.Fatal(err)
	}
	tr := rec.Trace()
	if _, err := trace.WriteFile(tracePath, tr); err != nil {
		t.Fatal(err)
	}
	base, err := Analyze(tr, Options{TieSeed: 1, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	want, err := base.Export()
	if err != nil {
		t.Fatal(err)
	}

	cmd := exec.Command(os.Args[0], "-test.run", "TestCheckpointKillSmoke", "-test.v")
	cmd.Env = append(os.Environ(),
		"GO_CKPT_CHILD=1",
		"APROF_CKPT_TRACE="+tracePath,
		"APROF_CKPT_PATH="+ckptPath,
	)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &out
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	// Kill at a random-ish instant: as soon as a mid-run checkpoint loads.
	deadline := time.Now().Add(30 * time.Second)
	killed := false
	for time.Now().Before(deadline) {
		if ck, err := LoadCheckpoint(ckptPath); err == nil && ck.Events() > 0 && !ck.Complete() {
			if err := cmd.Process.Signal(syscall.SIGKILL); err == nil {
				killed = true
			}
			break
		}
		time.Sleep(2 * time.Millisecond)
	}
	err = cmd.Wait()
	if !killed {
		t.Fatalf("never saw a mid-run checkpoint; child output:\n%s", out.String())
	}
	if err == nil || !strings.Contains(err.Error(), "killed") {
		t.Fatalf("child did not die by SIGKILL: %v\n%s", err, out.String())
	}

	// The file on disk survived a real kill -9: it must load (atomic
	// rewrites never leave a torn file) and resume byte-identically.
	ck, err := LoadCheckpoint(ckptPath)
	if err != nil {
		t.Fatalf("checkpoint unreadable after SIGKILL: %v", err)
	}
	prof, err := Analyze(tr, Options{TieSeed: 1, Workers: 2, Resume: ck})
	if err != nil {
		t.Fatalf("resume after SIGKILL: %v", err)
	}
	got, err := prof.Export()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("profile resumed after kill -9 differs from uninterrupted profile")
	}
	t.Logf("killed child mid-run at %d checkpointed events; resume byte-identical", ck.Events())
}

// ckptChild is the killed process: it re-reads the shared trace and
// analyzes it with tight checkpointing until the parent's SIGKILL lands.
func ckptChild(t *testing.T) {
	tr, err := trace.ReadFile(os.Getenv("APROF_CKPT_TRACE"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ { // keep running until killed
		_, err := Analyze(tr, Options{
			TieSeed: 1,
			Workers: 2,
			Checkpoint: &CheckpointOptions{
				Path:        os.Getenv("APROF_CKPT_PATH"),
				EveryEvents: 100,
			},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestWorkerStateRoundTrip pins the checkpoint codec: a state with every
// field populated encodes and decodes bit-exactly.
func TestWorkerStateRoundTrip(t *testing.T) {
	a := core.NewActivations(7)
	a.Record(3, 2, 1, 0, 40)
	a.Record(5, 5, 0, 2, 90)
	st := &workerState{
		threadIdx:       2,
		id:              7,
		segIdx:          3,
		off:             411,
		events:          100000,
		count:           1 << 40, // forces wide-mode values through the codec
		nextRead:        9999,
		inducedThread:   5,
		inducedExternal: 6,
		stack: core.Stack[uint64]{
			{Rtn: 1, TS: 10, BBEnter: 100, TRMS: -3, RMS: 2, InducedThread: 1},
			{Rtn: 2, TS: 20, BBEnter: 200, TRMS: 7, RMS: -1, InducedExternal: 4},
		},
		acts:  map[guest.RoutineID]*core.Activations{4: a},
		cells: []cellPair{{addr: 64, val: 1}, {addr: 1 << 33, val: 1 << 35}},
	}
	payload := st.encode()
	got, err := decodeWorker(payload)
	if err != nil {
		t.Fatal(err)
	}
	back := got.encode()
	if !bytes.Equal(payload, back) {
		t.Fatal("worker state does not round-trip bit-exactly")
	}
	if got.count != st.count || got.off != st.off || len(got.stack) != 2 || len(got.cells) != 2 {
		t.Fatalf("decoded state mismatch: %+v", got)
	}
	if got.acts[4].SumCost != a.SumCost || len(got.acts[4].ByTRMS) != len(a.ByTRMS) {
		t.Fatal("decoded aggregates mismatch")
	}
}

// TestCheckpointOldVersionRejected: a checkpoint written under an earlier
// codec version fails the load with the unsupported-version error instead
// of being misread by the current block layout.
func TestCheckpointOldVersionRejected(t *testing.T) {
	tr, _ := ckptTrace(t, "fig1a", workloads.Params{Size: 24})
	path := filepath.Join(t.TempDir(), "c.ckpt")
	if _, err := runCheckpointed(t, tr, path, 2, nil, nil); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decodeCheckpoint(data); err != nil {
		t.Fatalf("current-version checkpoint rejected: %v", err)
	}
	data[len(ckptMagic)] = 2
	_, err = decodeCheckpoint(data)
	if !errors.Is(err, errCkpt) || !strings.Contains(err.Error(), "unsupported version 2") {
		t.Fatalf("version-2 checkpoint: got %v, want the unsupported-version error", err)
	}
}
