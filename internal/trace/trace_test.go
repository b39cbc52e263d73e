package trace_test

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/guest"
	"repro/internal/trace"
)

// exampleRun executes a small multithreaded guest program with the given
// tools attached and returns the machine.
func exampleRun(t testing.TB, timeslice int, tools ...guest.Tool) *guest.Machine {
	t.Helper()
	m := guest.NewMachine(guest.Config{Timeslice: timeslice, Tools: tools})
	shared := m.Static(16)
	dev := m.NewDevice("disk", nil)
	mu := m.NewMutex("mu")
	err := m.Run(func(th *guest.Thread) {
		var kids []*guest.Thread
		for w := 0; w < 3; w++ {
			w := w
			kids = append(kids, th.Spawn(fmt.Sprintf("w%d", w), func(c *guest.Thread) {
				c.Fn("worker", func() {
					buf := c.Alloc(4)
					c.ReadDevice(dev, buf, 4)
					sum := uint64(0)
					for i := 0; i < 4; i++ {
						sum += c.Load(buf + guest.Addr(i))
					}
					c.WithLock(mu, func() {
						c.Fn("accumulate", func() {
							c.Store(shared+guest.Addr(w), sum)
							c.Load(shared) // cross-thread read
						})
					})
					c.WriteDevice(dev, buf, 1)
					c.Free(buf)
				})
			}))
		}
		for _, k := range kids {
			th.Join(k)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestRecorderCapturesEverything(t *testing.T) {
	rec := trace.NewRecorder()
	m := exampleRun(t, 5, rec)
	tr := rec.Trace()
	if tr == nil {
		t.Fatal("no trace after run")
	}
	if got, want := len(tr.Threads), m.NumThreads(); got != want {
		t.Errorf("trace has %d threads, want %d", got, want)
	}
	if tr.NumEvents() == 0 {
		t.Fatal("empty trace")
	}
	kinds := make(map[trace.Kind]int)
	for _, tt := range tr.Threads {
		prev := uint64(0)
		for _, e := range tt.Events {
			if e.TS < prev {
				t.Fatalf("thread %d: timestamps not monotone: %d after %d", tt.ID, e.TS, prev)
			}
			prev = e.TS
			kinds[e.Kind]++
		}
	}
	for _, k := range []trace.Kind{trace.KindCall, trace.KindReturn, trace.KindRead, trace.KindWrite, trace.KindKernelRead,
		trace.KindKernelWrite, trace.KindThreadStart, trace.KindThreadExit, trace.KindSyncAcquire, trace.KindSyncRelease,
		trace.KindAlloc, trace.KindFree} {
		if kinds[k] == 0 {
			t.Errorf("no %s events recorded", k)
		}
	}
	if kinds[trace.KindSwitch] != 0 {
		t.Errorf("recorder stored %d switch events; switches are synthesized at merge", kinds[trace.KindSwitch])
	}
}

func TestMergeTotalOrderAndSwitches(t *testing.T) {
	rec := trace.NewRecorder()
	exampleRun(t, 3, rec)
	merged := trace.Merge(rec.Trace(), 0)
	var prevTS uint64
	for i, e := range merged {
		if e.TS < prevTS {
			t.Fatalf("merged[%d] out of order: %d after %d", i, e.TS, prevTS)
		}
		prevTS = e.TS
		if i > 0 && merged[i-1].Kind != trace.KindSwitch && e.Kind != trace.KindSwitch &&
			merged[i-1].Thread != e.Thread {
			t.Fatalf("merged[%d]: thread change %d->%d without switch event", i, merged[i-1].Thread, e.Thread)
		}
		if e.Kind == trace.KindSwitch && guest.ThreadID(e.Arg) == e.Thread {
			t.Fatalf("merged[%d]: self-switch", i)
		}
	}
}

func TestMergeTieBreaking(t *testing.T) {
	// Two threads with identical timestamps: different seeds must be able
	// to produce different (but individually consistent) interleavings.
	tr := &trace.Trace{Routines: []string{"a"}, Syncs: nil}
	for tid := guest.ThreadID(1); tid <= 2; tid++ {
		tt := trace.ThreadTrace{ID: tid}
		for i := 0; i < 4; i++ {
			tt.Events = append(tt.Events, trace.Event{TS: uint64(10 * i), Thread: tid, Kind: trace.KindRead, Arg: uint64(tid)})
		}
		tr.Threads = append(tr.Threads, tt)
	}
	signature := func(seed int64) string {
		var sig string
		for _, e := range trace.Merge(tr, seed) {
			if e.Kind != trace.KindSwitch {
				sig += fmt.Sprintf("%d", e.Thread)
			}
		}
		return sig
	}
	base := signature(0)
	if len(base) != 8 {
		t.Fatalf("merged signature %q, want 8 events", base)
	}
	different := false
	for seed := int64(1); seed < 10; seed++ {
		if signature(seed) != base {
			different = true
			break
		}
	}
	if !different {
		t.Error("ties broken identically for 10 seeds; tie-breaking not arbitrary")
	}
}

// TestEncodeDecodeRoundTrip: what the StreamRecorder writes decodes to the
// trace the reference recorder builds from the same run.
func TestEncodeDecodeRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	ref, sr := newRefRecorder(), trace.NewStreamRecorder(&buf)
	exampleRun(t, 7, ref, sr)
	if err := sr.Close(); err != nil {
		t.Fatal(err)
	}
	tr := ref.trace
	t.Logf("encoded %d events in %d bytes (%.2f bytes/event)",
		tr.NumEvents(), buf.Len(), float64(buf.Len())/float64(tr.NumEvents()))

	got, err := trace.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Routines) != len(tr.Routines) || len(got.Syncs) != len(tr.Syncs) {
		t.Fatalf("name tables: got %d/%d, want %d/%d",
			len(got.Routines), len(got.Syncs), len(tr.Routines), len(tr.Syncs))
	}
	for i := range tr.Routines {
		if got.Routines[i] != tr.Routines[i] {
			t.Errorf("routine[%d] = %q, want %q", i, got.Routines[i], tr.Routines[i])
		}
	}
	if len(got.Threads) != len(tr.Threads) {
		t.Fatalf("thread count %d, want %d", len(got.Threads), len(tr.Threads))
	}
	for i := range tr.Threads {
		a, b := tr.Threads[i], got.Threads[i]
		if a.ID != b.ID || len(a.Events) != len(b.Events) {
			t.Fatalf("thread %d mismatch: id %d/%d events %d/%d", i, a.ID, b.ID, len(a.Events), len(b.Events))
		}
		for j := range a.Events {
			if a.Events[j] != b.Events[j] {
				t.Fatalf("thread %d event %d: %v != %v", i, j, a.Events[j], b.Events[j])
			}
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := trace.Decode(bytes.NewReader([]byte("not a trace at all"))); err == nil {
		t.Error("trace.Decode accepted garbage")
	}
	if _, err := trace.Decode(bytes.NewReader(append([]byte("ISPTRACE"), 99))); err == nil {
		t.Error("trace.Decode accepted bad version")
	}
}

// TestReplayEquivalence is the keystone: a profile computed online must be
// identical to one computed by replaying the recorded trace.
func TestReplayEquivalence(t *testing.T) {
	for _, timeslice := range []int{1, 3, 50} {
		online := core.New(core.Options{})
		rec := trace.NewRecorder()
		exampleRun(t, timeslice, online, rec)

		offline := core.New(core.Options{})
		if err := trace.Replay(rec.Trace(), 0, offline); err != nil {
			t.Fatal(err)
		}
		if diffs := online.Profile().Diff(offline.Profile()); len(diffs) > 0 {
			t.Errorf("timeslice %d: replayed profile differs from online:\n%v", timeslice, diffs)
		}
	}
}

// TestReplayAfterSerialization replays from a decoded byte stream.
func TestReplayAfterSerialization(t *testing.T) {
	online := core.New(core.Options{})
	var buf bytes.Buffer
	rec := trace.NewStreamRecorder(&buf)
	exampleRun(t, 4, online, rec)
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Decode(&buf)
	if err != nil {
		t.Fatal(err)
	}
	offline := core.New(core.Options{})
	if err := trace.Replay(tr, 0, offline); err != nil {
		t.Fatal(err)
	}
	if diffs := online.Profile().Diff(offline.Profile()); len(diffs) > 0 {
		t.Errorf("profile after encode/decode/replay differs:\n%v", diffs)
	}
}

// TestReplayNaiveEquivalence replays into the naive reference as well,
// closing the loop between all three computation paths.
func TestReplayNaiveEquivalence(t *testing.T) {
	rec := trace.NewRecorder()
	exampleRun(t, 2, rec)
	fast := core.New(core.Options{})
	naive := core.NewNaive(core.Options{})
	if err := trace.Replay(rec.Trace(), 7, fast, naive); err != nil {
		t.Fatal(err)
	}
	if diffs := fast.Profile().Diff(naive.Profile()); len(diffs) > 0 {
		t.Errorf("replayed timestamping vs naive:\n%v", diffs)
	}
}

func TestComputeStats(t *testing.T) {
	rec := trace.NewRecorder()
	m := exampleRun(t, 5, rec)
	st := trace.ComputeStats(rec.Trace())
	if st.Events != rec.Trace().NumEvents() || st.Events == 0 {
		t.Errorf("events = %d", st.Events)
	}
	if st.Threads != m.NumThreads() {
		t.Errorf("threads = %d, want %d", st.Threads, m.NumThreads())
	}
	if st.ByKind[trace.KindRead] == 0 || st.ByKind[trace.KindCall] == 0 || st.ByKind[trace.KindKernelWrite] == 0 {
		t.Errorf("kind histogram incomplete: %v", st.ByKind)
	}
	if st.Span == 0 {
		t.Error("zero time span")
	}
	total := 0
	for _, ts := range st.PerThread {
		total += ts.Events
		if ts.Events > 0 && ts.LastTS < ts.FirstTS {
			t.Errorf("thread %d: last < first", ts.ID)
		}
	}
	if total != st.Events {
		t.Errorf("per-thread events %d != total %d", total, st.Events)
	}
	if empty := trace.ComputeStats(&trace.Trace{}); empty.Events != 0 || empty.Span != 0 {
		t.Errorf("empty trace stats: %+v", empty)
	}
}

// TestReplayTieSeedIrrelevantForRealTraces: machine-recorded traces have
// globally unique timestamps, so every tie-breaking seed yields the same
// merged order and the same profile.
func TestReplayTieSeedIrrelevantForRealTraces(t *testing.T) {
	rec := trace.NewRecorder()
	exampleRun(t, 3, rec)
	base := core.New(core.Options{})
	if err := trace.Replay(rec.Trace(), 0, base); err != nil {
		t.Fatal(err)
	}
	for seed := int64(1); seed <= 4; seed++ {
		p := core.New(core.Options{})
		if err := trace.Replay(rec.Trace(), seed, p); err != nil {
			t.Fatal(err)
		}
		if !base.Profile().Equal(p.Profile()) {
			t.Errorf("seed %d: replay profile differs despite unique timestamps", seed)
		}
	}
}

// TestDecodeVersionError: decoding a future-format trace yields the typed
// version error.
func TestDecodeVersionError(t *testing.T) {
	var buf bytes.Buffer
	rec := trace.NewStreamRecorder(&buf)
	exampleRun(t, 6, rec)
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if _, err := trace.Decode(bytes.NewReader(raw)); err != nil {
		t.Fatal(err)
	}
	raw[8] = 7 // corrupt the version byte
	_, err := trace.Decode(bytes.NewReader(raw))
	var ve *trace.VersionError
	if !errors.As(err, &ve) {
		t.Fatalf("Decode error = %v, want *trace.VersionError", err)
	}
	if ve.Got != 7 {
		t.Errorf("VersionError.Got = %d, want 7", ve.Got)
	}
}

// TestWalkMatchesMerge: the streaming Walk visits exactly the non-switch
// events of Merge, in the same order, for several tie seeds.
func TestWalkMatchesMerge(t *testing.T) {
	rec := trace.NewRecorder()
	exampleRun(t, 3, rec)
	tr := rec.Trace()
	for seed := int64(0); seed < 4; seed++ {
		var walked []trace.Event
		trace.Walk(tr, seed, func(ti, ei int, e *trace.Event) {
			if got := tr.Threads[ti].Events[ei]; got != *e {
				t.Fatalf("walk indices (%d,%d) point at %v, event is %v", ti, ei, got, *e)
			}
			walked = append(walked, *e)
		})
		var want []trace.Event
		for _, e := range trace.Merge(tr, seed) {
			if e.Kind != trace.KindSwitch {
				want = append(want, e)
			}
		}
		if len(walked) != len(want) {
			t.Fatalf("seed %d: walked %d events, merge has %d", seed, len(walked), len(want))
		}
		for i := range want {
			if walked[i] != want[i] {
				t.Fatalf("seed %d: event %d: walk %v != merge %v", seed, i, walked[i], want[i])
			}
		}
	}
}
