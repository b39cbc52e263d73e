package core

import (
	"bytes"
	"errors"
	"math/rand"
	"testing"

	"repro/internal/shadow"
	"repro/internal/trace"
)

// replayExport replays tr into a fresh profiler and returns its export.
func replayExport(t *testing.T, tr *trace.Trace, opts Options) []byte {
	t.Helper()
	p := New(opts)
	if err := trace.Replay(tr, 1, p); err != nil {
		t.Fatal(err)
	}
	out, err := p.Profile().Export()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestFeedRunMatchesReplay: a recorded run's merged order, cut into runs
// at arbitrary points and fed through FeedRun, exports byte-identically to
// Replay into New, exact and RMSOnly alike. The runs mix every kind the
// guest records, kernel reads and writes included, so memory stretches
// that MemBatch takes alternate with dispatched calls, returns and thread
// events at every possible boundary.
func TestFeedRunMatchesReplay(t *testing.T) {
	seen := make(map[trace.Kind]bool)
	for seed := int64(1); seed <= 12; seed++ {
		rec := trace.NewRecorder()
		randProgram{seed: seed, threads: 3, opsPer: 300, cells: 24, timeslice: 1 + int(seed%5)}.run(t, rec)
		tr := rec.Trace()
		for i := range tr.Threads {
			for _, e := range tr.Threads[i].Events {
				seen[e.Kind] = true
			}
		}
		for _, opts := range []Options{{}, {RMSOnly: true}, {ContextSensitive: true}} {
			want := replayExport(t, tr, opts)
			rng := rand.New(rand.NewSource(seed))
			in := NewIncremental(opts)
			if err := in.ExtendTables(tr.Routines, tr.Syncs); err != nil {
				t.Fatal(err)
			}
			var err error
			trace.WalkRuns(tr, 1, func(ti, lo, hi int) {
				for run := tr.Threads[ti].Events[lo:hi]; len(run) > 0 && err == nil; {
					n := 1 + rng.Intn(len(run))
					err = in.FeedRun(run[:n])
					run = run[n:]
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			in.Finish()
			got, err := in.Profiler().Profile().Export()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("seed %d, options %+v: FeedRun export diverges from Replay (%d vs %d bytes)", seed, opts, len(got), len(want))
			}
		}
	}
	for _, k := range []trace.Kind{trace.KindRead, trace.KindWrite, trace.KindKernelRead, trace.KindKernelWrite, trace.KindCall, trace.KindReturn} {
		if !seen[k] {
			t.Errorf("the generated runs never contain a %s event", k)
		}
	}
}

// TestFeedRunRejectsOutOfRangeAddress: a memory access at or above
// 1<<shadow.MaxAddrBits in a hand-built run, or an alloc or free whose
// range runs past it, is an *trace.AddressError naming the event, after the
// events before it are fed, not a panic in shadow memory. FeedTrace
// reports the same error.
func TestFeedRunRejectsOutOfRangeAddress(t *testing.T) {
	const limit = uint64(1) << shadow.MaxAddrBits
	for _, bad := range []trace.Event{
		{Kind: trace.KindRead, Arg: limit},
		{Kind: trace.KindWrite, Arg: limit},
		{Kind: trace.KindKernelRead, Arg: limit},
		{Kind: trace.KindKernelWrite, Arg: limit},
		{Kind: trace.KindAlloc, Arg: limit - 8, Aux: 1 << 40},
		{Kind: trace.KindFree, Arg: limit, Aux: 1},
	} {
		bad.TS, bad.Thread = 3, 1
		k := bad.Kind
		run := []trace.Event{
			{TS: 1, Thread: 1, Kind: trace.KindCall},
			{TS: 2, Thread: 1, Kind: trace.KindWrite, Arg: limit - 1},
			bad,
			{TS: 4, Thread: 1, Kind: trace.KindRead, Arg: 8},
		}
		in := NewIncremental(Options{})
		err := in.FeedRun(run)
		var ae *trace.AddressError
		if !errors.As(err, &ae) || ae.Event != 2 || ae.Kind != k || ae.Addr != limit {
			t.Errorf("FeedRun of a %s at %#x: got %v, want an AddressError for event 2", k, bad.Arg, err)
		}
		if fed := in.Cut().Events; fed != 2 {
			t.Errorf("FeedRun of a %s at %#x fed %d events before it, want 2", k, limit, fed)
		}

		tr := &trace.Trace{Routines: []string{"main"}, Threads: []trace.ThreadTrace{{ID: 1, Events: run}}}
		if err := NewIncremental(Options{}).FeedTrace(tr, 1); !errors.As(err, &ae) {
			t.Errorf("FeedTrace of a %s at %#x: got %v, want an AddressError", k, limit, err)
		}
	}
}
