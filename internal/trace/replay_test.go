package trace_test

import (
	"bytes"
	"io"
	"reflect"
	"sync"
	"testing"

	"repro/internal/guest"
	"repro/internal/trace"
)

// dispatchEnv is the guest.Env of a caller that drives tools event by
// event: the trace's name tables and the current event's timestamp.
type dispatchEnv struct {
	tr  *trace.Trace
	now uint64
}

func (e *dispatchEnv) RoutineName(r guest.RoutineID) string { return e.tr.RoutineName(r) }
func (e *dispatchEnv) SyncName(s guest.SyncID) string       { return e.tr.SyncName(s) }
func (e *dispatchEnv) NumRoutines() int                     { return len(e.tr.Routines) }
func (e *dispatchEnv) NumSyncs() int                        { return len(e.tr.Syncs) }
func (e *dispatchEnv) Now() uint64                          { return e.now }

// TestDispatchMemoryDoesNotAllocate: Dispatch hands a memory access to the
// tools as a one-event batch without allocating, for every memory kind.
func TestDispatchMemoryDoesNotAllocate(t *testing.T) {
	sr := trace.NewStreamRecorder(io.Discard)
	env := &dispatchEnv{tr: &trace.Trace{}}
	sr.Attach(env)
	tools := []guest.Tool{sr}
	for _, k := range []trace.Kind{trace.KindRead, trace.KindWrite, trace.KindKernelRead, trace.KindKernelWrite} {
		allocs := testing.AllocsPerRun(1000, func() {
			env.now++
			if err := trace.Dispatch(trace.Event{TS: env.now, Thread: 1, Kind: k, Arg: 0x40}, tools); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("Dispatch of a %s: %v allocations per event, want 0", k, allocs)
		}
	}
	if err := sr.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestReplayCutsBatchesAtTimestampGaps: a MemBatch's i-th event is at
// startTS+i, so replay must cut a thread's run of memory accesses wherever
// timestamps skip. A Recorder, which stamps batched events that way, gets
// back the hand-built trace event for event.
func TestReplayCutsBatchesAtTimestampGaps(t *testing.T) {
	in := &trace.Trace{Threads: []trace.ThreadTrace{
		{ID: 1, Events: []trace.Event{
			{TS: 10, Thread: 1, Kind: trace.KindWrite, Arg: 0x10},
			{TS: 11, Thread: 1, Kind: trace.KindRead, Arg: 0x10},
			{TS: 20, Thread: 1, Kind: trace.KindKernelWrite, Arg: 0x18},
			{TS: 21, Thread: 1, Kind: trace.KindKernelRead, Arg: 0x18},
		}},
		{ID: 2, Events: []trace.Event{
			{TS: 3, Thread: 2, Kind: trace.KindRead, Arg: 0x10},
			{TS: 4, Thread: 2, Kind: trace.KindWrite, Arg: 0x20},
			{TS: 30, Thread: 2, Kind: trace.KindRead, Arg: 0x18},
		}},
	}}
	rec := trace.NewRecorder()
	if err := trace.Replay(in, 0, rec); err != nil {
		t.Fatal(err)
	}
	got := map[guest.ThreadID][]trace.Event{}
	for _, th := range rec.Trace().Threads {
		got[th.ID] = th.Events
	}
	for _, th := range in.Threads {
		if !reflect.DeepEqual(got[th.ID], th.Events) {
			t.Errorf("thread %d: replayed into a recorder\n got %v\nwant %v", th.ID, got[th.ID], th.Events)
		}
	}
}

// TestDispatchConcurrentRecorders streams one execution through Dispatch
// into two StreamRecorders from two goroutines at once, the shape of two
// guests feeding aprofd; each must write the file a lone stream writes.
// Each call's batch is in its own goroutine's stack frame, so under the
// race detector this checks that Dispatch shares nothing else either.
func TestDispatchConcurrentRecorders(t *testing.T) {
	rec := trace.NewRecorder()
	exampleRun(t, 3, rec)
	tr := rec.Trace()
	merged := trace.Merge(tr, 0)
	stream := func() ([]byte, error) {
		var buf bytes.Buffer
		sr := trace.NewStreamRecorder(&buf)
		env := &dispatchEnv{tr: tr}
		sr.Attach(env)
		tools := []guest.Tool{sr}
		for _, e := range merged {
			env.now = e.TS
			if err := trace.Dispatch(e, tools); err != nil {
				return nil, err
			}
		}
		err := sr.Close()
		return buf.Bytes(), err
	}
	want, err := stream()
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	got := make([][]byte, 2)
	errs := make([]error, 2)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = stream()
		}()
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Errorf("stream %d: %v", i, errs[i])
		} else if !bytes.Equal(got[i], want) {
			t.Errorf("stream %d: %d bytes differ from the lone stream's %d", i, len(got[i]), len(want))
		}
	}
}
