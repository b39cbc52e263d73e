package trace_test

import (
	"bytes"
	"errors"
	"reflect"
	"slices"
	"testing"

	"repro/internal/guest"
	"repro/internal/shadow"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// refRecorder is the reference the recorders are held to: a guest.Tool
// that appends each event to its thread's []trace.Event as given, with no
// encoding and no checks, and assembles the trace in first-event order
// with name tables snapshotted at Finish.
type refRecorder struct {
	env   guest.Env
	perTh map[guest.ThreadID]*trace.ThreadTrace
	order []guest.ThreadID
	trace *trace.Trace
}

func newRefRecorder() *refRecorder {
	return &refRecorder{perTh: make(map[guest.ThreadID]*trace.ThreadTrace)}
}

func (r *refRecorder) thread(t guest.ThreadID) *trace.ThreadTrace {
	tt := r.perTh[t]
	if tt == nil {
		tt = &trace.ThreadTrace{ID: t}
		r.perTh[t] = tt
		r.order = append(r.order, t)
	}
	return tt
}

func (r *refRecorder) add(t guest.ThreadID, k trace.Kind, arg, aux uint64) {
	tt := r.thread(t)
	tt.Events = append(tt.Events, trace.Event{TS: r.env.Now(), Thread: t, Kind: k, Arg: arg, Aux: aux})
}

func (r *refRecorder) Attach(env guest.Env) { r.env = env }
func (r *refRecorder) Call(t guest.ThreadID, rt guest.RoutineID, bb uint64) {
	r.add(t, trace.KindCall, uint64(rt), bb)
}
func (r *refRecorder) Return(t guest.ThreadID, rt guest.RoutineID, bb uint64) {
	r.add(t, trace.KindReturn, uint64(rt), bb)
}

func (r *refRecorder) MemBatch(t guest.ThreadID, startTS uint64, events []guest.MemEvent) {
	tt := r.thread(t)
	for i, e := range events {
		k := trace.KindRead
		switch {
		case e.IsKernel() && e.IsWrite():
			k = trace.KindKernelWrite
		case e.IsKernel():
			k = trace.KindKernelRead
		case e.IsWrite():
			k = trace.KindWrite
		}
		tt.Events = append(tt.Events, trace.Event{TS: startTS + uint64(i), Thread: t, Kind: k, Arg: uint64(e.Addr())})
	}
}

func (r *refRecorder) SwitchThread(from, to guest.ThreadID) {}
func (r *refRecorder) ThreadStart(t, parent guest.ThreadID) {
	r.add(t, trace.KindThreadStart, uint64(uint32(parent)), 0)
}
func (r *refRecorder) ThreadExit(t guest.ThreadID) { r.add(t, trace.KindThreadExit, 0, 0) }

func (r *refRecorder) Sync(t guest.ThreadID, kind guest.SyncKind, s guest.SyncID) {
	k := trace.KindSyncRelease
	if kind == guest.SyncAcquire {
		k = trace.KindSyncAcquire
	}
	r.add(t, k, uint64(s), 0)
}

func (r *refRecorder) Alloc(t guest.ThreadID, base guest.Addr, n int) {
	r.add(t, trace.KindAlloc, uint64(base), uint64(n))
}
func (r *refRecorder) Free(t guest.ThreadID, base guest.Addr, n int) {
	r.add(t, trace.KindFree, uint64(base), uint64(n))
}

func (r *refRecorder) Finish() {
	tr := &trace.Trace{}
	for i := 0; i < r.env.NumRoutines(); i++ {
		tr.Routines = append(tr.Routines, r.env.RoutineName(guest.RoutineID(i)))
	}
	for i := 0; i < r.env.NumSyncs(); i++ {
		tr.Syncs = append(tr.Syncs, r.env.SyncName(guest.SyncID(i)))
	}
	for _, id := range r.order {
		tr.Threads = append(tr.Threads, *r.perTh[id])
	}
	r.trace = tr
}

// recordBytes returns tr's bytes as a program writes them: tr replayed
// into a StreamRecorder, annotating only when tr is annotated.
func recordBytes(tb testing.TB, tr *trace.Trace) []byte {
	tb.Helper()
	var buf bytes.Buffer
	sr := trace.NewStreamRecorder(&buf)
	sr.SetAnnotations(tr.Annotated)
	if err := trace.Replay(tr, 0, sr); err != nil {
		tb.Fatal(err)
	}
	if err := sr.Close(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestRecorderMatchesReference: on workloads from every suite the
// Recorder's trace equals the reference's, thread order, events and name
// tables included. mysqld and dedup flush their threads' first segments
// out of first-event order, so the order check has teeth there.
func TestRecorderMatchesReference(t *testing.T) {
	for _, name := range []string{"mysqld", "dedup", "producer-consumer", "vips", "fluidanimate", "350.md"} {
		spec, err := workloads.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		rec, ref := trace.NewRecorder(), newRefRecorder()
		if _, err := workloads.Run(spec, workloads.Params{}, rec, ref); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := rec.Err(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, want := rec.Trace(), ref.trace
		if !reflect.DeepEqual(got.Routines, want.Routines) || !reflect.DeepEqual(got.Syncs, want.Syncs) {
			t.Errorf("%s: name tables differ from the reference", name)
		}
		if len(got.Threads) != len(want.Threads) {
			t.Fatalf("%s: %d threads, reference has %d", name, len(got.Threads), len(want.Threads))
		}
		for i := range want.Threads {
			g, w := &got.Threads[i], &want.Threads[i]
			if g.ID != w.ID {
				t.Fatalf("%s: thread %d is t%d, reference has t%d", name, i, g.ID, w.ID)
			}
			if g.Ann != nil || !slices.Equal(g.Events, w.Events) {
				t.Fatalf("%s: thread t%d differs from the reference", name, g.ID)
			}
		}
	}
}

// TestRecorderRefusesOutOfRangeAccess: a memory access at 1<<MaxAddrBits
// stops the Recorder with an *AddressError, and it returns no trace.
func TestRecorderRefusesOutOfRangeAccess(t *testing.T) {
	env := &clockEnv{}
	rec := trace.NewRecorder()
	rec.Attach(env)
	rec.ThreadStart(1, 0)
	rec.Call(1, 0, 1)
	rec.MemBatch(1, env.Now(), []guest.MemEvent{guest.ReadEvent(guest.Addr(1) << shadow.MaxAddrBits)})
	rec.Return(1, 0, 2)
	rec.Finish()
	var ae *trace.AddressError
	if !errors.As(rec.Err(), &ae) || !errors.As(rec.Close(), &ae) {
		t.Fatalf("Err() = %v, want *trace.AddressError", rec.Err())
	}
	if rec.Trace() != nil {
		t.Fatal("Recorder returned a trace after refusing an access")
	}
}
