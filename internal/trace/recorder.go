package trace

import "repro/internal/guest"

// Recorder is a guest.Tool that records the execution into per-thread traces
// timestamped with the machine's operation counter. Thread switches are not
// recorded: the merge step re-derives them, as in the paper's trace model
// where switchThread events are inserted between operations of different
// threads. It records every event as given and has no error to report, so
// one outside the analysed address space (a memory access at or above
// 1<<shadow.MaxAddrBits, or an alloc or free whose range does not fit below
// it) is refused by the trace's consumers instead: Replay and Annotate
// return an *AddressError for it, and so does Decode once it is encoded.
type Recorder struct {
	env     guest.Env
	perTh   map[guest.ThreadID]*ThreadTrace
	order   []guest.ThreadID
	trace   *Trace
	stopped bool
}

// NewRecorder returns an empty Recorder.
func NewRecorder() *Recorder {
	return &Recorder{perTh: make(map[guest.ThreadID]*ThreadTrace)}
}

// Trace returns the recorded trace; valid after the run finishes.
func (r *Recorder) Trace() *Trace { return r.trace }

// thread returns t's trace, creating it on t's first event.
func (r *Recorder) thread(t guest.ThreadID) *ThreadTrace {
	tt := r.perTh[t]
	if tt == nil {
		tt = &ThreadTrace{ID: t}
		r.perTh[t] = tt
		r.order = append(r.order, t)
	}
	return tt
}

func (r *Recorder) add(t guest.ThreadID, k Kind, arg, aux uint64) {
	tt := r.thread(t)
	tt.Events = append(tt.Events, Event{
		TS:     r.env.Now(),
		Thread: t,
		Kind:   k,
		Arg:    arg,
		Aux:    aux,
	})
}

// Attach implements guest.Tool.
func (r *Recorder) Attach(env guest.Env) { r.env = env }

// Call implements guest.Tool.
func (r *Recorder) Call(t guest.ThreadID, rt guest.RoutineID, bb uint64) {
	r.add(t, KindCall, uint64(rt), bb)
}

// Return implements guest.Tool.
func (r *Recorder) Return(t guest.ThreadID, rt guest.RoutineID, bb uint64) {
	r.add(t, KindReturn, uint64(rt), bb)
}

// MemBatch implements guest.Tool: each event is appended with its
// timestamp, startTS+i per the batch contract.
func (r *Recorder) MemBatch(t guest.ThreadID, startTS uint64, events []guest.MemEvent) {
	tt := r.thread(t)
	for i, e := range events {
		tt.Events = append(tt.Events, Event{
			TS:     startTS + uint64(i),
			Thread: t,
			Kind:   memKind(e),
			Arg:    uint64(e.Addr()),
		})
	}
}

// SwitchThread implements guest.Tool: switches are intentionally dropped
// (the merge step re-synthesizes them from the total timestamp order).
func (r *Recorder) SwitchThread(from, to guest.ThreadID) {}

// ThreadStart implements guest.Tool.
func (r *Recorder) ThreadStart(t, parent guest.ThreadID) {
	r.add(t, KindThreadStart, uint64(uint32(parent)), 0)
}

// ThreadExit implements guest.Tool.
func (r *Recorder) ThreadExit(t guest.ThreadID) { r.add(t, KindThreadExit, 0, 0) }

// Sync implements guest.Tool.
func (r *Recorder) Sync(t guest.ThreadID, kind guest.SyncKind, s guest.SyncID) {
	k := KindSyncRelease
	if kind == guest.SyncAcquire {
		k = KindSyncAcquire
	}
	r.add(t, k, uint64(s), 0)
}

// Alloc implements guest.Tool.
func (r *Recorder) Alloc(t guest.ThreadID, base guest.Addr, n int) {
	r.add(t, KindAlloc, uint64(base), uint64(n))
}

// Free implements guest.Tool.
func (r *Recorder) Free(t guest.ThreadID, base guest.Addr, n int) {
	r.add(t, KindFree, uint64(base), uint64(n))
}

// Finish implements guest.Tool: the name tables are snapshotted and the
// trace assembled in thread-start order.
func (r *Recorder) Finish() {
	if r.stopped {
		return
	}
	r.stopped = true
	tr := &Trace{}
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
