package pipeline

import (
	"context"
	"fmt"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/guest"
	"repro/internal/shadow"
	"repro/internal/trace"
)

// cell is the width of a per-thread shadow timestamp: uint32 when the
// event count proves the counter fits (narrow mode), uint64 otherwise. Both
// instantiations store the exact same counter values.
type cell interface {
	~uint32 | ~uint64
}

// analyzeThread runs the per-thread half of the paper's Fig. 11 algorithm
// over one guest thread's segments: the thread's latest-access shadow memory
// ts_t, its shadow stack of partial trms/rms values (Invariant 2), and the
// per-routine histogram aggregation. Global information — the counter at
// segment entry and the (wts, writer) pair each read observes — comes
// precomputed from the plan, so threads are analyzed fully independently.
//
// The read rule, the shadow-stack frame, call push and the return fold are
// core's rms/trms kernel (internal/core/kernel.go), the same code the inline
// profiler runs, instantiated with never-renumbered 64-bit counter values
// in place of the inline profiler's renumbered 32-bit timestamps; profiles
// depend only on timestamp order relations, which renumbering preserves, so
// the results are identical.
//
// A panic anywhere in the analysis — e.g. inconsistent plan state from a
// corrupted trace — is converted into an error carrying the thread and the
// segment being processed, so one bad thread cannot crash the whole
// pipeline run. ctx is polled once per segment.
// onSegment, when non-nil, is invoked after each completed segment with its
// event count — the grain of the pipeline's progress reporting.
//
// ck, when non-nil, enables checkpointing: the worker crosses a safepoint
// every safepointStride events, where it captures its state (shadow cells
// included) when one is due and hands it to the checkpoint manager.
// resume, when non-nil, is a validated prior state: the worker restores it
// and continues from the recorded position instead of the beginning.
func analyzeThread(ctx context.Context, tr *trace.Trace, tp *threadPlan, opts core.Options, wide bool, onSegment func(int), ck *workerCkpt, resume *workerState) (*core.Profile, error) {
	if wide {
		return runWorker[uint64](ctx, tr, tp, opts, onSegment, ck, resume)
	}
	return runWorker[uint32](ctx, tr, tp, opts, onSegment, ck, resume)
}

// workerCkpt is one worker's checkpointing context: the shared manager and
// this worker's identity and cadence state.
type workerCkpt struct {
	mgr       *ckptManager
	threadIdx int
	every     int    // events between serialized states
	sinceSnap int    // events counted toward the next cadence capture
	gen       uint64 // last seen on-demand snapshot generation
}

// workerPanicHook, when non-nil, is invoked at the start of every
// per-thread analysis; the robustness tests use it to inject worker panics.
var workerPanicHook func(guest.ThreadID)

func runWorker[C cell](ctx context.Context, tr *trace.Trace, tp *threadPlan, opts core.Options, onSegment func(int), ck *workerCkpt, resume *workerState) (prof *core.Profile, err error) {
	segIdx := -1
	defer func() {
		if r := recover(); r != nil {
			seg := "before any segment"
			if segIdx >= 0 && segIdx < len(tp.segments) {
				s := tp.segments[segIdx]
				seg = fmt.Sprintf("segment %d of %d (thread trace %d, events [%d:%d), start count %d)",
					segIdx, len(tp.segments), s.src, s.lo, s.hi, s.startCount)
			}
			prof, err = nil, fmt.Errorf("pipeline: worker for thread %d panicked in %s: %v", tp.id, seg, r)
		}
	}()
	if workerPanicHook != nil {
		workerPanicHook(tp.id)
	}
	w := &worker[C]{
		tr:    tr,
		id:    tp.id,
		opts:  opts,
		reads: tp.reads,
		ts:    shadow.NewTable[C](),
		k:     core.NewKernel[uint64](opts),
		acts:  make(map[guest.RoutineID]*core.Activations),
		ck:    ck,
	}
	startSeg, startOff := 0, 0
	if resume != nil {
		w.restore(resume)
		if resume.done {
			// The thread finished before the checkpoint: its profile is
			// exactly the fold of its stored aggregates.
			return w.profile(), nil
		}
		startSeg, startOff = resume.segIdx, resume.off
	}
	for i := startSeg; i < len(tp.segments); i++ {
		segIdx = i
		seg := tp.segments[i]
		events := tr.Threads[seg.src].Events[seg.lo:seg.hi]
		off := 0
		if i == startSeg && resume != nil {
			// Mid-segment resume: the restored counter image is already
			// correct at the recorded offset.
			off = startOff
		} else {
			w.count = seg.startCount
		}
		firstOff := off
		for {
			if err := ctx.Err(); err != nil {
				w.cancelCkpt(i, off)
				return nil, err
			}
			if off >= len(events) {
				break
			}
			end := len(events)
			if ck != nil && off+safepointStride < end {
				end = off + safepointStride
			}
			for j := off; j < end; j++ {
				w.step(&events[j])
			}
			done := end - off
			off = end
			w.events += uint64(done)
			if ck != nil {
				ck.sinceSnap += done
				w.safepoint(i, off)
			}
		}
		if onSegment != nil {
			onSegment(len(events) - firstOff)
		}
	}
	if ck != nil {
		ck.mgr.submit(w.finalState())
	}
	return w.profile(), nil
}

// restore rebuilds the worker from a checkpointed state. Everything is
// deep-copied: the state may belong to a Checkpoint that outlives this run
// and is resumed again.
func (w *worker[C]) restore(st *workerState) {
	w.count = st.count
	w.nextRead = st.nextRead
	w.k.InducedThread = st.inducedThread
	w.k.InducedExternal = st.inducedExternal
	w.events = st.events
	w.stack = append(core.Stack[uint64](nil), st.stack...)
	for id, a := range st.acts {
		w.acts[id] = a.Clone()
	}
	for _, c := range st.cells {
		w.ts.Set(guest.Addr(c.addr), C(c.val))
	}
}

// safepoint runs every safepointStride events when checkpointing is on. It
// captures the worker's state when the EveryEvents cadence or an on-demand
// trigger asks for one. The cadence subtracts rather than resets, so a
// thread of n events captures exactly n/EveryEvents cadence states however
// its segments cut the strides.
func (w *worker[C]) safepoint(segIdx, off int) {
	ck := w.ck
	want := false
	if ck.sinceSnap >= ck.every {
		ck.sinceSnap -= ck.every
		want = true
	}
	if g := ck.mgr.snapGen(); g != ck.gen {
		ck.gen = g
		want = true
	}
	if want {
		w.captureState(segIdx, off)
	}
}

// cancelCkpt runs when the context fires mid-thread: it submits the final
// partial state so the shutdown checkpoint records this thread's exact
// position.
func (w *worker[C]) cancelCkpt(segIdx, off int) {
	if w.ck != nil {
		w.captureState(segIdx, off)
	}
}

// captureState captures the worker's state at position (segIdx, off) and
// submits it. The capture is the worker's checkpoint pause: it clones the
// analysis state and copies the non-zero shadow cells, in ascending
// address order as the codec wants them.
func (w *worker[C]) captureState(segIdx, off int) {
	start := time.Now()
	st := &workerState{
		threadIdx:       w.ck.threadIdx,
		id:              w.id,
		segIdx:          segIdx,
		off:             off,
		events:          w.events,
		count:           w.count,
		nextRead:        w.nextRead,
		inducedThread:   w.k.InducedThread,
		inducedExternal: w.k.InducedExternal,
		stack:           append(core.Stack[uint64](nil), w.stack...),
		acts:            make(map[guest.RoutineID]*core.Activations, len(w.acts)),
	}
	for id, a := range w.acts {
		st.acts[id] = a.Clone()
	}
	w.ts.Range(func(a guest.Addr, v C) {
		st.cells = append(st.cells, cellPair{addr: uint64(a), val: uint64(v)})
	})
	w.ck.mgr.observePause(time.Since(start))
	w.ck.mgr.submit(st)
}

// finalState marks the thread fully analyzed: only the aggregates matter.
func (w *worker[C]) finalState() *workerState {
	st := &workerState{
		threadIdx:       w.ck.threadIdx,
		id:              w.id,
		done:            true,
		events:          w.events,
		inducedThread:   w.k.InducedThread,
		inducedExternal: w.k.InducedExternal,
		acts:            make(map[guest.RoutineID]*core.Activations, len(w.acts)),
	}
	for id, a := range w.acts {
		st.acts[id] = a.Clone()
	}
	return st
}

// worker is the state of one per-thread analyzer.
type worker[C cell] struct {
	tr   *trace.Trace
	id   guest.ThreadID
	opts core.Options

	count    uint64        // local image of the global counter
	reads    []trace.Stamp // the thread's read stamps, in event order
	nextRead int           // cursor into reads

	ts    *shadow.Table[C] // the thread's latest-access shadow memory
	stack core.Stack[uint64]
	k     core.Kernel[uint64] // the read rule and the thread's induced tallies

	acts map[guest.RoutineID]*core.Activations

	// Checkpointing state (nil/zero when checkpointing is off): events is
	// the total processed event tally, resumed work included.
	ck     *workerCkpt
	events uint64
}

func (w *worker[C]) step(e *trace.Event) {
	switch e.Kind {
	case trace.KindCall:
		w.count++
		w.stack.Push(guest.RoutineID(e.Arg), w.count, e.Aux)

	case trace.KindReturn:
		if len(w.stack) == 0 {
			return
		}
		f := w.stack.Pop()
		if w.opts.CheckLevel != core.CheckOff {
			checkActivation(&f)
		}
		a := w.acts[f.Rtn]
		if a == nil {
			a = core.NewActivations(w.id)
			w.acts[f.Rtn] = a
		}
		f.RecordInto(a, e.Aux-f.BBEnter)

	case trace.KindRead, trace.KindKernelRead:
		var st trace.Stamp
		if !w.opts.RMSOnly {
			st = w.reads[w.nextRead]
			w.nextRead++
		}
		slot := w.ts.Slot(guest.Addr(e.Arg)) // one chunk probe for the load and the store
		if old := uint64(*slot); old != w.count {
			// A repeat read at the current counter value changes nothing
			// (see core.Kernel.Read).
			w.k.Read(w.stack, old, st.WTS, st.Writer)
			*slot = C(w.count)
		}

	case trace.KindWrite:
		w.ts.Set(guest.Addr(e.Arg), C(w.count))

	case trace.KindKernelWrite:
		if !w.opts.RMSOnly {
			w.count++
		}

	case trace.KindSwitch:
		// An explicitly recorded switch event (never produced by the
		// Recorder, but legal in hand-built traces) bumps the counter
		// like a synthesized one.
		w.count++

	case trace.KindThreadExit:
		// The inline profiler drops the thread's view on exit; further
		// events under the same id (again only in hand-built traces)
		// start from fresh shadow state.
		w.ts = shadow.NewTable[C]()
		w.stack = w.stack[:0]
	}
	// ThreadStart, Sync, Alloc, Free carry no profiling state.
}

// checkActivation enforces a completed activation's paper invariants
// (core.Frame.WellFormed) under Options.Profile.CheckLevel. The pipeline
// carries no violation collector, so a violation panics with an
// "invariant:" prefix; runWorker's panic recovery converts that into a clean
// per-thread error carrying thread and segment context.
func checkActivation(f *core.Frame[uint64]) {
	if !f.WellFormed() {
		panic(fmt.Sprintf("invariant: activation of routine %d violates trms/rms well-formedness: trms=%d rms=%d induced=%d+%d",
			f.Rtn, f.TRMS, f.RMS, f.InducedThread, f.InducedExternal))
	}
}

// profile folds the worker's per-routine aggregates into a single-thread
// core.Profile, resolving routine ids against the trace's name table in
// ascending id order (deterministic, and collision-safe: two ids mapping to
// the same name merge exactly as the inline profiler would have merged
// them).
func (w *worker[C]) profile() *core.Profile {
	out := core.NewProfile()
	out.InducedThread = w.k.InducedThread
	out.InducedExternal = w.k.InducedExternal
	ids := make([]guest.RoutineID, 0, len(w.acts))
	for id := range w.acts {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		out.AddActivations(w.tr.RoutineName(id), w.acts[id])
	}
	return out
}
