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

// workerSnap is one worker's snapshot context: the shared manager, this
// worker's thread index and the last snapshot generation it saw.
type workerSnap struct {
	mgr       *snapManager
	threadIdx int
	gen       uint64
}

// workerPanicHook, when non-nil, is invoked at the start of every
// per-thread analysis; the robustness tests use it to inject worker panics.
var workerPanicHook func(guest.ThreadID)

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
// the results are identical. The thread's shadow cells hold the same 64-bit
// counter values.
//
// A panic anywhere in the analysis — e.g. inconsistent plan state from a
// corrupted trace — is converted into an error carrying the thread and the
// segment being processed, so one bad thread cannot crash the whole
// pipeline run. A memory access outside the analysed address space is an
// *trace.AddressError, returned before the access reaches shadow memory.
// ctx is polled once per segment.
// onSegment, when non-nil, is invoked after each completed segment with its
// event count — the grain of the pipeline's progress reporting.
//
// snap, when non-nil, enables live snapshots: the worker crosses a
// safepoint every safepointStride events, where it captures its state when
// the manager asked for one, and it captures once more if ctx fires.
func analyzeThread(ctx context.Context, tr *trace.Trace, tp *threadPlan, opts core.Options, onSegment func(int), snap *workerSnap) (prof *core.Profile, err error) {
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
	w := &worker{
		tr:    tr,
		id:    tp.id,
		opts:  opts,
		reads: tp.reads,
		ts:    shadow.NewTable[uint64](),
		k:     core.NewKernel[uint64](opts),
		acts:  make(map[guest.RoutineID]*core.Activations),
	}
	w.tsc = w.ts.Cursor()
	for i, seg := range tp.segments {
		segIdx = i
		events := tr.Threads[seg.src].Events[seg.lo:seg.hi]
		w.count = seg.startCount
		off := 0
		for {
			if err := ctx.Err(); err != nil {
				if snap != nil {
					w.capture(snap)
				}
				return nil, err
			}
			if off >= len(events) {
				break
			}
			end := len(events)
			if snap != nil && off+safepointStride < end {
				end = off + safepointStride
			}
			for j := off; j < end; j++ {
				if e := &events[j]; !w.step(e) {
					return nil, &trace.AddressError{Event: seg.lo + j, Kind: e.Kind, Addr: e.Arg}
				}
			}
			w.events += uint64(end - off)
			off = end
			if snap != nil {
				if g := snap.mgr.gen.Load(); g != snap.gen {
					snap.gen = g
					w.capture(snap)
				}
			}
		}
		if onSegment != nil {
			onSegment(len(events))
		}
	}
	if snap != nil {
		snap.mgr.submit(w.state(snap))
	}
	return w.profile(), nil
}

// capture is the worker's snapshot pause: it clones the state a snapshot
// document reads and hands it to the manager.
func (w *worker) capture(snap *workerSnap) {
	start := time.Now()
	st := w.state(snap)
	snap.mgr.observePause(time.Since(start))
	snap.mgr.submit(st)
}

// state clones the worker's contribution to a snapshot document.
func (w *worker) state(snap *workerSnap) *threadState {
	st := &threadState{
		threadIdx:       snap.threadIdx,
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
type worker struct {
	tr   *trace.Trace
	id   guest.ThreadID
	opts core.Options

	count    uint64        // local image of the global counter
	reads    []trace.Stamp // the thread's read stamps, in event order
	nextRead int           // cursor into reads

	ts    *shadow.Table[uint64] // the thread's latest-access shadow memory
	tsc   shadow.Cursor[uint64] // persistent cursor over ts
	stack core.Stack[uint64]
	k     core.Kernel[uint64] // the read rule and the thread's induced tallies

	acts map[guest.RoutineID]*core.Activations

	events uint64 // processed events, reported in snapshots
}

// step applies one event to the worker's state. It returns false for a
// memory access outside the analysed address space, before the access
// touches shadow memory: a decoded trace never holds one, but planning
// from the annotations of a hand-built trace skips trace.Annotate's check.
func (w *worker) step(e *trace.Event) bool {
	switch e.Kind {
	case trace.KindCall:
		w.count++
		w.stack.Push(guest.RoutineID(e.Arg), w.count, e.Aux)

	case trace.KindReturn:
		if len(w.stack) == 0 {
			return true
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
		if !inRange(e.Arg) {
			return false
		}
		var st trace.Stamp
		if !w.opts.RMSOnly {
			st = w.reads[w.nextRead]
			w.nextRead++
		}
		a := guest.Addr(e.Arg)
		slot := &w.tsc.Chunk(a)[a&(shadow.ChunkSize-1)] // one chunk probe for the load and the store
		if old := *slot; old != w.count {
			// A repeat read at the current counter value changes nothing
			// (see core.Kernel.Read).
			w.k.Read(w.stack, old, st.WTS, st.Writer)
			*slot = w.count
		}

	case trace.KindWrite:
		if !inRange(e.Arg) {
			return false
		}
		a := guest.Addr(e.Arg)
		w.tsc.Chunk(a)[a&(shadow.ChunkSize-1)] = w.count

	case trace.KindKernelWrite:
		if !inRange(e.Arg) {
			return false
		}
		if !w.opts.RMSOnly {
			w.count++
		}

	case trace.KindSwitch:
		// An explicitly recorded switch event (never produced by the
		// recorders, but legal in hand-built traces) bumps the counter
		// like a synthesized one.
		w.count++

	case trace.KindThreadExit:
		// The thread's shadow memory is released, as the inline profiler
		// releases an exiting thread's view; further events under the same
		// id (again only in hand-built traces) start from fresh shadow
		// state, through a fresh cursor: the old one may still point at a
		// recycled chunk.
		w.ts.Release()
		w.tsc = w.ts.Cursor()
		w.stack = w.stack[:0]
	}
	// ThreadStart, Sync, Alloc, Free carry no profiling state.
	return true
}

// inRange reports whether a lies inside the analysed address space.
func inRange(a uint64) bool { return a>>shadow.MaxAddrBits == 0 }

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
func (w *worker) profile() *core.Profile {
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
