// Incremental analysis: a Profiler driven event by event from an unbounded
// stream, with window cuts (CutWindow) slicing mergeable PartialProfiles
// off as traffic arrives. Where Replay materializes one merged event slice
// and drives the profiler through it once, an Incremental accepts the
// merged order in arbitrarily sized pieces — whole window traces
// (FeedTrace) or single events (FeedEvent) — carrying the cross-piece
// state Replay keeps implicitly: the growable name tables, the clock, and
// the identity of the previously dispatched thread, from which it
// synthesizes the same switchThread events trace.Merge would insert. The
// continuous-profiling daemon (internal/daemon) is the primary client; the
// window-split metamorphic axis proves the equivalence to batch analysis.
package core

import (
	"fmt"

	"repro/internal/guest"
	"repro/internal/trace"
)

// incrementalEnv is the guest.Env of an incremental replay: name tables
// that grow as the stream introduces routines and syncs, and the current
// event's timestamp as the clock — exactly the contract trace.Dispatch
// documents.
type incrementalEnv struct {
	routines []string
	syncs    []string
	now      uint64
}

// RoutineName implements guest.Env.
func (e *incrementalEnv) RoutineName(r guest.RoutineID) string {
	if int(r) < len(e.routines) {
		return e.routines[r]
	}
	return fmt.Sprintf("routine#%d", int(r))
}

// SyncName implements guest.Env.
func (e *incrementalEnv) SyncName(s guest.SyncID) string {
	if int(s) < len(e.syncs) {
		return e.syncs[s]
	}
	return fmt.Sprintf("sync#%d", int(s))
}

// NumRoutines implements guest.Env.
func (e *incrementalEnv) NumRoutines() int { return len(e.routines) }

// NumSyncs implements guest.Env.
func (e *incrementalEnv) NumSyncs() int { return len(e.syncs) }

// Now implements guest.Env.
func (e *incrementalEnv) Now() uint64 { return e.now }

// Incremental analyzes an execution's merged event stream incrementally.
// Feed it events in globally increasing timestamp order — the order
// trace.Merge produces, which machine-recorded traces' globally unique
// timestamps make unambiguous — and Cut windows whenever a rolling profile
// update is wanted; merging the cuts (MergePartials) at any point yields
// exactly the batch profile of the stream so far. Not safe for concurrent
// use.
type Incremental struct {
	prof     *Profiler
	env      *incrementalEnv
	tools    []guest.Tool
	attached bool
	finished bool

	haveLast bool
	last     guest.ThreadID
	// batch is FeedRun's reused MemBatch buffer.
	batch []guest.MemEvent
}

// NewIncremental returns an incremental analyzer over a fresh Profiler
// with the given options.
func NewIncremental(opts Options) *Incremental {
	in := &Incremental{prof: New(opts), env: &incrementalEnv{}}
	in.tools = []guest.Tool{in.prof}
	return in
}

// Profiler returns the underlying profiler (for telemetry accessors such
// as Renumbers or shadow footprints). Driving it directly while feeding
// the Incremental corrupts the analysis.
func (in *Incremental) Profiler() *Profiler { return in.prof }

// ExtendTables grows the routine and sync name tables. Each argument must
// agree with the table accumulated so far on their common prefix — ids are
// meaningful only relative to the tables — and may extend it; a shorter
// argument (a re-sent prefix) is accepted unchanged. Streams deliver
// tables incrementally ('R'/'Y' blocks), window traces deliver them whole;
// both reduce to this prefix rule.
func (in *Incremental) ExtendTables(routines, syncs []string) error {
	var err error
	if in.env.routines, err = extendTable("routine", in.env.routines, routines); err != nil {
		return err
	}
	in.env.syncs, err = extendTable("sync", in.env.syncs, syncs)
	return err
}

func extendTable(what string, have, got []string) ([]string, error) {
	n := len(have)
	if len(got) < n {
		n = len(got)
	}
	for i := 0; i < n; i++ {
		if have[i] != got[i] {
			return nil, fmt.Errorf("core: incompatible %s tables: id %d is %q vs %q", what, i, have[i], got[i])
		}
	}
	if len(got) > len(have) {
		have = append(have, got[len(have):]...)
	}
	return have, nil
}

// FeedEvent dispatches one event of the merged stream to the profiler,
// synthesizing the switchThread event trace.Merge would insert when the
// thread changes between consecutive events. Events must arrive in the
// merged total order; windows produced by trace.SplitByTS and walked in
// sequence satisfy this by construction.
func (in *Incremental) FeedEvent(e trace.Event) error {
	return in.FeedRun([]trace.Event{e})
}

// FeedRun dispatches a run of the merged stream: consecutive events of one
// thread, all of them due before any other thread's next event. It feeds
// exactly what FeedEvent on each event would, with the attach, finish and
// thread-switch checks done once for the whole run instead of per event,
// and memory accesses in batches (trace.DispatchRun). A memory access at
// or above 1<<shadow.MaxAddrBits, or an alloc or free whose range does not
// fit below it, is an *trace.AddressError (Event is its index in run),
// reported after every event before it has been fed.
func (in *Incremental) FeedRun(run []trace.Event) error {
	if in.finished {
		return fmt.Errorf("core: FeedRun after Finish")
	}
	if len(run) == 0 {
		return nil
	}
	if !in.attached {
		for _, tl := range in.tools {
			tl.Attach(in.env)
		}
		in.attached = true
	}
	th := run[0].Thread
	if in.haveLast && in.last != th {
		sw := trace.Event{
			TS:     run[0].TS,
			Thread: in.last,
			Kind:   trace.KindSwitch,
			Arg:    uint64(uint32(th)),
		}
		in.env.now = sw.TS
		if err := trace.Dispatch(sw, in.tools); err != nil {
			return err
		}
	}
	in.last, in.haveLast = th, true
	return trace.DispatchRun(run, in.tools, &in.env.now, &in.batch)
}

// FeedTrace feeds one window trace: its name tables extend the accumulated
// ones (prefix-checked), then its events are walked in merged order and
// fed run by run. Feeding the windows of trace.SplitByTS in sequence
// replays exactly the full trace's merged stream.
func (in *Incremental) FeedTrace(tr *trace.Trace, tieSeed int64) error {
	if err := in.ExtendTables(tr.Routines, tr.Syncs); err != nil {
		return err
	}
	var ferr error
	trace.WalkRuns(tr, tieSeed, func(ti, lo, hi int) {
		if ferr == nil {
			ferr = in.FeedRun(tr.Threads[ti].Events[lo:hi])
		}
	})
	return ferr
}

// Cut slices the window accumulated since the last cut off as a
// PartialProfile (see Profiler.CutWindow); the stream continues seamlessly
// into the next window.
func (in *Incremental) Cut() *PartialProfile { return in.prof.CutWindow() }

// Finish signals the end of the stream, running the profiler's end-of-run
// bookkeeping (peak recording, deep checks, telemetry publication). It is
// idempotent; feed no further events afterwards. Finish does not cut — a
// final Cut collects whatever the last window holds.
func (in *Incremental) Finish() {
	if in.finished || !in.attached {
		in.finished = true
		return
	}
	in.finished = true
	for _, tl := range in.tools {
		tl.Finish()
	}
}
