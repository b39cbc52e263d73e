// Incremental analysis: a Profiler driven from an unbounded merged event
// stream, with window cuts (CutWindow) slicing mergeable PartialProfiles
// off as traffic arrives. An Incremental pairs a Profiler with a
// trace.Feeder, which accepts the merged order in arbitrarily sized pieces
// — whole window traces (FeedTrace), runs (FeedRun) or single events
// (FeedEvent) — and carries the cross-piece state: the growable name
// tables, the clock, and the previously fed thread, from which it
// synthesizes the switchThread events trace.Merge would insert. The
// continuous-profiling daemon (internal/daemon) is the primary client; the
// window-split metamorphic axis proves the equivalence to batch analysis.
package core

import (
	"repro/internal/trace"
)

// Incremental analyzes an execution's merged event stream incrementally.
// Feed it events in globally increasing timestamp order — the order
// trace.Merge produces, which machine-recorded traces' globally unique
// timestamps make unambiguous — and Cut windows whenever a rolling profile
// update is wanted; merging the cuts (MergePartials) at any point yields
// exactly the batch profile of the stream so far. Not safe for concurrent
// use.
type Incremental struct {
	prof *Profiler
	feed *trace.Feeder
}

// NewIncremental returns an incremental analyzer over a fresh Profiler
// with the given options.
func NewIncremental(opts Options) *Incremental {
	p := New(opts)
	return &Incremental{prof: p, feed: trace.NewFeeder(p)}
}

// Profiler returns the underlying profiler (for telemetry accessors such
// as Renumbers or shadow footprints). Driving it directly while feeding
// the Incremental corrupts the analysis.
func (in *Incremental) Profiler() *Profiler { return in.prof }

// ExtendTables grows the routine and sync name tables under the prefix
// rule of trace.Feeder.ExtendTables.
func (in *Incremental) ExtendTables(routines, syncs []string) error {
	return in.feed.ExtendTables(routines, syncs)
}

// FeedEvent feeds one event of the merged stream, as FeedRun of a run of
// one. Events must arrive in the merged total order; windows produced by
// trace.SplitByTS and walked in sequence satisfy this by construction.
func (in *Incremental) FeedEvent(e trace.Event) error {
	return in.feed.FeedRun([]trace.Event{e})
}

// FeedRun feeds a run of the merged stream: consecutive events of one
// thread, all of them due before any other thread's next event (see
// trace.Feeder.FeedRun). A memory access at or above
// 1<<shadow.MaxAddrBits, or an alloc or free whose range does not fit
// below it, is an *trace.AddressError (Event is its index in run),
// reported after every event before it has been fed.
func (in *Incremental) FeedRun(run []trace.Event) error { return in.feed.FeedRun(run) }

// FeedTrace feeds one window trace: its name tables extend the accumulated
// ones, then its events are fed run by run in merged order (see
// trace.Feeder.FeedTrace). Feeding the windows of trace.SplitByTS in
// sequence replays exactly the full trace's merged stream.
func (in *Incremental) FeedTrace(tr *trace.Trace, tieSeed int64) error {
	return in.feed.FeedTrace(tr, tieSeed)
}

// Cut slices the window accumulated since the last cut off as a
// PartialProfile (see Profiler.CutWindow); the stream continues seamlessly
// into the next window.
func (in *Incremental) Cut() *PartialProfile { return in.prof.CutWindow() }

// Finish signals the end of the stream, running the profiler's end-of-run
// bookkeeping (peak recording, deep checks, telemetry publication) if any
// event was fed. It is idempotent; feed no further events afterwards.
// Finish does not cut — a final Cut collects whatever the last window
// holds.
func (in *Incremental) Finish() { in.feed.Finish() }
