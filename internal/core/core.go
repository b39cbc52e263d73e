// Package core implements the paper's primary contribution: input-sensitive
// profiling of multithreaded programs. For every routine activation it
// computes
//
//   - the read memory size (rms) of Coppa, Demetrescu, Finocchi (PLDI 2012):
//     the number of distinct memory cells first accessed by the activation,
//     or by its completed descendants, with a read operation; and
//   - the threaded read memory size (trms) of the multithreaded extension:
//     the number of read operations that are first-accesses or *induced*
//     first-accesses, where an induced first-access reads a value written by
//     another thread (thread-induced input) or loaded by the kernel from an
//     external device (external input) since the activation's subtree last
//     touched the cell.
//
// The implementation follows the paper's read/write timestamping algorithm
// (Fig. 11): a global counter incremented at routine calls, thread switches
// and kernel writes; a global shadow memory wts holding the timestamp and
// provenance of each cell's latest write; per-thread shadow memories ts_t
// holding each thread's latest access; and per-thread shadow stacks holding
// partial trms/rms values maintained under the invariant that an
// activation's metric equals the sum of the partial values from its frame to
// the top of the stack. Induced first-accesses are recognized in O(1) by the
// comparison ts_t[l] < wts[l]; plain first-accesses use the PLDI 2012
// latest-access rule with an O(log depth) ancestor adjustment. Counter
// overflow is handled by the paper's global renumbering pass (Fig. 13).
package core

import (
	"math"
	"sync/atomic"

	"repro/internal/guest"
	"repro/internal/shadow"
	"repro/internal/telemetry"
)

// Options configures a Profiler. The zero value enables everything: trms
// with both thread-induced and external input, plus a parallel rms profile.
type Options struct {
	// DisableThreadInduced ignores writes by other guest threads, so reads
	// of thread-shared data are not induced first-accesses (Fig. 7b's
	// "external input only" configuration).
	DisableThreadInduced bool

	// DisableExternal ignores kernel writes, so data loaded from external
	// devices is not induced input.
	DisableExternal bool

	// RenumberThreshold makes the global counter renumber timestamps when
	// it reaches this value. Zero selects the 32-bit overflow margin;
	// tests use small values to exercise renumbering.
	RenumberThreshold uint32

	// ContextSensitive additionally keys profiles by calling context,
	// building a calling context tree (see ContextTree) alongside the flat
	// per-routine profile. Costs a CCT-node map lookup per call.
	ContextSensitive bool

	// RMSOnly reproduces the original PLDI 2012 profiler (aprof-rms): no
	// global write-timestamp shadow is maintained at all, so no induced
	// first-accesses are ever recognized and trms degenerates to rms.
	// Unlike setting both Disable flags, this also removes the global
	// shadow's time and space costs, which is what the paper's Table 1
	// compares aprof-trms against.
	RMSOnly bool

	// CheckLevel enables the paper-derived invariant checks (see the
	// CheckLevel constants). CheckCheap validates every completed
	// activation's metrics and the activation-timestamp order; CheckDeep
	// additionally verifies renumbering passes preserve the Fig. 13 order
	// relations and scans the shadow memories at Finish. Violations are
	// collected (Violations) or streamed (OnViolation); they never abort
	// the analysis.
	CheckLevel CheckLevel

	// OnViolation, when non-nil, receives each invariant violation as it
	// is detected instead of it being collected for Violations. Delivery
	// stops after maxRecordedViolations; ViolationCount keeps counting.
	OnViolation func(Violation)

	// Telemetry, when non-nil, receives the profiler's self-metrics
	// (core/* counters: events consumed, renumbering passes, induced
	// first-accesses, routine-table and context-tree sizes, peak shadow
	// bytes) when Finish runs. The profiler tallies into plain locals and
	// publishes once, so the per-event hot paths carry no atomic traffic;
	// nil disables publication.
	Telemetry *telemetry.Registry

	// OnSnapshot receives each live snapshot (see LiveSnapshot), requested
	// on demand with Profiler.RequestSnapshot. The callback runs on the
	// profiler's goroutine with the profiler paused; its duration is not
	// counted in the snapshot's Pause, but a slow callback still stalls
	// the run, so heavy work (file writes) should be quick or handed off.
	OnSnapshot func(*LiveSnapshot)
}

// defaultRenumberThreshold leaves headroom below the 32-bit limit so a
// renumbering pass can never be outrun by the +1 bumps between checks.
const defaultRenumberThreshold = math.MaxUint32 - 8

// kernelWriter marks a cell whose latest write was performed by the kernel
// on behalf of a thread (external input).
const kernelWriter = math.MaxUint32

// Profiler computes input-sensitive profiles. It implements guest.Tool, so
// it can be attached to a live machine or driven by a trace replayer; both
// feed it batches of memory events and produce identical profiles.
//
// The hot path is specialized for per-event cost: the current thread's view
// is cached across events (invalidated at thread switches and exits), the
// flat profile is keyed by dense guest.RoutineID slices with names resolved
// only when the profile is materialized, each read probes the thread's shadow
// memory once for both its load and its store, and the O(log depth) ancestor
// search is shared between the trms and rms computations.
type Profiler struct {
	opts      Options
	threshold uint32

	env guest.Env

	count uint32
	// global holds, for every memory cell, the packed timestamp (high 32
	// bits) and writer provenance (low 32 bits: 0 none, thread id + 1, or
	// kernelWriter) of the latest write by any thread or by the kernel.
	// gcur is its persistent cursor: the hot paths resolve global shadow
	// cells through it, so runs of nearby addresses skip the chunk
	// directory.
	global *shadow.Table[uint64]
	gcur   shadow.Cursor[uint64]

	threads map[guest.ThreadID]*threadView
	// cur caches the most recently active thread's view: events arrive in
	// scheduler-timeslice runs, so almost every lookup hits the cache
	// instead of the threads map.
	cur *threadView
	// retired holds the views of exited threads: their shadow memories are
	// released but their per-routine aggregates feed the final profile.
	retired []*threadView

	// k applies the read rule (kernel.go) and holds the execution-global
	// induced first-access counters (Profile.InducedThread/InducedExternal).
	k Kernel[uint32]

	ctxTree   *ContextTree // non-nil when Options.ContextSensitive
	renumbers uint64
	peakBytes uint64

	// checks mirrors Options.CheckLevel (one branch on the call/return
	// paths); violations and violCount collect what the checks find.
	checks     CheckLevel
	violations []Violation
	violCount  uint64
	// events tallies every event the profiler consumed (plain counter,
	// published to Options.Telemetry at Finish; batches count len(events)
	// in one add, keeping the tally off the per-event path).
	events uint64

	// windows counts the CutWindow slices taken so far, and windowStart is
	// the event tally at the last cut (see window.go).
	windows     int
	windowStart uint64

	// snapReq is set by RequestSnapshot — possibly from another goroutine —
	// and honored at the next batch boundary. See snapshot.go.
	snapReq atomic.Bool
}

// threadView is the per-thread profiling state: the thread's shadow memory
// of latest-access timestamps, its shadow run-time stack, and its routine
// aggregates keyed by dense routine id (no string touches the hot path; the
// interned names are resolved when the profile is materialized).
type threadView struct {
	id    guest.ThreadID
	ts    *shadow.Table[uint32]
	tsc   shadow.Cursor[uint32] // persistent cursor over ts
	stack Stack[uint32]
	acts  []*Activations // indexed by guest.RoutineID; nil until first return
	ctx   *ContextNode   // current calling context (Options.ContextSensitive)
}

// activations returns the view's dense aggregate for routine rtn, creating
// it on first use.
func (tv *threadView) activations(rtn guest.RoutineID) *Activations {
	for len(tv.acts) <= int(rtn) {
		tv.acts = append(tv.acts, nil)
	}
	a := tv.acts[rtn]
	if a == nil {
		a = newActivations(tv.id)
		tv.acts[rtn] = a
	}
	return a
}

// New returns a Profiler with the given options.
func New(opts Options) *Profiler {
	threshold := opts.RenumberThreshold
	if threshold == 0 {
		threshold = defaultRenumberThreshold
	}
	p := &Profiler{
		opts:      opts,
		threshold: threshold,
		checks:    opts.CheckLevel,
		global:    shadow.NewTable[uint64](),
		threads:   make(map[guest.ThreadID]*threadView),
		k:         NewKernel[uint32](opts),
	}
	p.gcur = p.global.Cursor()
	if opts.ContextSensitive {
		p.ctxTree = newContextTree()
	}
	return p
}

// ContextTree returns the calling context tree, or nil unless the profiler
// was created with Options.ContextSensitive.
func (p *Profiler) ContextTree() *ContextTree { return p.ctxTree }

// Profile materializes the collected profile: the dense per-thread routine
// aggregates are resolved to routine names (the only point where the profiler
// touches strings) and deep-copied, so the returned Profile is detached from
// the profiler and safe to keep across further events. It is complete once
// the run (or replay) has finished.
func (p *Profiler) Profile() *Profile {
	out := newProfile()
	out.InducedThread = p.k.InducedThread
	out.InducedExternal = p.k.InducedExternal
	for _, tv := range p.retired {
		p.foldView(out, tv)
	}
	for _, tv := range p.threads {
		p.foldView(out, tv)
	}
	return out
}

// foldView folds one thread view's dense aggregates into a materializing
// profile. Aggregates are cloned: AddActivations adopts its argument, and the
// profiler keeps recording into its own copies.
func (p *Profiler) foldView(out *Profile, tv *threadView) {
	for rtn, a := range tv.acts {
		if a == nil {
			continue
		}
		out.AddActivations(p.env.RoutineName(guest.RoutineID(rtn)), a.Clone())
	}
}

// Renumbers reports how many timestamp-renumbering passes ran.
func (p *Profiler) Renumbers() uint64 { return p.renumbers }

// GlobalShadowBytes reports the footprint of the global write-timestamp
// shadow memory.
func (p *Profiler) GlobalShadowBytes() uint64 { return p.global.FootprintBytes() }

// ThreadShadowBytes reports the cumulative footprint of all live per-thread
// shadow memories.
func (p *Profiler) ThreadShadowBytes() uint64 {
	var total uint64
	for _, tv := range p.threads {
		total += tv.ts.FootprintBytes()
	}
	return total
}

// view returns thread t's view, consulting the single-entry cache first:
// events arrive in scheduler-timeslice runs, so the common case is one
// id comparison instead of a map lookup.
func (p *Profiler) view(t guest.ThreadID) *threadView {
	if tv := p.cur; tv != nil && tv.id == t {
		return tv
	}
	tv := p.threads[t]
	if tv == nil {
		tv = &threadView{id: t, ts: shadow.NewTable[uint32]()}
		tv.tsc = tv.ts.Cursor()
		p.threads[t] = tv
	}
	p.cur = tv
	return tv
}

// bump advances the global counter, renumbering all timestamps first if the
// counter is about to overflow its 32-bit space.
func (p *Profiler) bump() uint32 {
	if p.count >= p.threshold {
		p.renumber()
	}
	p.count++
	return p.count
}

// Attach implements guest.Tool.
func (p *Profiler) Attach(env guest.Env) { p.env = env }

// ThreadStart implements guest.Tool.
func (p *Profiler) ThreadStart(t, parent guest.ThreadID) {
	p.events++
	p.pollSnapshot()
	p.view(t)
}

// ThreadExit implements guest.Tool. The thread's shadow memory is released;
// its routine aggregates are retired and feed the final profile.
func (p *Profiler) ThreadExit(t guest.ThreadID) {
	p.events++
	p.recordPeak()
	tv := p.threads[t]
	if tv == nil {
		return
	}
	delete(p.threads, t)
	if p.cur == tv {
		// Drop the view cache: hand-built event streams may reuse
		// the thread id, which must get a fresh view.
		p.cur = nil
	}
	tv.ts.Release()
	tv.ts = nil
	tv.tsc = shadow.Cursor[uint32]{}
	tv.stack = nil
	tv.ctx = nil
	if len(tv.acts) > 0 {
		p.retired = append(p.retired, tv)
	}
}

// SwitchThread implements guest.Tool: thread switches advance the global
// counter so that a write by one thread and a subsequent read by another are
// always separated in timestamp order.
func (p *Profiler) SwitchThread(from, to guest.ThreadID) {
	p.events++
	p.pollSnapshot()
	p.bump()
}

// Call implements guest.Tool.
func (p *Profiler) Call(t guest.ThreadID, r guest.RoutineID, bb uint64) {
	p.events++
	ts := p.bump()
	tv := p.view(t)
	tv.stack.Push(r, ts, bb)
	if p.checks != CheckOff {
		p.checkCall(tv)
	}
	if p.ctxTree != nil {
		n := tv.ctx
		if n == nil {
			n = p.ctxTree.root
		}
		tv.ctx = p.ctxTree.childID(n, r, p.env)
	}
}

// Return implements guest.Tool: the completed activation's trms, rms and
// cumulative cost are recorded, and its partial metrics fold into the
// parent's frame (Stack.Pop), preserving Invariant 2. Recording is a dense
// slice index per routine id; no routine name is resolved here.
func (p *Profiler) Return(t guest.ThreadID, r guest.RoutineID, bb uint64) {
	p.events++
	tv := p.view(t)
	if len(tv.stack) == 0 {
		return
	}
	f := tv.stack.Pop()
	if p.checks != CheckOff {
		p.checkReturn(tv, &f)
	}

	cost := bb - f.BBEnter
	f.RecordInto(tv.activations(f.Rtn), cost)
	if p.ctxTree != nil {
		if c := tv.ctx; c != nil && c != p.ctxTree.root {
			c.record(t, &f, cost)
			tv.ctx = c.parent
		}
	}
}

// MemBatch implements guest.Tool. It is the algorithm of Fig. 11,
// extended with the parallel rms computation and the induced-input
// provenance split, over a whole batch of memory events:
//   - a read probes the thread's shadow slot once for both the load of the
//     old timestamp and the store of the new one, and only reads that
//     change state reach the kernel;
//   - a write moves both the thread-local and the global write timestamps
//     to the current counter value, so the thread's own later reads never
//     appear induced (ts_t[l] == wts[l]);
//   - a kernel read counts as a read by the thread, as if the system call
//     were a normal subroutine (Fig. 12);
//   - a kernel write gives the cell a fresh global write timestamp larger
//     than every thread-local one, so a subsequent read of it, and only an
//     actual read, registers as external input (Fig. 12).
//
// Batches contain only memory accesses (every event that could grow or
// shrink the shadow stack or change the running thread is a flush point),
// so the thread view, its stack and the option flags are batch invariants,
// hoisted out of the loop. The global counter is almost invariant too:
// only a kernel write moves it, and the loop reloads the counter-derived
// locals at exactly that point. Under RMSOnly the global shadow is never
// touched: reads pass wts = 0 to the kernel, which leaves the rms rules,
// and kernel writes are no-ops.
func (p *Profiler) MemBatch(t guest.ThreadID, startTS uint64, events []guest.MemEvent) {
	// Poll before counting the batch: a snapshot taken here reports the
	// pre-batch event tally, matching the profile state it exports.
	p.pollSnapshot()
	p.events += uint64(len(events))
	tv := p.view(t)
	cnt := p.count
	// Persistent shadow cursors: guest access patterns are overwhelmingly
	// sequential and batches are short, so keeping the cursors across
	// batches lets nearly every event hit a cached chunk and skip the
	// shadow table's chunk directory.
	tsc := &tv.tsc
	gc := &p.gcur
	rmsOnly := p.opts.RMSOnly
	prov := uint64(cnt)<<32 | uint64(uint32(t)+1) // constant between kernel writes

	for _, e := range events {
		a := e.Addr()
		if e.IsWrite() {
			if e.IsKernel() {
				if rmsOnly {
					continue
				}
				// Kernel write: bump the counter (renumbering first if
				// it is about to overflow; renumbering rewrites frame
				// timestamps in place, which the kernel reads from the
				// stack) and stamp the cell with the fresh timestamp
				// and kernel provenance. The thread's own shadow is
				// untouched.
				if cnt >= p.threshold {
					p.renumber()
					cnt = p.count
				}
				cnt++
				p.count = cnt
				gc.Chunk(a)[a&(shadow.ChunkSize-1)] = uint64(cnt)<<32 | uint64(kernelWriter)
				prov = uint64(cnt)<<32 | uint64(uint32(t)+1)
				continue
			}
			tsc.Chunk(a)[a&(shadow.ChunkSize-1)] = cnt
			if !rmsOnly {
				gc.Chunk(a)[a&(shadow.ChunkSize-1)] = prov
			}
			continue
		}
		ch := tsc.Chunk(a)
		old := ch[a&(shadow.ChunkSize-1)]
		if old == cnt {
			// The thread already accessed the cell at the current
			// counter value (a repeat access within the current
			// timeslice): the read cannot be a first access (old != 0
			// whenever frames exist, since frame timestamps are
			// positive), cannot fall under an ancestor (old >= top.TS
			// because top.TS <= count), and cannot be induced (wts <=
			// count = old). Nothing changes.
			continue
		}
		var g uint64
		if !rmsOnly {
			g = gc.Peek(a)
		}
		p.k.Read(tv.stack, old, uint32(g>>32), uint32(g))
		ch[a&(shadow.ChunkSize-1)] = cnt
	}
}

// Sync implements guest.Tool (no-op: synchronization carries no input).
func (p *Profiler) Sync(guest.ThreadID, guest.SyncKind, guest.SyncID) {}

// Alloc implements guest.Tool (no-op).
func (p *Profiler) Alloc(guest.ThreadID, guest.Addr, int) {}

// Free implements guest.Tool (no-op).
func (p *Profiler) Free(guest.ThreadID, guest.Addr, int) {}

// Finish implements guest.Tool.
func (p *Profiler) Finish() {
	p.recordPeak()
	if p.checks == CheckDeep {
		p.checkFinish()
	}
	p.publishTelemetry()
}

// publishTelemetry pushes the end-of-run tallies into Options.Telemetry.
// Size metrics use SetMax so concurrent profilers sharing a registry (the
// pipeline's per-thread workers) report high-water marks, while counters
// accumulate across them.
func (p *Profiler) publishTelemetry() {
	reg := p.opts.Telemetry
	if reg == nil {
		return
	}
	reg.Counter("core/events_consumed").Add(p.events)
	reg.Counter("core/renumbers").Add(p.renumbers)
	reg.Counter("core/induced_thread").Add(p.k.InducedThread)
	reg.Counter("core/induced_external").Add(p.k.InducedExternal)
	if p.env != nil {
		reg.Gauge("core/routine_table").SetMax(int64(p.env.NumRoutines()))
	}
	if p.ctxTree != nil {
		reg.Gauge("core/context_tree_nodes").SetMax(int64(p.ctxTree.NumContexts()))
	}
	reg.Gauge("core/shadow_peak_bytes").SetMax(int64(p.peakBytes))
	if p.checks != CheckOff {
		reg.Counter("core/invariant_violations").Add(p.violCount)
	}
}

func (p *Profiler) recordPeak() {
	if b := p.GlobalShadowBytes() + p.ThreadShadowBytes(); b > p.peakBytes {
		p.peakBytes = b
	}
}

// PeakShadowBytes reports the largest combined footprint of the global and
// per-thread shadow memories observed during the run, the quantity behind
// the paper's space-overhead comparison (Table 1, Fig. 14).
func (p *Profiler) PeakShadowBytes() uint64 {
	p.recordPeak()
	return p.peakBytes
}
