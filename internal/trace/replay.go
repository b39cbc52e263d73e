package trace

import (
	"errors"
	"fmt"
	"unsafe"

	"repro/internal/guest"
)

// Feeder drives tools through a trace's merged event stream, the order
// Merge produces, delivered in pieces: whole traces (FeedTrace) or runs of
// one thread (FeedRun). It carries what the stream needs across pieces:
// the name tables, which grow under the prefix rule (ExtendTables); the
// clock, the timestamp of the event being delivered; and the previously
// fed thread, from which it synthesizes the switchThread event Merge would
// insert when the thread changes. Each stretch of memory accesses goes out
// as one MemBatch, every other event through its own hook, so the tools
// see exactly what a live machine would show them. The Feeder is the
// tools' guest.Env. Replay, core.Incremental and aprofd's guest client
// all feed through it. Not safe for concurrent use.
type Feeder struct {
	tools []guest.Tool
	// names holds the name tables; it has no threads.
	names              Trace
	now                uint64
	attached, finished bool
	haveLast           bool
	last               guest.ThreadID
	// batch is the reused MemBatch buffer.
	batch []guest.MemEvent
}

// NewFeeder returns a Feeder with empty name tables that drives tools.
func NewFeeder(tools ...guest.Tool) *Feeder { return &Feeder{tools: tools} }

// RoutineName implements guest.Env.
func (f *Feeder) RoutineName(r guest.RoutineID) string { return f.names.RoutineName(r) }

// SyncName implements guest.Env.
func (f *Feeder) SyncName(s guest.SyncID) string { return f.names.SyncName(s) }

// NumRoutines implements guest.Env.
func (f *Feeder) NumRoutines() int { return len(f.names.Routines) }

// NumSyncs implements guest.Env.
func (f *Feeder) NumSyncs() int { return len(f.names.Syncs) }

// Now implements guest.Env: the timestamp of the event being delivered
// (of a batch, its last).
func (f *Feeder) Now() uint64 { return f.now }

// ExtendTables grows the routine and sync name tables. Each argument must
// agree with the table accumulated so far on their common prefix, since
// ids mean something only relative to the tables, and may extend it; a
// shorter argument (a re-sent prefix) is accepted unchanged. Streams
// deliver tables in pieces ('R'/'Y' blocks), window traces deliver them
// whole; both reduce to this prefix rule.
func (f *Feeder) ExtendTables(routines, syncs []string) error {
	var err error
	if f.names.Routines, err = extendTable("routine", f.names.Routines, routines); err != nil {
		return err
	}
	f.names.Syncs, err = extendTable("sync", f.names.Syncs, syncs)
	return err
}

// extendTable returns have extended by got's entries past it, or have and
// an error if the two disagree on their common prefix.
func extendTable(what string, have, got []string) ([]string, error) {
	n := min(len(have), len(got))
	if err := sameTable(what, have[:n], got[:n]); err != nil {
		return have, fmt.Errorf("trace: extending tables: %w", err)
	}
	return append(have, got[n:]...), nil
}

// Attach attaches the tools to the Feeder, if it has not yet. FeedRun does
// so before its first event; a caller that wants the tools attached to a
// stream that may hold no event calls Attach first.
func (f *Feeder) Attach() {
	if f.attached {
		return
	}
	f.attached = true
	for _, tl := range f.tools {
		tl.Attach(f)
	}
}

// FeedRun delivers a run of the merged stream: consecutive events of one
// thread, all of them due before any other thread's next event, preceded
// by a synthesized switchThread if the previous run was another thread's.
// Split into smaller runs, a run feeds the same events in smaller batches
// (guest.Tool's batch contract makes that invisible to tools). A memory
// access, alloc or free outside the analysed address space is an
// *AddressError (Event is its index in run), reported after every event
// before it has been delivered.
func (f *Feeder) FeedRun(run []Event) error {
	if f.finished {
		return fmt.Errorf("trace: FeedRun after Finish")
	}
	if len(run) == 0 {
		return nil
	}
	f.Attach()
	th := run[0].Thread
	if f.haveLast && f.last != th {
		f.now = run[0].TS
		dispatch(Event{TS: run[0].TS, Thread: f.last, Kind: KindSwitch, Arg: uint64(uint32(th))}, f.tools)
	}
	f.last, f.haveLast = th, true
	return f.dispatchRun(run)
}

// FeedTrace extends the name tables with tr's (prefix-checked), then feeds
// tr's events run by run in the merged order WalkRuns yields for tieSeed.
// Feeding the windows of SplitByTS in sequence feeds exactly the whole
// trace's merged stream. An *AddressError's Event is the event's index
// within its thread, as Annotate reports it.
func (f *Feeder) FeedTrace(tr *Trace, tieSeed int64) error {
	if err := f.ExtendTables(tr.Routines, tr.Syncs); err != nil {
		return err
	}
	var err error
	WalkRuns(tr, tieSeed, func(ti, lo, hi int) {
		if err != nil {
			return
		}
		if err = f.FeedRun(tr.Threads[ti].Events[lo:hi]); err != nil {
			var ae *AddressError // only on error: errors.As makes it escape
			if errors.As(err, &ae) {
				ae.Event += lo
			}
		}
	})
	return err
}

// Finish ends the stream: the tools' Finish hooks run once, if they were
// ever attached. It is idempotent, and no event may be fed afterwards.
func (f *Feeder) Finish() {
	if !f.finished && f.attached {
		for _, tl := range f.tools {
			tl.Finish()
		}
	}
	f.finished = true
}

// Replay drives the tools through the trace's merged event stream for the
// given tie-breaking seed exactly as a live machine would: Attach, the
// events in merged order (with synthesized switchThread events), then
// Finish, also for a trace without events. Profiles computed online and by
// replay are identical; the tests assert this. A memory access, alloc or
// free outside the analysed address space stops the replay with an
// *AddressError whose Event is the event's index within its thread.
func Replay(tr *Trace, tieSeed int64, tools ...guest.Tool) error {
	f := NewFeeder(tools...)
	f.Attach()
	if err := f.FeedTrace(tr, tieSeed); err != nil {
		return err
	}
	f.Finish()
	return nil
}

// dispatchRun delivers evs, consecutive events of the merged stream: each
// stretch of memory accesses that packRun packs goes out as one MemBatch,
// every other event through its own hook. Before each delivery f.now is
// set to the timestamp of the event (of a batch, its last). A memory
// access, alloc or free outside the analysed address space stops it with
// an *AddressError (Event is its index in evs), after every event before
// it has been delivered.
func (f *Feeder) dispatchRun(evs []Event) error {
	for i := 0; i < len(evs); {
		if err := evs[i].checkAddr(i); err != nil {
			return err
		}
		if !evs[i].Kind.IsMemory() {
			f.now = evs[i].TS
			if err := dispatch(evs[i], f.tools); err != nil {
				return err
			}
			i++
			continue
		}
		b, n := packRun(f.batch[:0], evs[i:])
		f.now = evs[i+n-1].TS
		for _, tl := range f.tools {
			tl.MemBatch(evs[i].Thread, evs[i].TS, b)
		}
		f.batch = b
		i += n
	}
	return nil
}

// packRun packs the memory accesses at the head of evs, whose first event
// is one, into dst and returns the batch and the number of events packed.
// It stops at the first event that is not a memory access, belongs to
// another thread, lies outside the analysed address space, or whose
// timestamp does not follow its predecessor's: a MemBatch's i-th event is
// at startTS+i, and hand-built traces have gaps.
func packRun(dst []guest.MemEvent, evs []Event) ([]guest.MemEvent, int) {
	th, ts := evs[0].Thread, evs[0].TS
	n := 0
	for ; n < len(evs); n++ {
		e := &evs[n]
		if !e.Kind.IsMemory() || e.Thread != th || e.TS != ts+uint64(n) || e.Arg >= addrLimit {
			break
		}
		dst = append(dst, guest.MemEvent(e.Arg)|memFlags[e.Kind-KindRead])
	}
	return dst, n
}

// memFlags packs a memory access kind, indexed from KindRead, into the
// flag bits of a guest.MemEvent.
var memFlags = [...]guest.MemEvent{
	KindRead - KindRead:        guest.ReadEvent(0),
	KindWrite - KindRead:       guest.WriteEvent(0),
	KindKernelRead - KindRead:  guest.KernelReadEvent(0),
	KindKernelWrite - KindRead: guest.KernelWriteEvent(0),
}

// memKind is the Kind of a packed memory access.
func memKind(e guest.MemEvent) Kind {
	switch {
	case e.IsKernel() && e.IsWrite():
		return KindKernelWrite
	case e.IsKernel():
		return KindKernelRead
	case e.IsWrite():
		return KindWrite
	}
	return KindRead
}

// Dispatch delivers one already-merged event to the tools through the
// guest.Tool hook it encodes, a memory access as a one-event MemBatch. It
// is the per-event reference that the tests and benchmarks hold the
// Feeder to: its callers stream a trace one event at a time and must keep
// their guest.Env's clock at e.TS while dispatching, as the Feeder does. A
// memory access outside the analysed address space is refused with an
// *AddressError (Event 0) before it reaches the tools. Delivering an event
// does not allocate, and Dispatch is safe for concurrent use on disjoint
// tools. The batch lives in Dispatch's stack frame: a tool that breaks
// guest.Tool's batch contract reads a frame that has since been reused
// (TestDispatchMatchesReplay in internal/tools checks the tools in this
// repository).
func Dispatch(e Event, tools []guest.Tool) error {
	if !e.Kind.IsMemory() {
		return dispatch(e, tools)
	}
	if e.Arg >= addrLimit {
		return addressError(0, e.Kind, e.Arg)
	}
	var buf [1]guest.MemEvent
	b := stackBatch(&buf)
	b[0] = guest.MemEvent(e.Arg) | memFlags[e.Kind-KindRead]
	for _, tl := range tools {
		tl.MemBatch(e.Thread, e.TS, b)
	}
	return nil
}

// stackBatch returns buf as a batch without escape analysis seeing the
// flow, so buf stays in its caller's stack frame. Handed to an interface
// method the normal way, buf would move to the heap: one allocation per
// event, in the loop that streams a guest event by event. A sync.Pool
// instead costs about 15 ns per event, a third of that loop. This is
// sound because guest.Tool.MemBatch may neither retain its batch past the
// call nor hand it to another goroutine.
func stackBatch(buf *[1]guest.MemEvent) []guest.MemEvent {
	var p *[1]guest.MemEvent
	*(*uintptr)(unsafe.Pointer(&p)) = uintptr(unsafe.Pointer(buf))
	return p[:]
}

// checkAddr returns an *AddressError, with index i, if e is a memory
// access, alloc or free outside the analysed address space.
func (e *Event) checkAddr(i int) error {
	if outside(e.Kind, e.Arg, e.Aux) {
		return addressError(i, e.Kind, e.Arg)
	}
	return nil
}

// dispatch delivers a non-memory event.
func dispatch(e Event, tools []guest.Tool) error {
	switch e.Kind {
	case KindCall:
		for _, tl := range tools {
			tl.Call(e.Thread, guest.RoutineID(e.Arg), e.Aux)
		}
	case KindReturn:
		for _, tl := range tools {
			tl.Return(e.Thread, guest.RoutineID(e.Arg), e.Aux)
		}
	case KindThreadStart:
		parent := guest.ThreadID(int32(uint32(e.Arg)))
		for _, tl := range tools {
			tl.ThreadStart(e.Thread, parent)
		}
	case KindThreadExit:
		for _, tl := range tools {
			tl.ThreadExit(e.Thread)
		}
	case KindSyncAcquire:
		for _, tl := range tools {
			tl.Sync(e.Thread, guest.SyncAcquire, guest.SyncID(e.Arg))
		}
	case KindSyncRelease:
		for _, tl := range tools {
			tl.Sync(e.Thread, guest.SyncRelease, guest.SyncID(e.Arg))
		}
	case KindAlloc:
		for _, tl := range tools {
			tl.Alloc(e.Thread, guest.Addr(e.Arg), int(e.Aux))
		}
	case KindFree:
		for _, tl := range tools {
			tl.Free(e.Thread, guest.Addr(e.Arg), int(e.Aux))
		}
	case KindSwitch:
		to := guest.ThreadID(int32(uint32(e.Arg)))
		for _, tl := range tools {
			tl.SwitchThread(e.Thread, to)
		}
	default:
		return fmt.Errorf("trace: cannot replay event kind %d", e.Kind)
	}
	return nil
}
