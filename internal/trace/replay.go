package trace

import (
	"fmt"
	"unsafe"

	"repro/internal/guest"
)

// replayEnv implements guest.Env on top of a recorded trace, with the
// current event's timestamp as the clock.
type replayEnv struct {
	tr  *Trace
	now uint64
}

func (e *replayEnv) RoutineName(r guest.RoutineID) string { return e.tr.RoutineName(r) }
func (e *replayEnv) SyncName(s guest.SyncID) string       { return e.tr.SyncName(s) }
func (e *replayEnv) NumRoutines() int                     { return len(e.tr.Routines) }
func (e *replayEnv) NumSyncs() int                        { return len(e.tr.Syncs) }
func (e *replayEnv) Now() uint64                          { return e.now }

// Replay merges the trace with the given tie-breaking seed and drives the
// tools through the resulting event stream exactly as a live machine would:
// Attach, the merged events (including synthesized switchThread events),
// then Finish. Profiles computed online and by replay are identical; the
// tests assert this. A memory access, alloc or free outside the analysed
// address space stops the replay with an *AddressError.
func Replay(tr *Trace, tieSeed int64, tools ...guest.Tool) error {
	merged := Merge(tr, tieSeed)
	return ReplayMerged(tr, merged, tools...)
}

// ReplayMerged drives tools from an already-merged event stream. A memory
// access, alloc or free outside the analysed address space stops it with an
// *AddressError, before that event reaches the tools.
func ReplayMerged(tr *Trace, merged []Event, tools ...guest.Tool) error {
	env := &replayEnv{tr: tr}
	for _, tl := range tools {
		tl.Attach(env)
	}
	var batch []guest.MemEvent
	if err := DispatchRun(merged, tools, &env.now, &batch); err != nil {
		return err
	}
	for _, tl := range tools {
		tl.Finish()
	}
	return nil
}

// DispatchRun delivers evs, a stretch of the merged event stream, to the
// tools exactly as ReplayMerged would: each stretch of memory accesses
// that packRun packs goes out as one MemBatch, every other event through
// its own hook. Before each delivery *now is set to the timestamp of the
// event (of a batch, its last), the clock the tools' guest.Env must
// report. batch is a reused buffer. A memory access, alloc or free
// outside the analysed address space stops it with an *AddressError (Event
// is its index in evs), after every event before it has been delivered.
// It drives incremental replayers (core.Incremental) that receive the
// merged stream in pieces.
func DispatchRun(evs []Event, tools []guest.Tool, now *uint64, batch *[]guest.MemEvent) error {
	for i := 0; i < len(evs); {
		if err := evs[i].checkAddr(i); err != nil {
			return err
		}
		if !evs[i].Kind.IsMemory() {
			*now = evs[i].TS
			if err := dispatch(evs[i], tools); err != nil {
				return err
			}
			i++
			continue
		}
		b, n := packRun((*batch)[:0], evs[i:])
		*now = evs[i+n-1].TS
		for _, tl := range tools {
			tl.MemBatch(evs[i].Thread, evs[i].TS, b)
		}
		*batch = b
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
// serves the callers in this repository that stream a trace event by
// event into recorders and incremental profilers; they must keep their
// guest.Env's clock at e.TS while dispatching, mirroring ReplayMerged. A
// memory access outside the analysed address space is refused with an
// *AddressError (Event 0) before it reaches the tools. Delivering an
// event does not allocate, and Dispatch is safe for concurrent use on
// disjoint tools. The batch lives in Dispatch's stack frame: a tool that
// breaks guest.Tool's batch contract reads a frame that has since been
// reused (TestDispatchMatchesReplay in internal/tools checks the tools
// in this repository).
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
