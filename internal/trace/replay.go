package trace

import (
	"fmt"

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
	for i, e := range merged {
		if err := e.checkAddr(i); err != nil {
			return err
		}
		env.now = e.TS
		if err := dispatch(e, tools); err != nil {
			return err
		}
	}
	for _, tl := range tools {
		tl.Finish()
	}
	return nil
}

// Dispatch delivers one already-merged event to the tools through the
// guest.Tool callback it encodes, exactly as ReplayMerged would. It is the
// building block for incremental replayers (core.Incremental, the
// continuous-profiling daemon) that drive tools event by event instead of
// from a materialized merged slice; such callers must keep their
// guest.Env's clock at e.TS while dispatching, mirroring ReplayMerged.
func Dispatch(e Event, tools []guest.Tool) error { return dispatch(e, tools) }

// checkAddr returns an *AddressError, with index i, if e is a memory
// access, alloc or free outside the analysed address space.
func (e *Event) checkAddr(i int) error {
	if outside(e.Kind, e.Arg, e.Aux) {
		return addressError(i, e.Kind, e.Arg)
	}
	return nil
}

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
	case KindRead:
		for _, tl := range tools {
			tl.Read(e.Thread, guest.Addr(e.Arg))
		}
	case KindWrite:
		for _, tl := range tools {
			tl.Write(e.Thread, guest.Addr(e.Arg))
		}
	case KindKernelRead:
		for _, tl := range tools {
			tl.KernelRead(e.Thread, guest.Addr(e.Arg))
		}
	case KindKernelWrite:
		for _, tl := range tools {
			tl.KernelWrite(e.Thread, guest.Addr(e.Arg))
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
