package tools_test

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/guest"
	"repro/internal/tools"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// dispatchEnv is the guest.Env of a caller that drives tools event by
// event: the trace's name tables and the current event's timestamp.
type dispatchEnv struct {
	tr  *trace.Trace
	now uint64
}

func (e *dispatchEnv) RoutineName(r guest.RoutineID) string { return e.tr.RoutineName(r) }
func (e *dispatchEnv) SyncName(s guest.SyncID) string       { return e.tr.SyncName(s) }
func (e *dispatchEnv) NumRoutines() int                     { return len(e.tr.Routines) }
func (e *dispatchEnv) NumSyncs() int                        { return len(e.tr.Syncs) }
func (e *dispatchEnv) Now() uint64                          { return e.now }

// TestDispatchMatchesReplay checks every tool in this module that takes
// memory events against guest.Tool's batch contract: fed one event at a
// time through trace.Dispatch, whose one-event batch lives in its stack
// frame, a tool must end in the state trace.Replay leaves it in, where
// the Feeder delivers runs as batches of one reused heap buffer. A tool that keeps a batch and reads it after
// the call reads the slot the next Dispatch overwrote, and its result
// differs. Run under the race detector, a tool that hands a batch to
// another goroutine is reported too.
func TestDispatchMatchesReplay(t *testing.T) {
	type tool struct {
		name   string
		new    func() guest.Tool
		result func(guest.Tool) string
	}
	profile := func(p *core.Profile) string {
		b, err := p.Export()
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	var stream bytes.Buffer // one run's at a time: result reads it before the next new
	all := []tool{
		{"aprof", func() guest.Tool { return core.New(core.Options{}) },
			func(tl guest.Tool) string { return profile(tl.(*core.Profiler).Profile()) }},
		{"naive", func() guest.Tool { return core.NewNaive(core.Options{}) },
			func(tl guest.Tool) string { return profile(tl.(*core.Naive).Profile()) }},
		{"recorder", func() guest.Tool { return trace.NewRecorder() },
			func(tl guest.Tool) string { return fmt.Sprint(tl.(*trace.Recorder).Trace().Threads) }},
		{"stream-recorder", func() guest.Tool {
			stream.Reset()
			return trace.NewStreamRecorder(&stream)
		}, func(tl guest.Tool) string {
			if err := tl.(*trace.StreamRecorder).Close(); err != nil {
				t.Fatal(err)
			}
			return stream.String()
		}},
		{"nulgrind", func() guest.Tool { return tools.NewNulgrind() },
			func(tl guest.Tool) string { return fmt.Sprint(tl.(*tools.Nulgrind).Events()) }},
		{"memcheck", func() guest.Tool { return tools.NewMemcheck() }, func(tl guest.Tool) string {
			mc := tl.(*tools.Memcheck)
			blocks, cells := mc.Leaks()
			return fmt.Sprint(mc.UninitReads(), mc.UseAfterFrees(), mc.InvalidFrees(), blocks, cells, mc.Errors())
		}},
		{"cachegrind", func() guest.Tool { return tools.NewCachegrind() }, func(tl guest.Tool) string {
			cg := tl.(*tools.Cachegrind)
			s := fmt.Sprintf("%+v", cg.Totals())
			for _, r := range cg.PerRoutine() {
				s += fmt.Sprintf("\n%+v", *r)
			}
			return s
		}},
		{"helgrind", func() guest.Tool { return tools.NewHelgrind() }, func(tl guest.Tool) string {
			h := tl.(*tools.Helgrind)
			return fmt.Sprint(h.Races(), h.CellsTracked(), h.RaceReports())
		}},
	}
	for _, w := range []string{"mysqld", "dedup"} {
		rec := trace.NewRecorder()
		if _, err := workloads.RunByName(w, workloads.Params{Size: 8, Threads: 3}, rec); err != nil {
			t.Fatal(err)
		}
		tr := rec.Trace()
		merged := trace.Merge(tr, 0)
		for _, tc := range all {
			replayed := tc.new()
			if err := trace.Replay(tr, 0, replayed); err != nil {
				t.Fatal(err)
			}
			want := tc.result(replayed)

			dispatched := tc.new()
			env := &dispatchEnv{tr: tr}
			dispatched.Attach(env)
			tls := []guest.Tool{dispatched}
			for _, e := range merged {
				env.now = e.TS
				if err := trace.Dispatch(e, tls); err != nil {
					t.Fatal(err)
				}
			}
			dispatched.Finish()
			if got := tc.result(dispatched); got != want {
				t.Errorf("%s on %s: fed through Dispatch, the result differs from replay's\n got %.300s\nwant %.300s", tc.name, w, got, want)
			}
		}
	}
}
