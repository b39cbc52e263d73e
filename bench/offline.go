package main

import (
	"bytes"
	"fmt"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/tools"
	"repro/internal/trace"
	"repro/internal/trace/pipeline"
	"repro/internal/workloads"
)

// offline records the guest with trace.StreamRecorder into memory, then
// decodes and analyzes the bytes with the parallel pipeline: the route of
// `aprof-trace record` followed by `aprof-trace analyze`.
type offline struct {
	p        workloads.Params
	annotate bool
	buf      bytes.Buffer // reused across reps, so only the first rep grows it
	events   int
}

func newOffline(seed int64, quick, annotate bool) *offline {
	p := workloads.Params{Size: 96, Threads: 8, Seed: seed}
	if quick {
		p = workloads.Params{Size: 3, Threads: 2, Seed: seed}
	}
	return &offline{p: p, annotate: annotate}
}

func (w *offline) setup() error { return buildGuest(w.p) }

// prepare has nothing to do: every rep counts the events it decodes.
func (w *offline) prepare(bool) error { return nil }

func (w *offline) rep(t *tracer, s *sample) ([][]byte, error) {
	native, err := t.timed("guest/native", func() error { return runGuest(w.p) })
	if err != nil {
		return nil, err
	}
	if t != nil {
		if _, err := t.timed("guest/nulgrind", func() error { return runGuest(w.p, tools.NewNulgrind()) }); err != nil {
			return nil, err
		}
	}
	w.buf.Reset()
	record, err := t.timed("trace/record", func() error {
		rec := trace.NewStreamRecorder(&w.buf)
		rec.SetAnnotations(w.annotate)
		if err := runGuest(w.p, rec); err != nil {
			return err
		}
		return rec.Close()
	})
	if err != nil {
		return nil, err
	}

	var tr *trace.Trace
	var before, after runtime.MemStats
	decode, err := t.timed("trace/decode", func() (err error) {
		if t != nil {
			runtime.ReadMemStats(&before)
			defer runtime.ReadMemStats(&after)
		}
		tr, err = trace.Decode(bytes.NewReader(w.buf.Bytes()))
		return err
	})
	if err != nil {
		return nil, err
	}
	if tr.Annotated != w.annotate {
		return nil, fmt.Errorf("decoded trace annotated=%v, recorded with annotations=%v", tr.Annotated, w.annotate)
	}
	w.events = tr.NumEvents()
	if t != nil {
		s.vals["trace.decode_alloc_bytes_per_event"] = ratio(float64(after.TotalAlloc-before.TotalAlloc), float64(w.events))
		s.vals["trace.bytes_per_event"] = ratio(float64(w.buf.Len()), float64(w.events))
	}

	var prof *core.Profile
	cpu0 := cpuTime()
	analyze, err := t.timed("pipeline/analyze", func() (err error) {
		prof, err = pipeline.Analyze(tr, pipeline.Options{})
		return err
	})
	if err != nil {
		return nil, err
	}
	if t != nil {
		s.vals["pipeline.cpu_per_wall"] = ratio(float64(cpuTime()-cpu0), float64(analyze))
	}
	var export []byte
	exp, err := t.timed("core/export", func() (err error) {
		export, err = prof.Export()
		return err
	})
	if err != nil {
		return nil, err
	}
	// A second native run brackets the recorded one, so the rep's native
	// time is taken under the same host load.
	again, err := t.timed("guest/native", func() error { return runGuest(w.p) })
	if err != nil {
		return nil, err
	}
	native = (native + again) / 2
	exports := [][]byte{export}
	if t != nil {
		phased, err := w.planAndRun(t, tr, s)
		if err != nil {
			return nil, err
		}
		exports = append(exports, phased)
	}

	total := record + decode + analyze + exp
	s.vals["profile_s"] = total.Seconds()
	s.vals["events"] = float64(w.events)
	s.vals["record_s"] = record.Seconds()
	s.vals["analyze_s"] = (decode + analyze + exp).Seconds()
	s.vals["slowdown"] = ratio(total.Seconds(), native.Seconds())
	s.add("lag_ms", ms(decode+analyze+exp))
	return exports, nil
}

// planAndRun splits Analyze into its two phases through the public
// BuildPlan and Plan.Run, and returns the resulting export. An annotated
// trace's plan comes from its annotations; an unannotated one's from the
// sequential pre-scan.
func (w *offline) planAndRun(t *tracer, tr *trace.Trace, s *sample) ([]byte, error) {
	name := "pipeline/plan"
	if !w.annotate {
		name = "pipeline/prescan"
	}
	var plan *pipeline.Plan
	if _, err := t.timed(name, func() (err error) {
		plan, err = pipeline.BuildPlan(tr, 0, core.Options{})
		return err
	}); err != nil {
		return nil, err
	}
	if plan.Annotated() != w.annotate {
		return nil, fmt.Errorf("plan annotated=%v, want %v", plan.Annotated(), w.annotate)
	}
	s.vals["pipeline.segments"] = float64(plan.NumSegments())
	var prof *core.Profile
	if _, err := t.timed("pipeline/run", func() (err error) {
		prof, err = plan.Run(0)
		return err
	}); err != nil {
		return nil, err
	}
	var export []byte
	_, err := t.timed("pipeline/export", func() (err error) {
		export, err = prof.Export()
		return err
	})
	return export, err
}

func (w *offline) ledger(self map[string]time.Duration, s *sample) {
	native, nul := self["guest/native"]/2, self["guest/nulgrind"]
	s.vals["guest.events"] = float64(w.events)
	s.vals["guest.native_ns_per_event"] = perEvent(native, w.events)
	s.vals["guest.dispatch_ns_per_event"] = perEvent(nul-native, w.events)
	s.vals["trace.record_ns_per_event"] = perEvent(self["trace/record"]-nul, w.events)
	s.vals["trace.decode_ns_per_event"] = perEvent(self["trace/decode"], w.events)
	s.vals["pipeline.plan_ms"] = ms(self["pipeline/plan"])
	s.vals["pipeline.prescan_ms"] = ms(self["pipeline/prescan"])
	s.vals["pipeline.run_ns_per_event"] = perEvent(self["pipeline/run"], w.events)
	s.vals["pipeline.analyze_ns_per_event"] = perEvent(self["pipeline/analyze"], w.events)
	s.vals["core.export_ms"] = ms(self["core/export"])
}

func (w *offline) reference() (*core.Profile, error) { return referenceProfile(w.p) }
