package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/guest"
	"repro/internal/telemetry"
	"repro/internal/tools"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// program is the guest every workload runs: the kernel-I/O-heavy MySQL
// server model of the paper's case study.
const program = "mysqld"

// workloadSpec names a workload and builds it for a seed.
type workloadSpec struct {
	name string
	make func(seed int64, quick bool) workload
}

// workloadSpecs are the benchmark's workloads, in report order. Each takes
// the same guest program through a different route, so an optimization of
// one layer has a workload that exercises it and one that bypasses it.
var workloadSpecs = []workloadSpec{
	// The inline route: guest dispatch, core and shadow memory do all the
	// work; trace, pipeline and aprofd stay idle.
	{"live-mysqld", func(seed int64, quick bool) workload { return newLive(seed, quick) }},
	// Record-time encoder and annotator, decode, the annotated plan and
	// the per-thread workers.
	{"offline-mysqld", func(seed int64, quick bool) workload { return newOffline(seed, quick, true) }},
	// The same layers used differently: a smaller decode and the
	// pre-scan route instead of the annotated plan.
	{"offline-legacy", func(seed int64, quick bool) workload { return newOffline(seed, quick, false) }},
	// The only path through StreamDecoder, the watermark merge,
	// core.Incremental and window cuts.
	{"aprofd-ingest", func(seed int64, quick bool) workload { return newAprofd(seed, quick) }},
}

func newWorkload(name string, seed int64, quick bool) (workload, error) {
	for _, s := range workloadSpecs {
		if s.name == name {
			return s.make(seed, quick), nil
		}
	}
	var names []string
	for _, s := range workloadSpecs {
		names = append(names, s.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// runGuest executes the guest program once with the given tools attached.
func runGuest(p workloads.Params, tl ...guest.Tool) error {
	_, err := workloads.RunByName(program, p, tl...)
	return err
}

// buildGuest builds the guest program's inputs (devices, tables, static
// data) on a fresh machine without running it.
func buildGuest(p workloads.Params) error {
	spec, err := workloads.Get(program)
	if err != nil {
		return err
	}
	spec.Build(guest.NewMachine(guest.Config{}), p)
	return nil
}

// countEvents records the execution into nothing and returns how many
// events a trace of it holds: the denominator of every ns/event metric.
func countEvents(p workloads.Params) (int, error) {
	reg := telemetry.NewRegistry()
	rec := trace.NewStreamRecorder(io.Discard)
	rec.SetAnnotations(false)
	rec.SetTelemetry(reg)
	if err := runGuest(p, rec); err != nil {
		return 0, err
	}
	if err := rec.Close(); err != nil {
		return 0, err
	}
	return int(reg.Counter("trace/events_written").Load()), nil
}

// referenceProfile profiles the execution with the naive reference
// profiler, which shares no timestamping code with core.New.
func referenceProfile(p workloads.Params) (*core.Profile, error) {
	n := core.NewNaive(core.Options{})
	if err := runGuest(p, n); err != nil {
		return nil, err
	}
	return n.Profile(), nil
}

// live profiles the running guest inline. Each rep brackets a profiled run
// with two native runs, the paper's Table 1 measurement.
type live struct {
	p      workloads.Params
	events int
}

func newLive(seed int64, quick bool) *live {
	p := workloads.Params{Size: 96, Threads: 8, Seed: seed}
	if quick {
		p = workloads.Params{Size: 3, Threads: 2, Seed: seed}
	}
	return &live{p: p}
}

func (w *live) setup() error { return buildGuest(w.p) }

// prepare counts the execution's events, which a live rep cannot do
// without attaching a second tool.
func (w *live) prepare(bool) (err error) {
	w.events, err = countEvents(w.p)
	return err
}

func (w *live) rep(t *tracer, s *sample) ([][]byte, error) {
	native, err := t.timed("guest/native", func() error { return runGuest(w.p) })
	if err != nil {
		return nil, err
	}
	if t != nil {
		if _, err := t.timed("guest/nulgrind", func() error { return runGuest(w.p, tools.NewNulgrind()) }); err != nil {
			return nil, err
		}
	}
	var prof *core.Profiler
	var before, after runtime.MemStats
	run, err := t.timed("core/profiled", func() error {
		if t != nil {
			runtime.ReadMemStats(&before)
			defer runtime.ReadMemStats(&after)
		}
		prof = core.New(core.Options{})
		return runGuest(w.p, prof)
	})
	if err != nil {
		return nil, err
	}
	if t != nil {
		s.vals["core.alloc_bytes_per_event"] = ratio(float64(after.TotalAlloc-before.TotalAlloc), float64(w.events))
		s.vals["core.peak_shadow_mb"] = float64(prof.PeakShadowBytes()) / (1 << 20)
		s.vals["core.renumbers"] = float64(prof.Renumbers())
	}
	var export []byte
	exp, err := t.timed("core/export", func() (err error) {
		export, err = prof.Profile().Export()
		return err
	})
	if err != nil {
		return nil, err
	}
	// A second native run brackets the profiled one, so the rep's native
	// time is taken under the same host load.
	again, err := t.timed("guest/native", func() error { return runGuest(w.p) })
	if err != nil {
		return nil, err
	}
	native = (native + again) / 2
	total := run + exp
	s.vals["profile_s"] = total.Seconds()
	s.vals["events"] = float64(w.events)
	s.vals["slowdown"] = ratio(total.Seconds(), native.Seconds())
	s.add("lag_ms", ms(exp))
	return [][]byte{export}, nil
}

func (w *live) ledger(self map[string]time.Duration, s *sample) {
	native, nul := self["guest/native"]/2, self["guest/nulgrind"]
	s.vals["guest.events"] = float64(w.events)
	s.vals["guest.native_ns_per_event"] = perEvent(native, w.events)
	s.vals["guest.dispatch_ns_per_event"] = perEvent(nul-native, w.events)
	s.vals["core.analysis_ns_per_event"] = perEvent(self["core/profiled"]-nul, w.events)
	s.vals["core.export_ms"] = ms(self["core/export"])
}

func (w *live) reference() (*core.Profile, error) { return referenceProfile(w.p) }
