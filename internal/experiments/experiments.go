// Package experiments regenerates every table and figure of the paper's
// evaluation (Sections 3 and 6) on the Go reproduction: the case-study plots
// of mysqld and vips (Figs. 4-9), the tool-overhead comparison (Table 1 and
// Fig. 14), and the profile-richness, input-volume and induced-input
// characterizations (Figs. 15-19). Each experiment prints the same rows or
// series the paper reports; absolute numbers differ (the substrate is a
// deterministic guest machine, not the authors' Opteron testbed), but the
// shapes — who wins, by what rough factor, where trends invert — are the
// reproduction targets.
package experiments

import (
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/guest"
	"repro/internal/tools"
	"repro/internal/workloads"
)

// Config parameterizes an experiment run.
type Config struct {
	// Out receives the experiment's report.
	Out io.Writer
	// Quick shrinks workload sizes for fast runs (tests, smoke checks).
	Quick bool
}

// repeats is the number of timing repetitions the overhead experiments keep
// the fastest of.
func (c Config) repeats() int {
	if c.Quick {
		return 1
	}
	return 5
}

// Experiment is one reproducible table or figure.
type Experiment struct {
	ID    string
	Title string
	Run   func(cfg Config) error
}

var all []Experiment

func registerExperiment(id, title string, run func(cfg Config) error) {
	all = append(all, Experiment{ID: id, Title: title, Run: run})
}

// All returns every experiment in presentation order.
func All() []Experiment {
	out := make([]Experiment, len(all))
	copy(out, all)
	sort.SliceStable(out, func(i, j int) bool { return order(out[i].ID) < order(out[j].ID) })
	return out
}

func order(id string) int {
	for i, want := range []string{"fig1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
		"fig8", "fig9", "table1", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19"} {
		if id == want {
			return i
		}
	}
	return 100
}

// Get returns the experiment with the given id.
func Get(id string) (Experiment, error) {
	for _, e := range all {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("experiments: unknown experiment %q", id)
}

// IDs lists all experiment ids in presentation order.
func IDs() []string {
	var ids []string
	for _, e := range All() {
		ids = append(ids, e.ID)
	}
	return ids
}

// sizeFor picks the workload size for the configuration.
func sizeFor(s workloads.Spec, cfg Config) int {
	if cfg.Quick {
		return max(s.DefaultSize/2, 4)
	}
	return s.DefaultSize
}

// overheadSizeFor picks the (larger) size used by the timing experiments, so
// steady-state per-event analysis cost dominates over setup effects.
func overheadSizeFor(s workloads.Spec, cfg Config) int {
	if cfg.Quick {
		return max(s.DefaultSize/2, 4)
	}
	return s.DefaultSize * 3
}

// profileWorkload runs one workload under a full trms profiler.
func profileWorkload(name string, cfg Config, opts core.Options, params workloads.Params) (*core.Profile, error) {
	s, err := workloads.Get(name)
	if err != nil {
		return nil, err
	}
	if params.Size == 0 {
		params.Size = sizeFor(s, cfg)
	}
	p := core.New(opts)
	if _, err := workloads.Run(s, params, p); err != nil {
		return nil, err
	}
	return p.Profile(), nil
}

// toolCase is one column of the Table 1 comparison.
type toolCase struct {
	name string
	// make returns the tool to attach (nil for native execution) and a
	// function reporting the tool's analysis-state footprint in bytes.
	make func() (guest.Tool, func() uint64)
}

func toolCases() []toolCase {
	return []toolCase{
		{"native", func() (guest.Tool, func() uint64) { return nil, func() uint64 { return 0 } }},
		{"nulgrind", func() (guest.Tool, func() uint64) {
			t := tools.NewNulgrind()
			return t, func() uint64 { return 0 }
		}},
		{"memcheck", func() (guest.Tool, func() uint64) {
			t := tools.NewMemcheck()
			return t, t.ShadowBytes
		}},
		{"callgrind", func() (guest.Tool, func() uint64) {
			t := tools.NewCallgrind()
			return t, t.FootprintBytes
		}},
		{"helgrind", func() (guest.Tool, func() uint64) {
			t := tools.NewHelgrind()
			return t, t.FootprintBytes
		}},
		{"aprof-rms", func() (guest.Tool, func() uint64) {
			t := core.New(core.Options{RMSOnly: true})
			return t, t.PeakShadowBytes
		}},
		{"aprof-trms", func() (guest.Tool, func() uint64) {
			t := core.New(core.Options{})
			return t, t.PeakShadowBytes
		}},
	}
}

// measurement holds one (benchmark, tool) data point.
type measurement struct {
	seconds   float64
	toolBytes uint64
	guestB    uint64 // native guest memory, bytes
}

// measure runs the workload under one tool case, repeated, keeping the
// fastest time (standard practice for slowdown tables).
func measure(s workloads.Spec, params workloads.Params, tc toolCase, repeats int) (measurement, error) {
	var best measurement
	for r := 0; r < repeats; r++ {
		tool, footprint := tc.make()
		var tls []guest.Tool
		if tool != nil {
			tls = append(tls, tool)
		}
		start := time.Now()
		m, err := workloads.Run(s, params, tls...)
		elapsed := time.Since(start).Seconds()
		if err != nil {
			return measurement{}, fmt.Errorf("%s under %s: %w", s.Name, tc.name, err)
		}
		_, words := m.MemoryFootprint()
		cur := measurement{seconds: elapsed, toolBytes: footprint(), guestB: uint64(words) * 8}
		if r == 0 || cur.seconds < best.seconds {
			best.seconds = cur.seconds
		}
		if r == 0 {
			best.toolBytes, best.guestB = cur.toolBytes, cur.guestB
		}
	}
	return best, nil
}

// geomean computes the geometric mean of positive values.
func geomean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range vals {
		sum += math.Log(v)
	}
	return math.Exp(sum / float64(len(vals)))
}
