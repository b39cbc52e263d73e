package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workloads"
)

func init() {
	registerExperiment("inline",
		"Inline profiling overhead: profiled vs native run",
		runInline)
}

// inlineWorkloads are the executions the inline-overhead level times: the
// kernel-I/O-heavy mysqld model, the parsec models the paper profiles, and
// one Table-1 (OMP2012) compute kernel.
var inlineWorkloads = []struct {
	name    string
	size    int
	threads int
}{
	{"mysqld", 24, 8},
	{"vips", 16, 4},
	{"dedup", 16, 4},
	{"fluidanimate", 16, 4},
	{"358.botsalgn", 96, 16},
}

// inlineBaselines records the min-of-30 inline profiling wall time of the
// pre-batching profiler (commit 2ee0156, per-event dispatch only), measured
// on the same host and sizes as this experiment. They anchor the
// speedup-vs-baseline column; re-measure them by checking out that commit
// and timing `core.New` under the same workloads.
var inlineBaselines = map[string]float64{
	"mysqld":       10.349,
	"vips":         0.573,
	"dedup":        0.471,
	"fluidanimate": 0.175,
}

// inlineBench is the machine-readable record of the inline-overhead level,
// written to the path in Config.BenchJSON (BENCH_INLINE.json at the repo
// root), mirroring BENCH_PIPELINE.json's min-of-reps methodology.
type inlineBench struct {
	Benchmark  string            `json:"benchmark"`
	NumCPU     int               `json:"num_cpu"`
	GOMAXPROCS int               `json:"gomaxprocs"`
	Reps       int               `json:"reps"`
	Workloads  []inlineBenchStep `json:"workloads"`
	Note       string            `json:"note"`
}

type inlineBenchStep struct {
	Workload   string  `json:"workload"`
	Size       int     `json:"size"`
	Threads    int     `json:"threads"`
	Events     int     `json:"events"`
	Native     float64 `json:"native_ms"`
	Batched    float64 `json:"batched_ms"`
	Slowdown   float64 `json:"slowdown"`
	Baseline   float64 `json:"baseline_pre_batching_ms,omitempty"`
	VsBaseline float64 `json:"speedup_vs_baseline,omitempty"`
}

// runInline times the inline profiler — attached to a live machine, not
// replaying a trace — fed through the batched event ring, min-of-reps to
// suppress scheduling noise. The native row is the same workload with no
// tool attached; their ratio is the instrumentation overhead.
func runInline(cfg Config) error {
	w := cfg.Out
	reps := 30
	if cfg.Quick {
		reps = 3
	}

	minOf := func(f func() error) (time.Duration, error) {
		best := time.Duration(1<<63 - 1)
		for i := 0; i < reps; i++ {
			start := time.Now()
			if err := f(); err != nil {
				return 0, err
			}
			if d := time.Since(start); d < best {
				best = d
			}
		}
		return best, nil
	}

	bench := inlineBench{
		Benchmark:  "inline-overhead",
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Reps:       reps,
		Note: "min-of-reps wall time of one workload run; native has no tool " +
			"attached, batched runs the inline profiler, which receives memory " +
			"events in batches; slowdown is batched over native; " +
			"baseline_pre_batching_ms is the pre-batching profiler " +
			"(commit 2ee0156) measured with the same methodology",
	}

	fmt.Fprintf(w, "## Inline profiling overhead\n\n")
	fmt.Fprintf(w, "Wall time of one profiled run (min of %d), on %d CPU(s) (GOMAXPROCS %d).\n\n",
		reps, bench.NumCPU, bench.GOMAXPROCS)
	fmt.Fprintf(w, "| workload | events | native (ms) | profiled (ms) | slowdown |\n")
	fmt.Fprintf(w, "|---|---:|---:|---:|---:|\n")

	for _, wl := range inlineWorkloads {
		params := workloads.Params{Size: wl.size, Threads: wl.threads}
		if cfg.Quick {
			params.Size = max(wl.size/2, 4)
		}

		rec := trace.NewRecorder()
		if _, err := workloads.RunByName(wl.name, params, rec); err != nil {
			return err
		}
		events := rec.Trace().NumEvents()

		native, err := minOf(func() error {
			_, err := workloads.RunByName(wl.name, params)
			return err
		})
		if err != nil {
			return err
		}
		bat, err := minOf(func() error {
			_, err := workloads.RunByName(wl.name, params, core.New(core.Options{}))
			return err
		})
		if err != nil {
			return err
		}

		step := inlineBenchStep{
			Workload: wl.name,
			Size:     params.Size,
			Threads:  wl.threads,
			Events:   events,
			Native:   ms(native),
			Batched:  ms(bat),
			Slowdown: float64(bat) / float64(native),
		}
		// The pre-batching baseline was measured at the default sizes
		// only, so it is not comparable under Quick.
		if base, ok := inlineBaselines[wl.name]; ok && !cfg.Quick {
			step.Baseline = base
			step.VsBaseline = base / ms(bat)
		}
		bench.Workloads = append(bench.Workloads, step)

		fmt.Fprintf(w, "| %s | %d | %.3f | %.3f | %.2fx |\n",
			wl.name, events, ms(native), ms(bat), step.Slowdown)
	}
	fmt.Fprintln(w)
	fmt.Fprintf(w, "The win over the pre-batching profiler is not the dispatch mechanism\n")
	fmt.Fprintf(w, "alone but what batching enables: the profiler's MemBatch loop hoists\n")
	fmt.Fprintf(w, "the thread view, the operation counter and the write-provenance word\n")
	fmt.Fprintf(w, "out of the per-event path, and persistent shadow-chunk cursors plus\n")
	fmt.Fprintf(w, "chunk pooling remove the per-access table walks.\n")
	if !cfg.Quick {
		fmt.Fprintf(w, "Against the pre-batching profiler (commit 2ee0156):\n\n")
		fmt.Fprintf(w, "| workload | pre-batching (ms) | batched (ms) | reduction |\n")
		fmt.Fprintf(w, "|---|---:|---:|---:|\n")
		for _, s := range bench.Workloads {
			if s.Baseline == 0 {
				continue
			}
			fmt.Fprintf(w, "| %s | %.3f | %.3f | %.2fx |\n",
				s.Workload, s.Baseline, s.Batched, s.VsBaseline)
		}
		fmt.Fprintln(w)
	}

	if cfg.BenchJSON != "" {
		data, err := json.MarshalIndent(&bench, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(cfg.BenchJSON, append(data, '\n'), 0o644); err != nil {
			return err
		}
		// One extra instrumented run per workload, outside the timing
		// loops, captures the guest/core/shadow metric snapshot that
		// accompanies the raw numbers.
		reg := telemetry.NewRegistry()
		for _, wl := range inlineWorkloads {
			params := workloads.Params{Size: wl.size, Threads: wl.threads, Telemetry: reg}
			if cfg.Quick {
				params.Size = max(wl.size/2, 4)
			}
			if _, err := workloads.RunByName(wl.name, params, core.New(core.Options{Telemetry: reg})); err != nil {
				return err
			}
		}
		if err := writeBenchTelemetry(cfg, reg); err != nil {
			return err
		}
	}
	return nil
}
