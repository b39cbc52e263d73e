package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

// metric is one reported number. Every workload reports every metric of its
// mode; a per-layer metric whose layer does no work on a workload reads 0.
type metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`          // "lower" or "higher"
	Bound  float64 `json:"bound,omitempty"` // end-to-end only; see compare
}

// endToEnd are the gated metrics a user of the profiler sees, reported by
// an untraced run. The bound is the share of the baseline median by which
// a metric may worsen before compare calls it a regression.
var endToEnd = []metric{
	{"slowdown", "x", "lower", 0.25},
	{"peak_rss_bytes_per_event", "B/event", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// reported are end-to-end numbers an untraced run prints and records but
// does not gate: wall times in seconds move with a shared host's load by
// more than any useful bound (README.md, "Steadiness"). A workload prints
// only those it measures.
var reported = []metric{
	{"profile_s", "s", "lower", 0},
	{"peak_rss_mb", "MB", "lower", 0},
	{"record_s", "s", "lower", 0},
	{"analyze_s", "s", "lower", 0},
	{"lag_ms.p50", "ms", "lower", 0},
	{"lag_ms.p90", "ms", "lower", 0},
	{"failed_ratio", "ratio", "lower", 0},
}

// perLayer are the traced run's metrics, one group per layer of the
// program. README.md maps each to the end-to-end metric it should move.
var perLayer = []metric{
	{"guest.events", "count", "higher", 0},
	{"guest.native_ns_per_event", "ns/event", "lower", 0},
	{"guest.dispatch_ns_per_event", "ns/event", "lower", 0},
	{"core.analysis_ns_per_event", "ns/event", "lower", 0},
	{"core.export_ms", "ms", "lower", 0},
	{"core.peak_shadow_mb", "MB", "lower", 0},
	{"core.renumbers", "count", "lower", 0},
	{"core.alloc_bytes_per_event", "B/event", "lower", 0},
	{"runtime.gc_per_rep", "count", "lower", 0},
	{"trace.record_ns_per_event", "ns/event", "lower", 0},
	{"trace.bytes_per_event", "B/event", "lower", 0},
	{"trace.decode_ns_per_event", "ns/event", "lower", 0},
	{"trace.decode_alloc_bytes_per_event", "B/event", "lower", 0},
	{"pipeline.plan_ms", "ms", "lower", 0},
	{"pipeline.prescan_ms", "ms", "lower", 0},
	{"pipeline.run_ns_per_event", "ns/event", "lower", 0},
	{"pipeline.analyze_ns_per_event", "ns/event", "lower", 0},
	{"pipeline.cpu_per_wall", "ratio", "higher", 0},
	{"pipeline.segments", "count", "lower", 0},
	{"daemon.frames", "count", "higher", 0},
	{"daemon.windows", "count", "higher", 0},
	{"daemon.flush_us.p50", "us", "lower", 0},
	{"daemon.flush_us.p99", "us", "lower", 0},
	{"daemon.capacity_mev_per_s", "Mevent/s", "higher", 0},
	{"daemon.decode_ns_per_event", "ns/event", "lower", 0},
	{"daemon.feed_ns_per_event", "ns/event", "lower", 0},
	{"daemon.cut_us_per_window", "us", "lower", 0},
	{"daemon.publish_us_per_window", "us", "lower", 0},
	{"daemon.residual_share", "ratio", "lower", 0},
	{"daemon.lag_ms.p50", "ms", "lower", 0},
	{"daemon.lag_ms.p90", "ms", "lower", 0},
	{"daemon.lag_ms.p99", "ms", "lower", 0},
	{"daemon.gen_late_ms.p99", "ms", "lower", 0},
	{"bench.span_coverage", "ratio", "higher", 0},
	{"bench.tracing_overhead", "ratio", "lower", 0},
}

// metricsFor returns the metrics a run in the given mode reports.
func metricsFor(traced bool) []metric {
	if traced {
		return perLayer
	}
	return endToEnd
}

// stat is one metric's reported value: a median over reps (or a percentile
// over pooled samples) with the spread it was drawn from.
type stat struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
	Q1    float64 `json:"q1"`
	Q3    float64 `json:"q3"`
	// TailP is the highest percentile with at least ten of the N samples
	// beyond it (0 when N < 20), and Tail its value.
	TailP float64 `json:"tail_p,omitempty"`
	Tail  float64 `json:"tail,omitempty"`
}

// environment is what a result records about the host it ran on.
type environment struct {
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	LoadAvg    string `json:"loadavg"`
	GOGC       string `json:"gogc"`
}

func currentEnvironment() environment {
	load, _ := os.ReadFile("/proc/loadavg") // absent off Linux; recorded as empty
	return environment{
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		LoadAvg:    strings.TrimSpace(string(load)),
		GOGC:       os.Getenv("GOGC"),
	}
}

// result is one workload's run: its correctness accounting, metrics, and
// (traced runs) the spans the per-layer metrics were derived from.
type result struct {
	Workload  string          `json:"workload"`
	Seed      int64           `json:"seed"`
	Traced    bool            `json:"traced"`
	Correct   bool            `json:"correct"`
	Attempted int             `json:"attempted"`
	Failed    int             `json:"failed"`
	Errors    []string        `json:"errors,omitempty"`
	Metrics   map[string]stat `json:"metrics"`
	Env       environment     `json:"env"`
	Spans     []span          `json:"spans,omitempty"`
}

// attempt counts one checked rep.
func (r *result) attempt(err error) {
	r.Attempted++
	if err != nil {
		r.Failed++
		r.Correct = false
		r.Errors = append(r.Errors, err.Error())
	}
}

// fail marks the run failed without counting a rep.
func (r *result) fail(err error) {
	r.Correct = false
	r.Errors = append(r.Errors, err.Error())
}

// printMetrics writes one line per metric: workload, name, value, unit,
// then the sample count, the interquartile range and the tail it came
// from. Untraced runs add the ungated numbers they measured.
func (r *result) printMetrics(w io.Writer) {
	ms := metricsFor(r.Traced)
	if !r.Traced {
		for _, m := range reported {
			if r.Metrics[m.Name].N > 0 {
				ms = append(ms[:len(ms):len(ms)], m)
			}
		}
	}
	for _, m := range ms {
		s := r.Metrics[m.Name]
		tail := ""
		if s.TailP > 0 {
			tail = fmt.Sprintf(" p%g=%.6g", s.TailP, s.Tail)
		}
		fmt.Fprintf(w, "%s %s %.6g %s n=%d iqr=[%.6g, %.6g]%s\n", r.Workload, m.Name, s.Value, s.Unit, s.N, s.Q1, s.Q3, tail)
	}
}

// summaryLine is the one-line JSON object that ends a workload run's
// standard output.
func (r *result) summaryLine() ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, make(map[string]value)}
	for _, m := range metricsFor(r.Traced) {
		line.Metrics[m.Name] = value{r.Metrics[m.Name].Value, m.Unit}
	}
	return json.Marshal(line)
}
