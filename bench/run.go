package main

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
)

// workload is one benchmark workload: a guest execution and the route it
// takes through the profiler.
type workload interface {
	// setup builds the program's inputs; the runner times it as setup_s.
	setup() error
	// prepare does the benchmark's own bookkeeping for the inputs setup
	// built, such as counting their events; it is not timed.
	prepare(traced bool) error
	// rep runs one rep, records its measurements in s and returns the
	// exported profiles it produced. t is nil on untraced reps.
	rep(t *tracer, s *sample) ([][]byte, error)
	// ledger derives the per-layer metrics of one traced rep from the self
	// times of its spans, by span name.
	ledger(self map[string]time.Duration, s *sample)
	// reference profiles the same execution with the naive reference
	// profiler (the paper's Fig. 10 algorithm).
	reference() (*core.Profile, error)
}

// sample is what one rep measured.
type sample struct {
	vals  map[string]float64   // one value per rep, summarized by the median
	dists map[string][]float64 // many values per rep, pooled across reps
}

func newSample() *sample {
	return &sample{vals: make(map[string]float64), dists: make(map[string][]float64)}
}

func (s *sample) add(dist string, v float64) { s.dists[dist] = append(s.dists[dist], v) }

// config selects one workload run.
type config struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	quick    bool
}

// A run builds its inputs at least setupReps times and for at least
// setupFor; setup_s is the median, so neither one slow build nor the clock's
// resolution on a microsecond set-up moves it.
const (
	setupReps = 5
	setupFor  = 100 * time.Millisecond
)

// minCoverage is the share of a traced rep that its child spans must
// account for; below it the ledger would hide where the time went.
const minCoverage = 0.90

// runWorkload runs one workload: set-up, a warm-up rep whose export the
// oracle checks, then timed reps until cfg.seconds have passed.
func runWorkload(cfg config) *result {
	res := &result{
		Workload: cfg.workload, Seed: cfg.seed, Traced: cfg.traced,
		Correct: true, Metrics: make(map[string]stat), Env: currentEnvironment(),
	}
	w, err := newWorkload(cfg.workload, cfg.seed, cfg.quick)
	if err != nil {
		res.fail(err)
		return res
	}

	var setups []float64
	for begun := time.Now(); len(setups) < setupReps || time.Since(begun) < setupFor; {
		start := time.Now()
		if err := w.setup(); err != nil {
			res.fail(fmt.Errorf("setup: %w", err))
			return res
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	if err := w.prepare(cfg.traced); err != nil {
		res.fail(fmt.Errorf("prepare: %w", err))
		return res
	}

	var chk checker
	warmErr := chk.match(repOnce(w, nil, newSample()))

	var t *tracer
	if cfg.traced {
		t = newTracer()
	}
	var plain, traced []*sample
	var coverages []float64
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	for len(plain) == 0 || time.Now().Before(deadline) {
		s := newSample()
		res.attempt(chk.match(repOnce(w, nil, s)))
		plain = append(plain, s)
		if !cfg.traced {
			continue
		}
		s = newSample()
		root := len(t.spans)
		res.attempt(chk.match(repOnce(w, t, s)))
		traced = append(traced, s)
		cov := coverage(t.spans, root)
		coverages = append(coverages, cov)
		if cov < minCoverage {
			res.fail(fmt.Errorf("rep %d: child spans cover %.1f%% of the rep, below %.0f%%", len(traced), 100*cov, 100*minCoverage))
		}
		w.ledger(selfByName(t.spans, selfTimes(t.spans), root), s)
	}

	if warmErr == nil {
		warmErr = chk.oracle(w.reference())
	}
	res.attempt(warmErr)

	if !cfg.traced {
		fillMetrics(res, endToEnd, plain, plain)
		fillMetrics(res, reported, plain, plain)
		res.Metrics["setup_s"] = valueStat(setups, "s")
		failed := ratio(float64(res.Failed), float64(res.Attempted))
		res.Metrics["failed_ratio"] = stat{Value: failed, Unit: "ratio", N: res.Attempted, Q1: failed, Q3: failed}
		return res
	}
	res.Spans = t.spans
	// Pooled distributions are not traced, so every rep contributes.
	fillMetrics(res, perLayer, traced, append(append([]*sample(nil), plain...), traced...))
	cov := valueStat(coverages, "ratio")
	cov.Value = sortedCopy(coverages)[0] // the worst rep
	res.Metrics["bench.span_coverage"] = cov
	over := ratio(summarize(column(traced, "profile_s")).Median, summarize(column(plain, "profile_s")).Median) - 1
	res.Metrics["bench.tracing_overhead"] = stat{Value: over, Unit: "ratio", N: len(traced), Q1: over, Q3: over}
	return res
}

// repOnce runs one rep the way a fresh process would: from a collected
// heap returned to the operating system. It records the rep's peak RSS,
// and when traced runs it under a root span and counts its collections.
func repOnce(w workload, t *tracer, s *sample) ([][]byte, error) {
	debug.FreeOSMemory()
	var before, after runtime.MemStats
	if t != nil {
		runtime.ReadMemStats(&before)
	}
	rss := startRSS()
	root := t.begin("rep")
	exports, err := w.rep(t, s)
	t.end(root)
	peak := rss.stop()
	s.vals["peak_rss_mb"] = float64(peak) / (1 << 20)
	s.vals["peak_rss_bytes_per_event"] = ratio(float64(peak), s.vals["events"])
	if t != nil {
		runtime.ReadMemStats(&after)
		s.vals["runtime.gc_per_rep"] = float64(after.NumGC - before.NumGC)
	}
	return exports, err
}

// poolOf maps a percentile metric to the pooled distribution it is read
// from and the percentile taken.
func poolOf(name string) (string, float64) {
	switch name {
	case "lag_ms.p50":
		return "lag_ms", 50
	case "lag_ms.p90":
		return "lag_ms", 90
	case "daemon.lag_ms.p50":
		return "frame_lag_ms", 50
	case "daemon.lag_ms.p90":
		return "frame_lag_ms", 90
	case "daemon.lag_ms.p99":
		return "frame_lag_ms", 99
	case "daemon.flush_us.p50":
		return "flush_us", 50
	case "daemon.flush_us.p99":
		return "flush_us", 99
	case "daemon.gen_late_ms.p99":
		return "gen_late_ms", 99
	}
	return "", 0
}

// fillMetrics sets each metric: a percentile metric from the samples of
// every pooled rep together, with the quartiles of its per-rep values as
// spread; any other metric as the median over reps.
func fillMetrics(res *result, ms []metric, reps, pool []*sample) {
	for _, m := range ms {
		dist, p := poolOf(m.Name)
		if dist == "" {
			res.Metrics[m.Name] = valueStat(column(reps, m.Name), m.Unit)
			continue
		}
		var pooled, perRep []float64
		for _, s := range pool {
			d := s.dists[dist]
			if len(d) == 0 {
				continue
			}
			pooled = append(pooled, d...)
			perRep = append(perRep, percentile(sortedCopy(d), p))
		}
		st := valueStat(perRep, m.Unit)
		all := sortedCopy(pooled)
		st.Value = percentile(all, p)
		st.N = len(all)
		st.TailP, st.Tail = tailOf(all)
		res.Metrics[m.Name] = st
	}
}

// column collects one per-rep value across samples, skipping reps that did
// not measure it.
func column(samples []*sample, name string) []float64 {
	var out []float64
	for _, s := range samples {
		if v, ok := s.vals[name]; ok {
			out = append(out, v)
		}
	}
	return out
}

func valueStat(xs []float64, unit string) stat {
	s := summarize(xs)
	st := stat{Value: s.Median, Unit: unit, N: s.N, Q1: s.Q1, Q3: s.Q3}
	st.TailP, st.Tail = tailOf(sortedCopy(xs))
	return st
}

// tailOf returns the highest percentile of an ascending sample that has
// ten samples beyond it, and its value; zeros when there is none.
func tailOf(s []float64) (float64, float64) {
	p, ok := highestPercentile(len(s))
	if !ok {
		return 0, 0
	}
	return p, percentile(s, p)
}

// ratio is a/b, or 0 when b is 0, so no metric is ever NaN or infinite.
func ratio(a, b float64) float64 {
	if b == 0 || math.IsNaN(a) || math.IsNaN(b) {
		return 0
	}
	return a / b
}

// perEvent converts a duration to nanoseconds per event.
func perEvent(d time.Duration, events int) float64 {
	return ratio(float64(d.Nanoseconds()), float64(events))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// rssEvery is how often a rep's resident set size is sampled.
const rssEvery = 2 * time.Millisecond

// rssSampler tracks the largest resident set size seen during one rep. The
// process-wide maximum from getrusage cannot be reset between reps, so the
// sampler reads /proc/self/statm instead.
type rssSampler struct {
	quit chan struct{}
	done chan struct{}
	peak int64 // bytes; written by the sampling goroutine until done closes
}

func startRSS() *rssSampler {
	s := &rssSampler{quit: make(chan struct{}), done: make(chan struct{})}
	s.sample()
	go func() {
		defer close(s.done)
		tick := time.NewTicker(rssEvery)
		defer tick.Stop()
		for {
			select {
			case <-s.quit:
				s.sample()
				return
			case <-tick.C:
				s.sample()
			}
		}
	}()
	return s
}

func (s *rssSampler) sample() {
	if v := residentBytes(); v > s.peak {
		s.peak = v
	}
}

// stop ends sampling and returns the peak in bytes.
func (s *rssSampler) stop() int64 {
	close(s.quit)
	<-s.done
	return s.peak
}

// residentBytes is the process's current resident set size, or 0 where
// /proc is unavailable.
func residentBytes() int64 {
	raw, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(raw))
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// checker holds a run's first export: the oracle checks it once, and every
// later export must match it byte for byte.
type checker struct {
	first []byte
}

// match checks one rep's outcome; the first export seen becomes the one
// every later export is held to.
func (c *checker) match(exports [][]byte, err error) error {
	if err != nil {
		return err
	}
	if len(exports) == 0 {
		return fmt.Errorf("rep produced no profile")
	}
	for _, e := range exports {
		if c.first == nil {
			c.first = e
			continue
		}
		if !bytes.Equal(e, c.first) {
			return fmt.Errorf("export differs from the first rep's (%d vs %d bytes)", len(e), len(c.first))
		}
	}
	return nil
}

// oracle diffs the first export against the reference profile.
func (c *checker) oracle(ref *core.Profile, err error) error {
	if err != nil {
		return fmt.Errorf("oracle: %w", err)
	}
	got, err := core.ReadJSON(bytes.NewReader(c.first))
	if err != nil {
		return fmt.Errorf("oracle: reading the first export: %w", err)
	}
	if diffs := ref.Diff(got); len(diffs) > 0 {
		sort.Strings(diffs)
		return fmt.Errorf("oracle: %d differences from the naive profile, first: %s", len(diffs), diffs[0])
	}
	return nil
}
