// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, plus ablation benchmarks for the design choices called out in
// DESIGN.md. Each benchmark either times the measurement the paper times
// (tool overheads for Table 1 / Fig. 14) or re-runs the profiled workload
// behind a figure and reports the figure's headline quantities through
// b.ReportMetric, so `go test -bench=.` regenerates every experimental
// series. The textual tables/plots themselves come from
// cmd/aprof-experiments.
package repro_test

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"testing"
	"time"

	"repro/aprof"
	"repro/internal/core"
	"repro/internal/fit"
	"repro/internal/guest"
	"repro/internal/obs"
	"repro/internal/report"
	"repro/internal/shadow"
	"repro/internal/telemetry"
	"repro/internal/tools"
	"repro/internal/trace"
	"repro/internal/trace/pipeline"
	"repro/internal/workloads"
)

// benchSize shrinks workload sizes so the full `-bench=.` sweep stays fast.
func benchSize(name string) int {
	s, err := workloads.Get(name)
	if err != nil {
		panic(err)
	}
	return max(s.DefaultSize/2, 4)
}

func runWorkload(b *testing.B, name string, params workloads.Params, tls ...guest.Tool) *guest.Machine {
	b.Helper()
	m, err := workloads.RunByName(name, params, tls...)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// toolUnderTest builds the tool for one Table 1 column; nil means native.
func toolUnderTest(name string) guest.Tool {
	switch name {
	case "native":
		return nil
	case "nulgrind":
		return tools.NewNulgrind()
	case "memcheck":
		return tools.NewMemcheck()
	case "callgrind":
		return tools.NewCallgrind()
	case "helgrind":
		return tools.NewHelgrind()
	case "aprof-rms":
		return core.New(core.Options{RMSOnly: true})
	case "aprof-trms":
		return core.New(core.Options{})
	default:
		panic("unknown tool " + name)
	}
}

var table1Tools = []string{"native", "nulgrind", "memcheck", "callgrind", "helgrind", "aprof-rms", "aprof-trms"}

// BenchmarkTable1 regenerates Table 1: time per run of each OMP2012-style
// benchmark under each tool. Slowdowns are the ratios between the tool rows
// and the native row of the same benchmark.
func BenchmarkTable1(b *testing.B) {
	for _, s := range workloads.Suite("omp2012") {
		for _, tool := range table1Tools {
			b.Run(s.Name+"/"+tool, func(b *testing.B) {
				params := workloads.Params{Threads: 4, Size: benchSize(s.Name)}
				for i := 0; i < b.N; i++ {
					var tls []guest.Tool
					if t := toolUnderTest(tool); t != nil {
						tls = append(tls, t)
					}
					if _, err := workloads.Run(s, params, tls...); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkFig14 regenerates Fig. 14: overhead as a function of the thread
// count (time per run of one representative kernel under each tool).
func BenchmarkFig14(b *testing.B) {
	for _, nt := range []int{1, 2, 4, 8, 16} {
		for _, tool := range []string{"nulgrind", "memcheck", "callgrind", "helgrind", "aprof-rms", "aprof-trms"} {
			b.Run(fmt.Sprintf("threads=%d/%s", nt, tool), func(b *testing.B) {
				params := workloads.Params{Threads: nt, Size: benchSize("360.ilbdc")}
				for i := 0; i < b.N; i++ {
					if _, err := workloads.RunByName("360.ilbdc", params, toolUnderTest(tool)); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// profiledRun profiles a workload once per iteration and returns the last
// profile for metric reporting.
func profiledRun(b *testing.B, name string, params workloads.Params, opts core.Options) *core.Profile {
	b.Helper()
	var p *core.Profile
	for i := 0; i < b.N; i++ {
		prof := core.New(opts)
		runWorkload(b, name, params, prof)
		p = prof.Profile()
	}
	return p
}

// BenchmarkFig1 regenerates the Fig. 1 definition examples.
func BenchmarkFig1(b *testing.B) {
	for _, name := range []string{"fig1a", "fig1b"} {
		b.Run(name, func(b *testing.B) {
			p := profiledRun(b, name, workloads.Params{}, core.Options{})
			f := p.Routine("f").Merged()
			b.ReportMetric(float64(f.SumTRMS), "trms_f")
			b.ReportMetric(float64(f.SumRMS), "rms_f")
		})
	}
}

// BenchmarkFig2 regenerates Fig. 2 (producer-consumer).
func BenchmarkFig2(b *testing.B) {
	p := profiledRun(b, "producer-consumer", workloads.Params{Size: 64}, core.Options{})
	cons := p.Routine("consumer").Merged()
	b.ReportMetric(float64(cons.SumTRMS), "trms_consumer")
	b.ReportMetric(float64(cons.SumRMS), "rms_consumer")
}

// BenchmarkFig3 regenerates Fig. 3 (buffered external read).
func BenchmarkFig3(b *testing.B) {
	p := profiledRun(b, "external-read", workloads.Params{Size: 64}, core.Options{})
	er := p.Routine("externalRead").Merged()
	b.ReportMetric(float64(er.SumTRMS), "trms")
	b.ReportMetric(float64(er.InducedExternal), "external")
}

// BenchmarkFig4 regenerates Fig. 4 (mysql_select trend inversion): the
// reported metrics are the power-law exponents of cost against each metric.
func BenchmarkFig4(b *testing.B) {
	p := profiledRun(b, "mysqld", workloads.Params{}, core.Options{})
	sel := p.Routine("mysql_select").Merged()
	if pl, err := fit.FitPowerLaw(report.WorstCase(sel.ByTRMS)); err == nil {
		b.ReportMetric(pl.Exponent, "trms_exponent")
	}
	if pl, err := fit.FitPowerLaw(report.WorstCase(sel.ByRMS)); err == nil {
		b.ReportMetric(pl.Exponent, "rms_exponent")
	}
}

// BenchmarkFig5 regenerates Fig. 5 (vips im_generate).
func BenchmarkFig5(b *testing.B) {
	p := profiledRun(b, "vips", workloads.Params{}, core.Options{})
	img := p.Routine("im_generate").Merged()
	if pl, err := fit.FitPowerLaw(report.WorstCase(img.ByTRMS)); err == nil {
		b.ReportMetric(pl.Exponent, "trms_exponent")
	}
	b.ReportMetric(float64(len(img.ByTRMS)), "trms_points")
	b.ReportMetric(float64(len(img.ByRMS)), "rms_points")
}

// BenchmarkFig6 regenerates Fig. 6 (buf_flush superlinear fit).
func BenchmarkFig6(b *testing.B) {
	p := profiledRun(b, "mysqld", workloads.Params{Threads: 6, Seed: 3}, core.Options{})
	flush := p.Routine("buf_flush_buffered_writes").Merged()
	if pl, err := fit.FitPowerLaw(report.WorstCase(flush.ByTRMS)); err == nil {
		b.ReportMetric(pl.Exponent, "trms_exponent")
	}
}

// BenchmarkFig7 regenerates Fig. 7 (wbuffer richness by input source).
func BenchmarkFig7(b *testing.B) {
	for _, v := range []struct {
		name string
		opts core.Options
	}{
		{"rms-only", core.Options{RMSOnly: true}},
		{"external-only", core.Options{DisableThreadInduced: true}},
		{"full", core.Options{}},
	} {
		b.Run(v.name, func(b *testing.B) {
			p := profiledRun(b, "vips", workloads.Params{}, v.opts)
			wb := p.Routine("wbuffer_write_thread")
			b.ReportMetric(float64(wb.DistinctTRMS()), "distinct_sizes")
		})
	}
}

// BenchmarkFig8 regenerates Fig. 8 (send_eof workload plots).
func BenchmarkFig8(b *testing.B) {
	p := profiledRun(b, "mysqld", workloads.Params{}, core.Options{})
	eof := p.Routine("Protocol::send_eof")
	b.ReportMetric(float64(eof.DistinctTRMS()), "trms_points")
	b.ReportMetric(float64(eof.DistinctRMS()), "rms_points")
}

// BenchmarkFig9 regenerates Fig. 9 (per-routine induced split).
func BenchmarkFig9(b *testing.B) {
	for _, name := range []string{"mysqld", "vips"} {
		b.Run(name, func(b *testing.B) {
			p := profiledRun(b, name, workloads.Params{}, core.Options{})
			splits := report.PerRoutineInduced(p)
			b.ReportMetric(float64(len(splits)), "routines_with_induced_input")
		})
	}
}

// BenchmarkFig15to19 regenerates the metric figures: one profiled run per
// representative benchmark with richness, volume and induced-split outputs.
func BenchmarkFig15to19(b *testing.B) {
	for _, name := range []string{"dedup", "vips", "fluidanimate", "mysqld", "350.md"} {
		b.Run(name, func(b *testing.B) {
			p := profiledRun(b, name, workloads.Params{Size: benchSize(name)}, core.Options{})
			rich := report.RichnessCurve(p)    // Fig. 15
			vol := report.VolumeCurve(p)       // Fig. 16
			tp, ep := report.InducedSplit(p)   // Fig. 17
			ti := report.ThreadInducedCurve(p) // Fig. 18
			ex := report.ExternalCurve(p)      // Fig. 19
			b.ReportMetric(report.ValueAtPercent(rich, 5), "richness_p5")
			b.ReportMetric(report.ValueAtPercent(vol, 5), "volume_p5")
			b.ReportMetric(tp, "thread_induced_pct")
			b.ReportMetric(ep, "external_pct")
			_ = ti
			_ = ex
		})
	}
}

// --- Ablation benchmarks (DESIGN.md) ---

// BenchmarkAblationNaiveVsTimestamping compares the Fig. 10 naive algorithm
// with the Fig. 11 read/write timestamping algorithm on the same workload.
func BenchmarkAblationNaiveVsTimestamping(b *testing.B) {
	params := workloads.Params{Size: benchSize("350.md"), Threads: 4}
	b.Run("timestamping", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runWorkload(b, "350.md", params, core.New(core.Options{}))
		}
	})
	b.Run("naive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runWorkload(b, "350.md", params, core.NewNaive(core.Options{}))
		}
	})
}

// BenchmarkAblationRenumber measures the cost of aggressive counter
// renumbering (Fig. 13) against a run that never renumbers, on a
// call/kernel-write-heavy workload that actually exercises the counter.
func BenchmarkAblationRenumber(b *testing.B) {
	params := workloads.Params{Size: benchSize("mysqld")}
	for _, v := range []struct {
		name      string
		threshold uint32
	}{{"never", 0}, {"every-1024", 1024}, {"every-256", 256}} {
		b.Run(v.name, func(b *testing.B) {
			var renumbers uint64
			for i := 0; i < b.N; i++ {
				p := core.New(core.Options{RenumberThreshold: v.threshold})
				runWorkload(b, "mysqld", params, p)
				renumbers = p.Renumbers()
			}
			b.ReportMetric(float64(renumbers), "renumbers/run")
		})
	}
}

// BenchmarkAblationShadow compares the chunked shadow memory (a chunk
// directory behind a cursor) with a flat map under a profiler-like access
// pattern.
func BenchmarkAblationShadow(b *testing.B) {
	const cells = 1 << 16
	b.Run("chunk-directory", func(b *testing.B) {
		c := shadow.NewTable[uint32]().Cursor()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a := guest.Addr(uint64(i*2654435761) % cells)
			s := c.Slot(a)
			if *s < uint32(i) {
				*s = uint32(i)
			}
		}
	})
	b.Run("flat-map", func(b *testing.B) {
		m := make(map[guest.Addr]uint32)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			a := guest.Addr(uint64(i*2654435761) % cells)
			if m[a] < uint32(i) {
				m[a] = uint32(i)
			}
		}
	})
}

// BenchmarkAblationTimeslice measures the effect of the fair-scheduler
// quantum on profiling cost and on collected trms richness.
func BenchmarkAblationTimeslice(b *testing.B) {
	for _, ts := range []int{1, 10, 100, 1000} {
		b.Run(fmt.Sprintf("timeslice=%d", ts), func(b *testing.B) {
			var induced uint64
			for i := 0; i < b.N; i++ {
				p := core.New(core.Options{})
				runWorkload(b, "dedup", workloads.Params{Size: benchSize("dedup"), Timeslice: ts}, p)
				induced = p.Profile().InducedThread
			}
			b.ReportMetric(float64(induced), "thread_induced_accesses")
		})
	}
}

// BenchmarkAblationReplay compares online profiling with record+merge+replay.
func BenchmarkAblationReplay(b *testing.B) {
	params := workloads.Params{Size: benchSize("vips")}
	b.Run("online", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runWorkload(b, "vips", params, core.New(core.Options{}))
		}
	})
	b.Run("record-replay", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			rec := trace.NewRecorder()
			runWorkload(b, "vips", params, rec)
			if err := trace.Replay(rec.Trace(), 0, core.New(core.Options{})); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkProfilerEventCost isolates the profiler's per-event cost on a
// sequential memory-scan guest (reads dominate real workloads).
func BenchmarkProfilerEventCost(b *testing.B) {
	for _, tool := range []string{"native", "nulgrind", "aprof-rms", "aprof-trms"} {
		b.Run(tool, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				var tls []guest.Tool
				if t := toolUnderTest(tool); t != nil {
					tls = append(tls, t)
				}
				m := guest.NewMachine(guest.Config{Tools: tls})
				base := m.Static(4096)
				if err := m.Run(func(th *guest.Thread) {
					th.Fn("scan", func() {
						for j := 0; j < 4096; j++ {
							th.Load(base + guest.Addr(j))
						}
					})
				}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPublicAPI exercises the facade end to end (quickstart shape).
func BenchmarkPublicAPI(b *testing.B) {
	for i := 0; i < b.N; i++ {
		p, err := aprof.ProfileWorkload("merge-sort", aprof.WorkloadParams{Size: 64}, aprof.Options{})
		if err != nil {
			b.Fatal(err)
		}
		if p.Routine("merge_sort") == nil {
			b.Fatal("merge_sort missing")
		}
	}
}

// BenchmarkISPLWorkloads measures the ISPL VM executing whole programs under
// the profiler.
func BenchmarkISPLWorkloads(b *testing.B) {
	for _, name := range []string{"ispl-quicksort", "ispl-pipeline", "ispl-mapreduce"} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				runWorkload(b, name, workloads.Params{}, core.New(core.Options{}))
			}
		})
	}
}

// BenchmarkAblationContextSensitivity measures the cost of calling-context
// profiling over flat profiling.
func BenchmarkAblationContextSensitivity(b *testing.B) {
	params := workloads.Params{Size: benchSize("mysqld")}
	b.Run("flat", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			runWorkload(b, "mysqld", params, core.New(core.Options{}))
		}
	})
	b.Run("contexts", func(b *testing.B) {
		var contexts int
		for i := 0; i < b.N; i++ {
			p := core.New(core.Options{ContextSensitive: true})
			runWorkload(b, "mysqld", params, p)
			contexts = p.ContextTree().NumContexts()
		}
		b.ReportMetric(float64(contexts), "contexts")
	})
}

// recordedTrace captures one workload execution for the trace-analysis
// benchmarks.
func recordedTrace(b *testing.B, name string, params workloads.Params) *trace.Trace {
	b.Helper()
	rec := trace.NewRecorder()
	runWorkload(b, name, params, rec)
	return rec.Trace()
}

// annotatedTrace captures one workload execution with stamp annotations,
// so the pipeline needs no offline Annotate pass.
func annotatedTrace(b *testing.B, name string, params workloads.Params) *trace.Trace {
	b.Helper()
	rec := trace.NewRecorder()
	rec.SetAnnotations(true)
	runWorkload(b, name, params, rec)
	if err := rec.Close(); err != nil {
		b.Fatal(err)
	}
	tr := rec.Trace()
	if !tr.Annotated {
		b.Fatal("streamed trace not annotated")
	}
	return tr
}

// BenchmarkPipelineAnalyze measures offline trace analysis on a recorded
// mysqld execution: the sequential replayer (merge + inline profiler)
// against the parallel pipeline at increasing worker counts, on both an
// unannotated trace (annotated offline first) and its stamp-annotated
// twin (no Annotate pass). events/s is the throughput over the trace's event
// count; speedups are the ratios against the sequential row. The offline
// route's checked-in end-to-end and per-layer numbers come from
// bench/run.sh (BENCH_E2E.json, BENCH_LEDGER.json); this benchmark is the
// in-process worker sweep.
func BenchmarkPipelineAnalyze(b *testing.B) {
	params := workloads.Params{Size: 2 * benchSize("mysqld"), Threads: 8}
	tr := recordedTrace(b, "mysqld", params)
	ann := annotatedTrace(b, "mysqld", params)
	events := float64(tr.NumEvents())

	b.Run("sequential", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.FromTrace(tr, 0, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(events*float64(b.N)/b.Elapsed().Seconds(), "events/s")
	})
	for _, route := range []struct {
		name string
		tr   *trace.Trace
	}{{"offline-annotated", tr}, {"annotated", ann}} {
		for _, workers := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("pipeline-%s-%dw", route.name, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := pipeline.Analyze(route.tr, pipeline.Options{Workers: workers}); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(events*float64(b.N)/b.Elapsed().Seconds(), "events/s")
			})
		}
	}
}

// BenchmarkPipelinePhases splits the pipeline's cost into plan
// construction — the O(#segments) assembly from recorded stamp annotations
// against the offline Annotate pass over every event — and the
// parallelizable analyze phase (Plan.Run). The Annotate pass is the Amdahl
// term recorded annotations delete.
func BenchmarkPipelinePhases(b *testing.B) {
	tr := recordedTrace(b, "mysqld", workloads.Params{Size: 2 * benchSize("mysqld"), Threads: 8})
	ann := annotatedTrace(b, "mysqld", workloads.Params{Size: 2 * benchSize("mysqld"), Threads: 8})
	b.Run("build-plan-offline-annotate", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := pipeline.BuildPlan(tr, 0, core.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("build-plan-annotated", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p, err := pipeline.BuildPlan(ann, 0, core.Options{})
			if err != nil {
				b.Fatal(err)
			}
			if !p.Annotated() {
				b.Fatal("annotated trace missed the fast plan path")
			}
		}
	})
	plan, err := pipeline.BuildPlan(tr, 0, core.Options{})
	if err != nil {
		b.Fatal(err)
	}
	b.Run("run-1w", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := plan.Run(1); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("run-maxw", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := plan.Run(0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkDecode times trace.Decode of a streamed mysqld recording, with
// and without record-time stamp annotations: the decode layer of the
// offline route (record, decode, analyze). It reports ns/event, the bytes
// Decode allocates per event and the trace's wire bytes per event, so a
// change to the decoder or the format has a before/after next to
// BenchmarkPipelinePhases.
func BenchmarkDecode(b *testing.B) {
	params := workloads.Params{Size: 2 * benchSize("mysqld"), Threads: 8}
	for _, annotate := range []bool{true, false} {
		var buf bytes.Buffer
		rec := trace.NewStreamRecorder(&buf)
		rec.SetAnnotations(annotate)
		runWorkload(b, "mysqld", params, rec)
		if err := rec.Close(); err != nil {
			b.Fatal(err)
		}
		raw := buf.Bytes()
		name := "annotated"
		if !annotate {
			name = "unannotated"
		}
		b.Run(name, func(b *testing.B) {
			var events int
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				tr, err := trace.Decode(bytes.NewReader(raw))
				if err != nil {
					b.Fatal(err)
				}
				events = tr.NumEvents()
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			n := float64(events) * float64(b.N)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/event")
			b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/n, "B/event")
			b.ReportMetric(float64(len(raw))/float64(events), "wire_B/event")
		})
	}
}

// BenchmarkRecord times the record layer of the offline route: one mysqld
// execution (size 96, 8 threads, seed 1) run natively, under nulgrind, and
// into a trace.StreamRecorder with and without stamp annotations. Every
// sub-benchmark reports ns/event over the fastest of three native runs
// timed up front, so `native` reads about 0 and `annotated` minus
// `unannotated` is the annotator's share. The recorders also report the
// trace's wire bytes per event.
func BenchmarkRecord(b *testing.B) {
	params := workloads.Params{Size: 96, Threads: 8, Seed: 1}
	var events int
	rec := trace.NewStreamRecorder(io.Discard)
	rec.SetProgress(func(n, _ int, _ int64) { events = n })
	runWorkload(b, "mysqld", params, rec)
	if err := rec.Close(); err != nil {
		b.Fatal(err)
	}
	native := time.Duration(1 << 62)
	for range 3 {
		start := time.Now()
		runWorkload(b, "mysqld", params)
		native = min(native, time.Since(start))
	}
	var buf bytes.Buffer
	for _, name := range []string{"native", "nulgrind", "annotated", "unannotated"} {
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				switch name {
				case "native":
					runWorkload(b, "mysqld", params)
				case "nulgrind":
					runWorkload(b, "mysqld", params, tools.NewNulgrind())
				default:
					buf.Reset()
					rec := trace.NewStreamRecorder(&buf)
					rec.SetAnnotations(name == "annotated")
					runWorkload(b, "mysqld", params, rec)
					if err := rec.Close(); err != nil {
						b.Fatal(err)
					}
				}
			}
			perOp := b.Elapsed() / time.Duration(b.N)
			b.ReportMetric(float64(perOp-native)/float64(events), "ns/event")
			if name == "annotated" || name == "unannotated" {
				b.ReportMetric(float64(buf.Len())/float64(events), "wire_B/event")
			}
		})
	}
}

// BenchmarkInlineOverhead times one inline-profiled workload run — the
// profiler attached to a live machine, fed through the batched event ring,
// on workloads besides the benchmark's mysqld. The inline route's
// checked-in numbers are bench/run.sh's live-mysqld rows (BENCH_E2E.json,
// BENCH_LEDGER.json).
func BenchmarkInlineOverhead(b *testing.B) {
	cases := []struct {
		name    string
		size    int
		threads int
	}{
		{"mysqld", 24, 8},
		{"vips", 16, 4},
		{"dedup", 16, 4},
		{"fluidanimate", 16, 4},
	}
	for _, c := range cases {
		b.Run(c.name+"/batched", func(b *testing.B) {
			params := workloads.Params{Size: c.size, Threads: c.threads}
			for i := 0; i < b.N; i++ {
				prof := core.New(core.Options{})
				runWorkload(b, c.name, params, prof)
			}
		})
	}
}

// BenchmarkCheckOverhead measures the cost of the paper-derived invariant
// checks (core.Options.CheckLevel) on the inline profiler: the same runs as
// BenchmarkInlineOverhead's batched rows at every check level. The
// acceptance bar is <5% for CheckCheap (O(1) per call/return, nothing on
// the memory-event path); CheckDeep additionally pays per renumbering pass
// and a shadow scan at Finish, which the default threshold makes rare.
func BenchmarkCheckOverhead(b *testing.B) {
	cases := []struct {
		name    string
		size    int
		threads int
	}{
		{"mysqld", 24, 8},
		{"vips", 16, 4},
	}
	for _, c := range cases {
		for _, level := range []core.CheckLevel{core.CheckOff, core.CheckCheap, core.CheckDeep} {
			b.Run(c.name+"/"+level.String(), func(b *testing.B) {
				params := workloads.Params{Size: c.size, Threads: c.threads}
				for i := 0; i < b.N; i++ {
					prof := core.New(core.Options{CheckLevel: level})
					runWorkload(b, c.name, params, prof)
					if n := prof.ViolationCount(); n != 0 {
						b.Fatalf("%d invariant violations during benchmark", n)
					}
				}
			})
		}
	}
}

// BenchmarkTelemetryOverhead measures the cost of metrics collection on the
// profiler's hot path: the same profiled runs as BenchmarkInlineOverhead's
// batched rows, with telemetry disabled (nil registry — every metric hook
// no-ops on its nil receiver) and enabled (a live registry attached to the
// machine and the profiler). The observability acceptance bar is <2%
// overhead when enabled; docs/OBSERVABILITY.md records measured numbers.
func BenchmarkTelemetryOverhead(b *testing.B) {
	cases := []struct {
		name    string
		size    int
		threads int
	}{
		{"mysqld", 24, 8},
		{"vips", 16, 4},
	}
	for _, c := range cases {
		for _, mode := range []string{"disabled", "enabled"} {
			b.Run(c.name+"/"+mode, func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					var reg *telemetry.Registry
					if mode == "enabled" {
						reg = telemetry.NewRegistry()
					}
					params := workloads.Params{Size: c.size, Threads: c.threads, Telemetry: reg}
					prof := core.New(core.Options{Telemetry: reg})
					runWorkload(b, c.name, params, prof)
				}
			})
		}
	}
}

// BenchmarkObsOverhead measures what an idle HTTP observability server
// (-http with nobody scraping) costs a profiled run: the same telemetry-
// enabled runs as BenchmarkTelemetryOverhead, with and without an
// obs.Server bound to a loopback port. Nothing on the profiler's hot path
// talks to the server — handlers read the shared registry only when
// scraped — so the acceptance bar is <1% overhead beyond telemetry itself;
// docs/OBSERVABILITY.md records measured numbers.
func BenchmarkObsOverhead(b *testing.B) {
	cases := []struct {
		name    string
		size    int
		threads int
	}{
		{"mysqld", 24, 8},
		{"vips", 16, 4},
	}
	for _, c := range cases {
		for _, mode := range []string{"off", "idle-server"} {
			b.Run(c.name+"/"+mode, func(b *testing.B) {
				reg := telemetry.NewRegistry()
				if mode == "idle-server" {
					srv, err := obs.Start(obs.Options{Registry: reg, Component: "bench", Log: io.Discard})
					if err != nil {
						b.Fatal(err)
					}
					defer srv.Close()
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					params := workloads.Params{Size: c.size, Threads: c.threads, Telemetry: reg}
					prof := core.New(core.Options{Telemetry: reg})
					runWorkload(b, c.name, params, prof)
				}
			})
		}
	}
}
