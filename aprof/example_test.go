package aprof_test

import (
	"context"
	"fmt"
	"sync/atomic"

	"repro/aprof"
)

// Example profiles a tiny guest program and fits its cost function: the
// one-run workflow input-sensitive profiling enables.
func Example() {
	prof := aprof.NewProfiler(aprof.Options{})
	m := aprof.NewMachine(aprof.Config{Tools: []aprof.Tool{prof}})
	data := m.Static(128)

	err := m.Run(func(th *aprof.Thread) {
		for n := 4; n <= 128; n *= 2 {
			th.Fn("scan", func() {
				sum := uint64(0)
				for i := 0; i < n; i++ {
					sum += th.Load(data + aprof.Addr(i))
				}
				th.Store(data, sum)
			})
		}
	})
	if err != nil {
		fmt.Println("run failed:", err)
		return
	}

	pts := aprof.WorstCasePlot(prof.Profile().Routine("scan").Merged().ByTRMS)
	best, _ := aprof.BestFit(pts)
	fmt.Printf("scan: %d activations over %d input sizes, cost grows as %s\n",
		prof.Profile().Routine("scan").Merged().Calls, len(pts), best.Model.Name)
	// Output:
	// scan: 6 activations over 6 input sizes, cost grows as O(n)
}

// ExampleProfileWorkload runs a built-in benchmark (the paper's
// producer-consumer example) and reads the headline metric off the profile.
func ExampleProfileWorkload() {
	p, err := aprof.ProfileWorkload("producer-consumer",
		aprof.WorkloadParams{Size: 32}, aprof.Options{})
	if err != nil {
		fmt.Println(err)
		return
	}
	consumer := p.Routine("consumer").Merged()
	fmt.Printf("consumer: rms=%d trms=%d (thread-induced: %d)\n",
		consumer.SumRMS, consumer.SumTRMS, consumer.InducedThread)
	// Output:
	// consumer: rms=1 trms=32 (thread-induced: 32)
}

// ExampleCompileISPL compiles and profiles a program written in the
// Input-Sensitive Profiling Language.
func ExampleCompileISPL() {
	prog, err := aprof.CompileISPL(`
		var a[64];
		func sum(n) {
			var s = 0;
			var i = 0;
			while (i < n) { s = s + a[i]; i = i + 1; }
			return s;
		}
		func main() {
			var n = 8;
			while (n <= 64) {
				read(a, 0, n);
				sum(n);
				n = n * 2;
			}
		}`)
	if err != nil {
		fmt.Println(err)
		return
	}
	prof := aprof.NewProfiler(aprof.Options{})
	if _, _, err := prog.Run(aprof.Config{}, prof); err != nil {
		fmt.Println(err)
		return
	}
	sum := prof.Profile().Routine("sum")
	fmt.Printf("sum profiled at %d distinct input sizes\n", len(sum.Merged().ByTRMS))
	// Output:
	// sum profiled at 4 distinct input sizes
}

// ExampleInducedSplit shows the external/thread input characterization on a
// streaming workload.
func ExampleInducedSplit() {
	prof := aprof.NewProfiler(aprof.Options{})
	m := aprof.NewMachine(aprof.Config{Tools: []aprof.Tool{prof}})
	buf := m.Static(4)
	disk := m.NewDevice("disk", nil)

	err := m.Run(func(th *aprof.Thread) {
		th.Fn("stream", func() {
			for i := 0; i < 10; i++ {
				th.ReadDevice(disk, buf, 4)
				th.Load(buf) // process the first word of every block
			}
		})
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	threadPct, externalPct := aprof.InducedSplit(prof.Profile())
	fmt.Printf("induced input: %.0f%% thread, %.0f%% external\n", threadPct, externalPct)
	// Output:
	// induced input: 0% thread, 100% external
}

// ExampleAnalyzeTraceOptions analyses a recorded execution with the
// parallel pipeline, collecting its telemetry and progress as
// docs/OBSERVABILITY.md shows.
func ExampleAnalyzeTraceOptions() {
	rec := aprof.NewRecorder()
	if _, err := aprof.RunWorkload("producer-consumer", aprof.WorkloadParams{Size: 32}, rec); err != nil {
		fmt.Println(err)
		return
	}
	tr := rec.Trace()

	reg := aprof.NewTelemetryRegistry()
	var done atomic.Uint64
	p, err := aprof.AnalyzeTraceOptions(context.Background(), tr, aprof.AnalyzeOptions{
		Workers:   4,
		Telemetry: reg,
		Progress: func(processed, total uint64) {
			// Workers report concurrently: keep the largest count.
			for old := done.Load(); processed > old; old = done.Load() {
				if done.CompareAndSwap(old, processed) {
					break
				}
			}
		},
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	consumer := p.Routine("consumer").Merged()
	fmt.Printf("consumer: rms=%d trms=%d\n", consumer.SumRMS, consumer.SumTRMS)
	fmt.Printf("%d of %d events analysed, %d reported as progress\n",
		reg.Snapshot().Counters["pipeline/events_processed"], tr.NumEvents(), done.Load())
	// Output:
	// consumer: rms=1 trms=32
	// 335 of 335 events analysed, 335 reported as progress
}
