// vips case study (the paper's Figures 5 and 7): profile richness and input
// characterization of a threaded image pipeline.
//
// The built-in vips workload runs a prefetch thread filling a recycled line
// cache from the input file, im_generate workers consuming regions of
// varying height, and a write-behind thread (wbuffer_write_thread) flushing
// finished regions in growing batches. The example shows:
//
//   - Figure 5: im_generate's cost is linear in trms but looks explosive
//     against rms (the line cache bounds rms);
//   - Figure 7: wbuffer_write_thread's activations collapse onto a couple of
//     rms values, while trms separates them — and nearly all of its input is
//     induced, split between thread handoffs and file-header reads.
//
// Run with: go run ./examples/vipspipeline
package main

import (
	"fmt"
	"log"
	"os"

	"repro/aprof"
	"repro/internal/report"
)

func main() {
	prof := aprof.NewProfiler(aprof.Options{})
	if _, err := aprof.RunWorkload("vips",
		aprof.WorkloadParams{Threads: 4, Size: 12}, prof); err != nil {
		log.Fatal(err)
	}
	p := prof.Profile()

	// Figure 5: im_generate under both metrics.
	if err := report.WriteRoutine(os.Stdout, p, "im_generate"); err != nil {
		log.Fatal(err)
	}
	fmt.Println()

	// Figure 7: wbuffer_write_thread profile richness and input sources.
	wb := p.Routine("wbuffer_write_thread")
	a := wb.Merged()
	induced := a.InducedThread + a.InducedExternal
	fmt.Printf("wbuffer_write_thread: %d calls, %d distinct rms values, %d distinct trms values\n",
		a.Calls, wb.DistinctRMS(), wb.DistinctTRMS())
	fmt.Printf("  input: %d cells total, %.1f%% induced (%d thread-handoff, %d external header reads)\n",
		a.SumTRMS, 100*float64(induced)/float64(a.SumTRMS), a.InducedThread, a.InducedExternal)
	fmt.Println()
	fmt.Println("Per-routine induced-input characterization (the paper's Fig. 9b):")
	var rows [][]string
	for _, s := range report.PerRoutineInduced(p) {
		rows = append(rows, []string{s.Name,
			fmt.Sprintf("%.1f%%", s.InducedPct),
			fmt.Sprintf("%.1f%%", s.ThreadPct),
			fmt.Sprintf("%.1f%%", s.ExternalPct)})
	}
	report.Table(os.Stdout, []string{"routine", "induced share", "thread part", "external part"}, rows)
}
