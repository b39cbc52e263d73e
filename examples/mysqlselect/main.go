// MySQL case study (the paper's Figure 4 and Section 3): how a wrong input
// metric manufactures a fake asymptotic bottleneck.
//
// The built-in mysqld workload runs concurrent clients whose SELECT queries
// scan tables of geometrically increasing size through a 4-frame buffer
// pool. The rms of a scan is bounded by the pool footprint — the frames are
// the same memory cells for every page — so plotting cost against rms makes
// mysql_select look superlinear or worse. Against trms, which counts every
// kernel-refilled frame read, the scan is linear: its true behaviour.
//
// Run with: go run ./examples/mysqlselect
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
	if _, err := aprof.RunWorkload("mysqld",
		aprof.WorkloadParams{Threads: 8, Size: 12}, prof); err != nil {
		log.Fatal(err)
	}
	p := prof.Profile()

	if err := report.WriteRoutine(os.Stdout, p, "mysql_select"); err != nil {
		log.Fatal(err)
	}
	fmt.Println()

	tp, ep := aprof.InducedSplit(p)
	fmt.Printf("whole-server induced input: %.1f%% thread-induced, %.1f%% external\n", tp, ep)
	fmt.Println()
	fmt.Println("The rms exponent is inflated by pool-frame reuse; the trms exponent ~1 is the")
	fmt.Println("true linear scan. The same inversion appears in the paper's Figure 4.")
}
