package report

import (
	"fmt"
	"io"

	"repro/internal/core"
)

// WriteFullReport renders a complete input-sensitive profiling report: the
// summary of the top routines by cumulative cost (0: all) and, for each of
// them with at least minPoints distinct input sizes, its routine view and
// induced-input breakdown.
func WriteFullReport(w io.Writer, p *core.Profile, top int) error {
	fmt.Fprintf(w, "INPUT-SENSITIVE PROFILE\n=======================\n\n")
	fmt.Fprintf(w, "routines: %d   induced first-accesses: %d thread-induced, %d external\n\n",
		len(p.RoutineNames()), p.InducedThread, p.InducedExternal)
	WriteSummary(w, p, top)
	for _, e := range byCost(p, top) {
		if len(e.a.ByTRMS) < minPoints {
			continue
		}
		fmt.Fprintf(w, "\n--- %s ---------------------------------------------------------\n", e.name)
		if err := WriteRoutine(w, p, e.name); err != nil {
			return err
		}
		if induced := e.a.InducedThread + e.a.InducedExternal; induced > 0 {
			fmt.Fprintf(w, "induced input: %d accesses (%.1f%% thread, %.1f%% external)\n",
				induced,
				100*float64(e.a.InducedThread)/float64(induced),
				100*float64(e.a.InducedExternal)/float64(induced))
		}
	}
	return nil
}
