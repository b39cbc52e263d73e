package report

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/core"
	"repro/internal/fit"
)

// FullReportOptions controls WriteFullReport.
type FullReportOptions struct {
	// Top bounds the number of routines detailed (0: all).
	Top int
	// PlotWidth/PlotHeight size the ASCII cost plots (0: defaults).
	PlotWidth, PlotHeight int
	// MinPoints is the minimum number of distinct input sizes a routine
	// needs before its plot and fit are rendered (default 3).
	MinPoints int
}

func (o FullReportOptions) withDefaults() FullReportOptions {
	if o.PlotWidth == 0 {
		o.PlotWidth = 64
	}
	if o.PlotHeight == 0 {
		o.PlotHeight = 12
	}
	if o.MinPoints == 0 {
		o.MinPoints = 3
	}
	return o
}

// WriteFullReport renders a complete input-sensitive profiling report: the
// execution-wide summary, the per-routine table, and, for every routine with
// enough distinct input sizes, its worst-case cost plot with fitted models
// and its induced-input breakdown.
func WriteFullReport(w io.Writer, p *core.Profile, opts FullReportOptions) error {
	opts = opts.withDefaults()

	names := p.RoutineNames()
	type entry struct {
		name string
		a    *core.Activations
		rp   *core.RoutineProfile
	}
	entries := make([]entry, 0, len(names))
	for _, n := range names {
		rp := p.Routines[n]
		entries = append(entries, entry{n, rp.Merged(), rp})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].a.SumCost > entries[j].a.SumCost })
	if opts.Top > 0 && len(entries) > opts.Top {
		entries = entries[:opts.Top]
	}

	fmt.Fprintf(w, "INPUT-SENSITIVE PROFILE\n=======================\n\n")
	tp, ep := InducedSplit(p)
	fmt.Fprintf(w, "routines: %d   induced first-accesses: %d thread-induced (%.1f%%), %d external (%.1f%%)\n\n",
		len(names), p.InducedThread, tp, p.InducedExternal, ep)

	var rows [][]string
	for _, e := range entries {
		rows = append(rows, []string{
			e.name,
			fmt.Sprint(e.a.Calls),
			fmt.Sprint(e.a.SumCost),
			fmt.Sprint(e.a.SumTRMS),
			fmt.Sprint(e.rp.DistinctTRMS()),
			fmt.Sprint(e.rp.DistinctRMS()),
			fmt.Sprintf("%.1f%%", 100*InputVolume(e.a)),
		})
	}
	Table(w, []string{"routine", "calls", "cost(BB)", "trms", "|trms|", "|rms|", "input volume"}, rows)
	fmt.Fprintln(w)

	for _, e := range entries {
		pts := WorstCase(e.a.ByTRMS)
		if len(pts) < opts.MinPoints {
			continue
		}
		fmt.Fprintf(w, "--- %s ---------------------------------------------------------\n", e.name)
		Scatter(w, fmt.Sprintf("worst-case cost vs trms (%d points)", len(pts)),
			pts, opts.PlotWidth, opts.PlotHeight)
		if best, err := fit.Best(pts); err == nil {
			fmt.Fprintf(w, "best model: %s\n", best)
		}
		if pl, err := fit.FitPowerLaw(pts); err == nil {
			fmt.Fprintf(w, "power law:  %s\n", pl)
		}
		if induced := e.a.InducedThread + e.a.InducedExternal; induced > 0 {
			fmt.Fprintf(w, "induced input: %d accesses (%.1f%% thread, %.1f%% external)\n",
				induced,
				100*float64(e.a.InducedThread)/float64(induced),
				100*float64(e.a.InducedExternal)/float64(induced))
		}
		fmt.Fprintln(w)
	}
	return nil
}
