package report

import (
	"fmt"
	"io"
	"sort"

	"repro/internal/core"
	"repro/internal/fit"
)

// The text views of a profile: every command, experiment and report prints
// routines, the summary and calling contexts through these three functions.

// minPoints is the number of distinct trms input sizes a routine needs
// before the full and HTML reports plot and fit it.
const minPoints = 3

// routineEntry is one routine of a profile with its merged activations.
type routineEntry struct {
	name string
	a    *core.Activations
	rp   *core.RoutineProfile
}

// byCost returns the profile's routines, heaviest (by cumulative cost)
// first, cut to the top n (0: all).
func byCost(p *core.Profile, top int) []routineEntry {
	names := p.RoutineNames()
	entries := make([]routineEntry, 0, len(names))
	for _, n := range names {
		rp := p.Routines[n]
		entries = append(entries, routineEntry{n, rp.Merged(), rp})
	}
	sort.SliceStable(entries, func(i, j int) bool { return entries[i].a.SumCost > entries[j].a.SumCost })
	if top > 0 && len(entries) > top {
		entries = entries[:top]
	}
	return entries
}

// WriteRoutine prints one routine's worst-case cost plots against rms and
// then trms, each followed by its power-law and best-model fits — the
// presentation of the paper's Figures 4, 5 and 6. An unknown routine is an
// error that lists the profiled ones.
func WriteRoutine(w io.Writer, p *core.Profile, name string) error {
	rp := p.Routine(name)
	if rp == nil {
		return fmt.Errorf("routine %q not profiled; profiled routines: %v", name, p.RoutineNames())
	}
	merged := rp.Merged()
	for _, metric := range []struct {
		name string
		hist map[uint64]*core.Point
	}{{"rms", merged.ByRMS}, {"trms", merged.ByTRMS}} {
		pts := WorstCase(metric.hist)
		fmt.Fprintf(w, "\n%s — worst-case cost vs %s (%d distinct input sizes)\n", name, metric.name, len(pts))
		Scatter(w, "", pts, 64, 12)
		if pl, err := fit.FitPowerLaw(pts); err == nil {
			fmt.Fprintf(w, "  power-law fit: cost ~ %s\n", pl)
		}
		if best, err := fit.Best(pts); err == nil {
			fmt.Fprintf(w, "  best model:    %s\n", best)
		}
	}
	return nil
}

// WriteSummary prints the per-routine table of the top routines by
// cumulative cost (0: all), then the execution-wide split of induced
// first-accesses.
func WriteSummary(w io.Writer, p *core.Profile, top int) {
	var rows [][]string
	for _, e := range byCost(p, top) {
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
	tp, ep := InducedSplit(p)
	fmt.Fprintf(w, "\ninduced first-accesses: %.1f%% thread-induced, %.1f%% external\n", tp, ep)
}

// WriteContexts prints the top calling contexts by cumulative cost
// (0: all) of a context-sensitive profile's tree.
func WriteContexts(w io.Writer, tree *core.ContextTree, top int) {
	type context struct {
		node *core.ContextNode
		a    *core.Activations
	}
	var ctxs []context
	tree.Walk(func(n *core.ContextNode) { ctxs = append(ctxs, context{n, n.Merged()}) })
	sort.SliceStable(ctxs, func(i, j int) bool { return ctxs[i].a.SumCost > ctxs[j].a.SumCost })
	if top > 0 && len(ctxs) > top {
		ctxs = ctxs[:top]
	}
	var rows [][]string
	for _, c := range ctxs {
		rows = append(rows, []string{c.node.Path(), fmt.Sprint(c.a.Calls),
			fmt.Sprint(c.a.SumCost), fmt.Sprint(c.a.SumTRMS), fmt.Sprint(len(c.a.ByTRMS))})
	}
	fmt.Fprintf(w, "%d distinct calling contexts\n\n", tree.NumContexts())
	Table(w, []string{"calling context", "calls", "cost(BB)", "trms", "|trms|"}, rows)
}
