// Package report post-processes input-sensitive profiles into the paper's
// analysis artifacts: worst-case running-time plots and workload plots
// (Section 3), and the evaluation metrics of Section 6 — routine profile
// richness, input volume, and the split of induced first-accesses between
// thread-induced and external input, both execution-global (Fig. 17) and
// per-routine as cumulative distribution curves (Figs. 9, 15, 16, 18, 19).
package report

import (
	"sort"

	"repro/internal/core"
	"repro/internal/fit"
)

// WorstCase extracts the worst-case running time plot from an input-size
// histogram: for each distinct input size, the maximum cost observed.
func WorstCase(m map[uint64]*core.Point) []fit.Point {
	pts := make([]fit.Point, 0, len(m))
	for n, p := range m {
		pts = append(pts, fit.Point{N: float64(n), Cost: float64(p.MaxCost)})
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].N < pts[j].N })
	return pts
}

// Workload extracts the workload plot: how many times the routine was
// activated on each distinct input size.
func Workload(m map[uint64]*core.Point) []fit.Point {
	pts := make([]fit.Point, 0, len(m))
	for n, p := range m {
		pts = append(pts, fit.Point{N: float64(n), Cost: float64(p.Calls)})
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].N < pts[j].N })
	return pts
}

// Richness computes the routine profile richness metric,
// (|trms_r| - |rms_r|) / |rms_r|: how many more distinct input-size values —
// cost-plot points — the trms metric collected than the rms metric.
func Richness(rp *core.RoutineProfile) float64 {
	rms := rp.DistinctRMS()
	if rms == 0 {
		return 0
	}
	return float64(rp.DistinctTRMS()-rms) / float64(rms)
}

// InputVolume computes 1 - sum(rms)/sum(trms) over the given activations:
// the fraction of total input due to multithreading and external sources.
func InputVolume(a *core.Activations) float64 {
	if a.SumTRMS == 0 {
		return 0
	}
	return 1 - float64(a.SumRMS)/float64(a.SumTRMS)
}

// InducedFraction returns the fraction of the routine's trms input that is
// induced (thread + external).
func InducedFraction(a *core.Activations) float64 {
	if a.SumTRMS == 0 {
		return 0
	}
	return float64(a.InducedThread+a.InducedExternal) / float64(a.SumTRMS)
}

// CumulativePoint is one point of an "x% of routines have value >= y" curve,
// the presentation used by the paper's Figures 15, 16, 18 and 19.
type CumulativePoint struct {
	PercentRoutines float64
	Value           float64
}

// CumulativeCurve converts per-routine values into the descending cumulative
// curve: a point (x, y) means x% of routines have value at least y.
func CumulativeCurve(values []float64) []CumulativePoint {
	if len(values) == 0 {
		return nil
	}
	sorted := append([]float64(nil), values...)
	sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
	out := make([]CumulativePoint, len(sorted))
	for i, v := range sorted {
		out[i] = CumulativePoint{
			PercentRoutines: 100 * float64(i+1) / float64(len(sorted)),
			Value:           v,
		}
	}
	return out
}

// ValueAtPercent interpolates the curve at the given percentage of routines.
func ValueAtPercent(curve []CumulativePoint, pct float64) float64 {
	for _, p := range curve {
		if p.PercentRoutines >= pct {
			return p.Value
		}
	}
	if len(curve) == 0 {
		return 0
	}
	return curve[len(curve)-1].Value
}

// RichnessCurve computes the profile-richness cumulative curve over all
// routines of a profile (Fig. 15).
func RichnessCurve(p *core.Profile) []CumulativePoint {
	var vals []float64
	for _, name := range p.RoutineNames() {
		vals = append(vals, Richness(p.Routines[name]))
	}
	return CumulativeCurve(vals)
}

// VolumeCurve computes the input-volume cumulative curve over all routines
// (Fig. 16), using each routine's merged activations.
func VolumeCurve(p *core.Profile) []CumulativePoint {
	var vals []float64
	for _, name := range p.RoutineNames() {
		vals = append(vals, InputVolume(p.Routines[name].Merged()))
	}
	return CumulativeCurve(vals)
}

// InducedSplit returns the execution-global percentages of induced
// first-accesses that are thread-induced and external (Fig. 17). Each
// induced access is counted once; the percentages sum to 100 when any
// induced access occurred.
func InducedSplit(p *core.Profile) (threadPct, externalPct float64) {
	total := p.InducedThread + p.InducedExternal
	if total == 0 {
		return 0, 0
	}
	return 100 * float64(p.InducedThread) / float64(total),
		100 * float64(p.InducedExternal) / float64(total)
}

// RoutineInducedSplit describes one routine's induced input as percentages
// of its induced accesses (thread vs external), plus the share of its total
// trms input that is induced at all — the per-routine accounting of Fig. 9.
type RoutineInducedSplit struct {
	Name        string
	ThreadPct   float64 // % of induced accesses that are thread-induced
	ExternalPct float64 // % of induced accesses that are external
	InducedPct  float64 // % of the routine's trms input that is induced
	Induced     uint64
}

// PerRoutineInduced computes the induced-input characterization of every
// routine with at least one induced access, sorted by decreasing induced
// percentage (the paper's Fig. 9 ordering).
func PerRoutineInduced(p *core.Profile) []RoutineInducedSplit {
	var out []RoutineInducedSplit
	for _, name := range p.RoutineNames() {
		a := p.Routines[name].Merged()
		induced := a.InducedThread + a.InducedExternal
		if induced == 0 {
			continue
		}
		s := RoutineInducedSplit{
			Name:        name,
			ThreadPct:   100 * float64(a.InducedThread) / float64(induced),
			ExternalPct: 100 * float64(a.InducedExternal) / float64(induced),
			Induced:     induced,
		}
		if a.SumTRMS > 0 {
			s.InducedPct = 100 * float64(induced) / float64(a.SumTRMS)
		}
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].InducedPct != out[j].InducedPct {
			return out[i].InducedPct > out[j].InducedPct
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// ThreadInducedCurve computes the per-routine thread-induced input curve of
// Fig. 18: for each routine, the percentage of its induced first-accesses
// that are thread-induced.
func ThreadInducedCurve(p *core.Profile) []CumulativePoint {
	var vals []float64
	for _, s := range PerRoutineInduced(p) {
		vals = append(vals, s.ThreadPct)
	}
	return CumulativeCurve(vals)
}

// ExternalCurve computes the per-routine external input curve of Fig. 19.
func ExternalCurve(p *core.Profile) []CumulativePoint {
	var vals []float64
	for _, s := range PerRoutineInduced(p) {
		vals = append(vals, s.ExternalPct)
	}
	return CumulativeCurve(vals)
}
