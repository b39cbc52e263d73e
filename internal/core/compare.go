package core

import (
	"fmt"
	"sort"

	"repro/internal/guest"
)

// Diff compares two profiles and returns a human-readable description of
// every discrepancy, or nil if they are identical. It is used to validate
// the timestamping algorithm against the naive reference and online
// profiling against trace replay.
func (p *Profile) Diff(o *Profile) []string {
	var diffs []string
	add := func(format string, args ...any) {
		diffs = append(diffs, fmt.Sprintf(format, args...))
	}

	if p.InducedThread != o.InducedThread {
		add("global induced-thread: %d vs %d", p.InducedThread, o.InducedThread)
	}
	if p.InducedExternal != o.InducedExternal {
		add("global induced-external: %d vs %d", p.InducedExternal, o.InducedExternal)
	}

	names := make(map[string]bool)
	for n := range p.Routines {
		names[n] = true
	}
	for n := range o.Routines {
		names[n] = true
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)

	for _, name := range sorted {
		a, b := p.Routines[name], o.Routines[name]
		switch {
		case a == nil:
			add("%s: only in second profile", name)
			continue
		case b == nil:
			add("%s: only in first profile", name)
			continue
		}
		ids := make(map[guest.ThreadID]bool)
		for id := range a.PerThread {
			ids[id] = true
		}
		for id := range b.PerThread {
			ids[id] = true
		}
		for id := range ids {
			x, y := a.PerThread[id], b.PerThread[id]
			switch {
			case x == nil:
				add("%s t%d: only in second profile", name, id)
				continue
			case y == nil:
				add("%s t%d: only in first profile", name, id)
				continue
			}
			diffs = append(diffs, diffActivations(name, id, x, y)...)
		}
	}
	return diffs
}

// Equal reports whether the two profiles are identical.
func (p *Profile) Equal(o *Profile) bool { return len(p.Diff(o)) == 0 }

func diffActivations(name string, id guest.ThreadID, x, y *Activations) []string {
	var diffs []string
	add := func(format string, args ...any) {
		diffs = append(diffs, fmt.Sprintf("%s t%d: "+format, append([]any{name, id}, args...)...))
	}
	if x.Calls != y.Calls {
		add("calls %d vs %d", x.Calls, y.Calls)
	}
	if x.SumCost != y.SumCost {
		add("sum cost %d vs %d", x.SumCost, y.SumCost)
	}
	if x.SumTRMS != y.SumTRMS {
		add("sum trms %d vs %d", x.SumTRMS, y.SumTRMS)
	}
	if x.SumRMS != y.SumRMS {
		add("sum rms %d vs %d", x.SumRMS, y.SumRMS)
	}
	if x.InducedThread != y.InducedThread {
		add("induced-thread %d vs %d", x.InducedThread, y.InducedThread)
	}
	if x.InducedExternal != y.InducedExternal {
		add("induced-external %d vs %d", x.InducedExternal, y.InducedExternal)
	}
	diffs = append(diffs, diffHistogram(name, id, "trms", x.ByTRMS, y.ByTRMS)...)
	diffs = append(diffs, diffHistogram(name, id, "rms", x.ByRMS, y.ByRMS)...)
	return diffs
}

func diffHistogram(name string, id guest.ThreadID, metric string, x, y map[uint64]*Point) []string {
	var diffs []string
	add := func(format string, args ...any) {
		diffs = append(diffs, fmt.Sprintf("%s t%d %s: "+format, append([]any{name, id, metric}, args...)...))
	}
	for n, px := range x {
		py := y[n]
		if py == nil {
			add("N=%d only in first profile", n)
			continue
		}
		if *px != *py {
			add("N=%d point %+v vs %+v", n, *px, *py)
		}
	}
	for n := range y {
		if x[n] == nil {
			add("N=%d only in second profile", n)
		}
	}
	return diffs
}
