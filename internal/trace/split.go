package trace

import "sort"

// SplitByTS slices a trace into consecutive time windows at the given
// timestamp boundaries, which must be in ascending order: window i holds
// every event with cuts[i-1] < TS <= cuts[i] (the first window starts at
// zero, the last is unbounded). Every window keeps the full thread list —
// same ids, same order, possibly with empty event slices — so tie-breaking
// priorities drawn from the thread count (WalkRuns) are identical in every
// window, and concatenating the windows' merged orders reproduces the full
// trace's merged order exactly. That makes the windows valid inputs for
// incremental analysis (core.Incremental): analyzing them in sequence and
// merging the per-window partials is byte-identical to batch analysis.
//
// Event slices are shared with tr, not copied. Stamp annotations describe
// whole-trace prefix state and are meaningless per window, so windows are
// always unannotated.
func SplitByTS(tr *Trace, cuts []uint64) []*Trace {
	windows := make([]*Trace, len(cuts)+1)
	for w := range windows {
		windows[w] = &Trace{
			Routines: tr.Routines,
			Syncs:    tr.Syncs,
			Threads:  make([]ThreadTrace, len(tr.Threads)),
		}
		for i := range tr.Threads {
			windows[w].Threads[i] = ThreadTrace{ID: tr.Threads[i].ID}
		}
	}
	for i := range tr.Threads {
		events := tr.Threads[i].Events
		lo := 0
		for w, cut := range cuts {
			// Per-thread events are in strictly increasing timestamp order,
			// so each window is a contiguous run.
			hi := lo + sort.Search(len(events)-lo, func(k int) bool {
				return events[lo+k].TS > cut
			})
			if hi > lo {
				windows[w].Threads[i].Events = events[lo:hi:hi]
			}
			lo = hi
		}
		if lo < len(events) {
			windows[len(cuts)].Threads[i].Events = events[lo:]
		}
	}
	return windows
}
