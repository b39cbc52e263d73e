// Time-window cuts: CutWindow slices the profiler's accumulated aggregates
// off as a PartialProfile and resets them, while every piece of analysis
// *state* — shadow memories, shadow stacks, the global counter, pending
// activations — carries over untouched. An
// activation is recorded exactly once, at its return, into whichever window
// is open at that moment, so the windows partition the activation multiset
// and MergePartials over them reproduces the batch profile byte for byte
// (the window-split metamorphic axis proves this; docs/CORRECTNESS.md
// states the argument).
package core

// CutWindow materializes everything recorded since the previous cut (or
// since the start) as a PartialProfile and resets the aggregates so the
// next window starts empty. Analysis state carries over: activations still
// on a shadow stack at the cut are charged, in full, to the window in which
// they eventually return — never split, never dropped (unless the run ends
// first, exactly as in batch analysis). Cutting is safe at any event
// boundary and does not perturb subsequent analysis in any way; a run with
// cuts merged back together is byte-identical to one without.
func (p *Profiler) CutWindow() *PartialProfile {
	part := &PartialProfile{
		FirstWindow: p.windows,
		LastWindow:  p.windows,
		Events:      p.events - p.windowStart,
		Profile:     p.Profile(),
	}
	if p.ctxTree != nil {
		part.Context = p.ctxTree.Clone()
	}
	p.windows++
	p.windowStart = p.events

	// Reset the aggregates — and only the aggregates. Retired views'
	// shadow memories are already released; live views keep id, shadow,
	// stack and skip window, losing only their recorded activations.
	p.retired = nil
	for _, tv := range p.threads {
		tv.acts = nil
	}
	p.k.InducedThread, p.k.InducedExternal = 0, 0
	if p.ctxTree != nil {
		p.ctxTree.clearAggregates()
	}
	return part
}

// Windows reports how many window cuts have been taken.
func (p *Profiler) Windows() int { return p.windows }
