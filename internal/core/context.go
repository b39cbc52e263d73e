package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/guest"
)

// Context-sensitive input-sensitive profiling: instead of aggregating all
// activations of a routine together, activations are keyed by their calling
// context — the chain of pending routines that led to them — organized as a
// calling context tree (CCT). The same routine often has different
// asymptotic behaviour under different callers (a comparator called from a
// sort vs. from a single lookup); context sensitivity separates those cost
// functions. This follows the aprof line's extension of input-sensitive
// profiling to calling contexts; enable it with Options.ContextSensitive.

// ContextNode is one calling context: the routine at the end of a call
// chain, with per-thread activation aggregates and child contexts.
type ContextNode struct {
	// Routine is the interned routine name of this context's frame.
	Routine string

	parent   *ContextNode
	children map[guest.RoutineID]*ContextNode

	// PerThread aggregates the activations observed in exactly this
	// context (not including descendants' own activations).
	PerThread map[guest.ThreadID]*Activations
}

// ContextTree is a calling context tree of profiled activations.
type ContextTree struct {
	root  *ContextNode
	nodes int
}

func newContextTree() *ContextTree {
	return &ContextTree{root: &ContextNode{Routine: "<root>"}, nodes: 1}
}

// Root returns the synthetic root context (thread start).
func (t *ContextTree) Root() *ContextNode { return t.root }

// NumContexts returns the number of distinct calling contexts observed,
// excluding the synthetic root.
func (t *ContextTree) NumContexts() int { return t.nodes - 1 }

// childID descends from n to its child context for routine r, creating it on
// first visit. The routine name is resolved from env only when a node is
// created, keeping name lookups off the per-call path.
func (t *ContextTree) childID(n *ContextNode, r guest.RoutineID, env guest.Env) *ContextNode {
	if n.children == nil {
		n.children = make(map[guest.RoutineID]*ContextNode)
	}
	c := n.children[r]
	if c == nil {
		c = &ContextNode{Routine: env.RoutineName(r), parent: n}
		n.children[r] = c
		t.nodes++
	}
	return c
}

// Parent returns the caller's context, or nil at the root.
func (n *ContextNode) Parent() *ContextNode {
	if n.parent != nil && n.parent.Routine == "<root>" {
		return nil
	}
	return n.parent
}

// Path returns the calling context as "a > b > c".
func (n *ContextNode) Path() string {
	var parts []string
	for c := n; c != nil && c.Routine != "<root>"; c = c.parent {
		parts = append(parts, c.Routine)
	}
	for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
		parts[i], parts[j] = parts[j], parts[i]
	}
	return strings.Join(parts, " > ")
}

// Depth returns the number of frames in the context.
func (n *ContextNode) Depth() int {
	d := 0
	for c := n; c != nil && c.Routine != "<root>"; c = c.parent {
		d++
	}
	return d
}

// Merged combines the context's per-thread aggregates.
func (n *ContextNode) Merged() *Activations {
	out := newActivations(0)
	ids := make([]guest.ThreadID, 0, len(n.PerThread))
	for id := range n.PerThread {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		n.PerThread[id].mergeInto(out)
	}
	return out
}

// Children returns the child contexts sorted by routine name.
func (n *ContextNode) Children() []*ContextNode {
	out := make([]*ContextNode, 0, len(n.children))
	for _, c := range n.children {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Routine < out[j].Routine })
	return out
}

func (n *ContextNode) record(t guest.ThreadID, f *Frame[uint32], cost uint64) {
	if n.PerThread == nil {
		n.PerThread = make(map[guest.ThreadID]*Activations)
	}
	a := n.PerThread[t]
	if a == nil {
		a = newActivations(t)
		n.PerThread[t] = a
	}
	f.RecordInto(a, cost)
}

// Clone deep-copies the tree: structure, routine names and per-thread
// aggregates. The clone is detached — the profiler may keep recording into
// the original.
func (t *ContextTree) Clone() *ContextTree {
	out := &ContextTree{nodes: t.nodes}
	out.root = cloneContextNode(t.root, nil)
	return out
}

func cloneContextNode(n, parent *ContextNode) *ContextNode {
	cp := &ContextNode{Routine: n.Routine, parent: parent}
	if len(n.PerThread) > 0 {
		cp.PerThread = make(map[guest.ThreadID]*Activations, len(n.PerThread))
		for id, a := range n.PerThread {
			cp.PerThread[id] = a.Clone()
		}
	}
	if len(n.children) > 0 {
		cp.children = make(map[guest.RoutineID]*ContextNode, len(n.children))
		for r, c := range n.children {
			cp.children[r] = cloneContextNode(c, cp)
		}
	}
	return cp
}

// Merge folds another tree into t, matching contexts by their routine-id
// path from the root: per-thread aggregates of coinciding contexts combine,
// contexts only o observed are adopted (as deep copies). Both trees must
// come from analyses over the same routine table — routine ids are
// meaningful only relative to it — which the coinciding nodes' names
// cross-check. o is not mutated.
func (t *ContextTree) Merge(o *ContextTree) {
	if o == nil {
		return
	}
	t.mergeNode(t.root, o.root)
}

func (t *ContextTree) mergeNode(dst, src *ContextNode) {
	for id, a := range src.PerThread {
		if dst.PerThread == nil {
			dst.PerThread = make(map[guest.ThreadID]*Activations)
		}
		d := dst.PerThread[id]
		if d == nil {
			d = newActivations(id)
			dst.PerThread[id] = d
		}
		a.mergeInto(d)
	}
	for r, sc := range src.children {
		if dst.children == nil {
			dst.children = make(map[guest.RoutineID]*ContextNode)
		}
		dc := dst.children[r]
		if dc == nil {
			dc = cloneContextNode(sc, dst)
			dst.children[r] = dc
			t.nodes += countContexts(sc)
			continue
		}
		// Coinciding id paths must carry the same interned name; a mismatch
		// means the trees come from incompatible routine tables, which the
		// documented contract excludes. Merge by id regardless — exactly
		// Profile.Merge's thread-id contract.
		t.mergeNode(dc, sc)
	}
}

// countContexts returns the number of contexts in the subtree rooted at n,
// including n itself.
func countContexts(n *ContextNode) int {
	total := 1
	for _, c := range n.children {
		total += countContexts(c)
	}
	return total
}

// clearAggregates drops every node's per-thread aggregates while keeping
// the tree structure (live threadView.ctx pointers reference the nodes), so
// a window cut can snapshot-and-reset context data exactly like the flat
// profile.
func (t *ContextTree) clearAggregates() {
	var rec func(n *ContextNode)
	rec = func(n *ContextNode) {
		n.PerThread = nil
		for _, c := range n.children {
			rec(c)
		}
	}
	rec(t.root)
}

// Walk visits every context with recorded activations in depth-first,
// name-sorted order.
func (t *ContextTree) Walk(visit func(n *ContextNode)) {
	var rec func(n *ContextNode)
	rec = func(n *ContextNode) {
		if n.Routine != "<root>" && len(n.PerThread) > 0 {
			visit(n)
		}
		for _, c := range n.Children() {
			rec(c)
		}
	}
	rec(t.root)
}

// Contexts returns every context with recorded activations.
func (t *ContextTree) Contexts() []*ContextNode {
	var out []*ContextNode
	t.Walk(func(n *ContextNode) { out = append(out, n) })
	return out
}

// Find returns the context reached by the given routine-name path from the
// root, or nil.
func (t *ContextTree) Find(path ...string) *ContextNode {
	n := t.root
	for _, name := range path {
		var next *ContextNode
		for _, c := range n.children {
			if c.Routine == name {
				next = c
				break
			}
		}
		if next == nil {
			return nil
		}
		n = next
	}
	if n == t.root {
		return nil
	}
	return n
}

// FlattenByRoutine folds the tree back into per-routine aggregates — the
// consistency bridge to the flat profile: for every routine, the sum of its
// context aggregates must equal its flat aggregates (tested).
func (t *ContextTree) FlattenByRoutine() map[string]*Activations {
	out := make(map[string]*Activations)
	t.Walk(func(n *ContextNode) {
		a := out[n.Routine]
		if a == nil {
			a = newActivations(0)
			out[n.Routine] = a
		}
		n.Merged().mergeInto(a)
	})
	return out
}

// String summarizes the tree.
func (t *ContextTree) String() string {
	return fmt.Sprintf("ContextTree(%d contexts)", t.NumContexts())
}
