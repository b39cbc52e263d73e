package core

import (
	"fmt"

	"repro/internal/guest"
)

// CheckLevel selects how much paper-derived invariant checking the profiler
// performs while it runs. The levels are cumulative.
type CheckLevel uint8

// The three checking levels. CheckOff (the zero value) performs no checks.
// CheckCheap validates every completed activation's metrics (rms >= 0,
// trms >= rms, trms <= rms + induced input) and the monotonicity and bound
// of activation timestamps — O(1) work per call/return, nothing on the
// per-memory-event path. CheckDeep additionally verifies each renumbering
// pass preserves the order relations of Fig. 13 (by snapshotting every
// shadow cell's relations before the pass and re-deriving them after) and
// scans the shadow memories at Finish for out-of-range timestamps and
// missing writer provenance.
const (
	CheckOff CheckLevel = iota
	CheckCheap
	CheckDeep
)

// String returns the level's flag spelling: off, cheap or deep.
func (l CheckLevel) String() string {
	switch l {
	case CheckOff:
		return "off"
	case CheckCheap:
		return "cheap"
	case CheckDeep:
		return "deep"
	}
	return fmt.Sprintf("CheckLevel(%d)", uint8(l))
}

// ParseCheckLevel parses the flag spellings accepted by String.
func ParseCheckLevel(s string) (CheckLevel, error) {
	switch s {
	case "off", "":
		return CheckOff, nil
	case "cheap":
		return CheckCheap, nil
	case "deep":
		return CheckDeep, nil
	}
	return CheckOff, fmt.Errorf("unknown check level %q (want off, cheap or deep)", s)
}

// Violation describes one detected invariant violation. Check is a stable
// slash-separated identifier (e.g. "activation/trms-ge-rms"); Detail is a
// human-readable account of the observed values.
type Violation struct {
	// Check identifies the violated invariant.
	Check string
	// Thread is the guest thread the violation was observed on (zero when
	// the violation is not thread-specific).
	Thread guest.ThreadID
	// Routine names the routine involved, when one is.
	Routine string
	// Detail describes the observed values.
	Detail string
}

// String formats the violation on one line.
func (v Violation) String() string {
	s := "invariant " + v.Check
	if v.Routine != "" {
		s += " routine=" + v.Routine
	}
	s += fmt.Sprintf(" thread=%d: %s", v.Thread, v.Detail)
	return s
}

// maxRecordedViolations bounds how many violations are stored or delivered;
// a systemically broken run would otherwise flood memory (or the
// OnViolation callback) with millions of identical reports. The total count
// keeps accumulating past the cap.
const maxRecordedViolations = 100

// Violations returns the violations recorded so far (at most
// maxRecordedViolations; see ViolationCount for the total). Nil when
// Options.OnViolation was set, since violations are delivered instead.
func (p *Profiler) Violations() []Violation { return p.violations }

// ViolationCount returns the total number of violations detected, including
// any dropped past the recording cap.
func (p *Profiler) ViolationCount() uint64 { return p.violCount }

// violatef records (or delivers) one invariant violation.
func (p *Profiler) violatef(check string, t guest.ThreadID, routine, format string, args ...any) {
	p.violCount++
	if p.violCount > maxRecordedViolations {
		return
	}
	v := Violation{Check: check, Thread: t, Routine: routine, Detail: fmt.Sprintf(format, args...)}
	if p.opts.OnViolation != nil {
		p.opts.OnViolation(v)
		return
	}
	p.violations = append(p.violations, v)
}

// routineName resolves r for violation reports, tolerating a nil env
// (hand-built event streams need not Attach).
func (p *Profiler) routineName(r guest.RoutineID) string {
	if p.env == nil {
		return fmt.Sprintf("routine#%d", r)
	}
	return p.env.RoutineName(r)
}

// checkCall validates the frame just pushed: activation timestamps must
// strictly increase up the stack (the property findFrame's binary search
// and the ancestor-adjustment rule rely on) and stay within the counter
// bound.
func (p *Profiler) checkCall(tv *threadView) {
	n := len(tv.stack)
	f := &tv.stack[n-1]
	if f.TS == 0 || f.TS > p.count {
		p.violatef("counter/bound", tv.id, p.routineName(f.Rtn),
			"activation timestamp %d outside (0, count=%d]", f.TS, p.count)
	}
	if n > 1 && tv.stack[n-2].TS >= f.TS {
		p.violatef("counter/monotone", tv.id, p.routineName(f.Rtn),
			"activation timestamp %d not above parent's %d", f.TS, tv.stack[n-2].TS)
	}
}

// checkReturn validates a completed activation's final metrics (see
// Frame.WellFormed), reporting each violated condition separately.
func (p *Profiler) checkReturn(tv *threadView, f *Frame[uint32]) {
	if f.WellFormed() {
		return
	}
	name := p.routineName(f.Rtn)
	if f.RMS < 0 {
		p.violatef("activation/rms-nonneg", tv.id, name, "final rms = %d", f.RMS)
	}
	if f.TRMS < f.RMS {
		p.violatef("activation/trms-ge-rms", tv.id, name, "trms = %d < rms = %d", f.TRMS, f.RMS)
	}
	if f.TRMS > f.RMS+int64(f.InducedThread)+int64(f.InducedExternal) {
		p.violatef("activation/trms-bound", tv.id, name,
			"trms = %d exceeds rms = %d + induced %d+%d", f.TRMS, f.RMS, f.InducedThread, f.InducedExternal)
	}
}

// checkFinish is the CheckDeep end-of-run shadow-memory scan: every
// thread-local access timestamp and every global write timestamp must lie
// within the current counter value, and every written cell must carry
// writer provenance (the induced-input split depends on it).
func (p *Profiler) checkFinish() {
	for _, tv := range p.threads {
		if tv.ts == nil {
			continue
		}
		id := tv.id
		tv.ts.Range(func(a guest.Addr, v uint32) {
			if v > p.count {
				p.violatef("shadow/ts-bound", id, "",
					"cell %#x thread timestamp %d exceeds counter %d", uint64(a), v, p.count)
			}
		})
	}
	p.global.Range(func(a guest.Addr, g uint64) {
		wts := uint32(g >> 32)
		writer := uint32(g)
		if wts > p.count {
			p.violatef("shadow/wts-bound", 0, "",
				"cell %#x write timestamp %d exceeds counter %d", uint64(a), wts, p.count)
		}
		if wts != 0 && writer == 0 {
			p.violatef("shadow/writer-missing", 0, "",
				"cell %#x write timestamp %d carries no writer provenance", uint64(a), wts)
		}
	})
}

// cellRel is a deep-check snapshot of the order relations one thread-shadow
// cell participates in: its sign relative to the cell's global write
// timestamp and the rank of the pending activation interval it falls in.
// These are exactly (and only) the relations the read algorithm consults,
// so renumbering must preserve them.
type cellRel struct {
	addr guest.Addr
	rel  int8  // -1: ts < wts, 0: ts == wts, +1: ts > wts
	rank int32 // stack.findFrame(ts)
}

// threadRelSnap holds one thread's pre-renumbering cell relations.
type threadRelSnap struct {
	tv    *threadView
	cells []cellRel
}

// globalCellSnap records a written cell's provenance before renumbering;
// Fig. 13 rewrites timestamps only, so provenance must survive unchanged.
type globalCellSnap struct {
	addr   guest.Addr
	writer uint32
}

// renumberSnap is the full pre-renumbering relation snapshot.
type renumberSnap struct {
	threads []threadRelSnap
	global  []globalCellSnap
}

func cmpTS(v, w uint32) int8 {
	switch {
	case v < w:
		return -1
	case v > w:
		return 1
	}
	return 0
}

// snapshotRelations captures every order relation renumbering must
// preserve. Called (under CheckDeep) before the remapping begins.
func (p *Profiler) snapshotRelations() *renumberSnap {
	snap := &renumberSnap{}
	gc := p.global.Cursor()
	for _, tv := range p.threads {
		ts := threadRelSnap{tv: tv}
		ts.cells = make([]cellRel, 0, tv.ts.NonZero())
		stack := tv.stack
		tv.ts.Range(func(a guest.Addr, v uint32) {
			w := uint32(gc.Peek(a) >> 32)
			ts.cells = append(ts.cells, cellRel{
				addr: a,
				rel:  cmpTS(v, w),
				rank: int32(stack.findFrame(v)),
			})
		})
		snap.threads = append(snap.threads, ts)
	}
	snap.global = make([]globalCellSnap, 0, p.global.NonZero())
	p.global.Range(func(a guest.Addr, g uint64) {
		snap.global = append(snap.global, globalCellSnap{addr: a, writer: uint32(g)})
	})
	return snap
}

// verifyRenumber re-derives every snapshotted relation from the remapped
// shadow memories and stacks and reports any that changed. One equivalence
// is deliberate: a cell whose old timestamp both predated every pending
// activation (rank -1) and was below the cell's write timestamp collapses
// to 0 — it then reads as never-accessed, which triggers the same
// induced-first-access outcome as ts < wts with rank -1, so the collapse
// preserves the algorithm's behavior even though the stored value hits the
// zero sentinel.
func (p *Profiler) verifyRenumber(snap *renumberSnap, newCount uint32) {
	gc := p.global.Cursor()
	for _, ts := range snap.threads {
		tv := ts.tv
		tc := tv.ts.Cursor()
		for i := 1; i < len(tv.stack); i++ {
			if tv.stack[i-1].TS >= tv.stack[i].TS {
				p.violatef("renumber/order", tv.id, p.routineName(tv.stack[i].Rtn),
					"remapped frame timestamps not increasing: %d then %d",
					tv.stack[i-1].TS, tv.stack[i].TS)
			}
		}
		for _, c := range ts.cells {
			nv := tc.Peek(c.addr)
			nw := uint32(gc.Peek(c.addr) >> 32)
			if nv >= newCount {
				p.violatef("renumber/bound", tv.id, "",
					"cell %#x remapped timestamp %d >= new counter %d", uint64(c.addr), nv, newCount)
			}
			if nv == 0 {
				if c.rel != -1 || c.rank != -1 {
					p.violatef("renumber/order", tv.id, "",
						"cell %#x collapsed to 0 but had rel=%d rank=%d", uint64(c.addr), c.rel, c.rank)
				} else if nw == 0 {
					p.violatef("renumber/order", tv.id, "",
						"cell %#x collapsed to 0 but its write timestamp vanished", uint64(c.addr))
				}
				continue
			}
			if got := cmpTS(nv, nw); got != c.rel {
				p.violatef("renumber/order", tv.id, "",
					"cell %#x ts-vs-wts relation changed: was %d, now %d (ts=%d wts=%d)",
					uint64(c.addr), c.rel, got, nv, nw)
			}
			if got := int32(tv.stack.findFrame(nv)); got != c.rank {
				p.violatef("renumber/order", tv.id, "",
					"cell %#x activation rank changed: was %d, now %d (ts=%d)",
					uint64(c.addr), c.rank, got, nv)
			}
		}
	}
	for _, g := range snap.global {
		ng := gc.Peek(g.addr)
		nwts := uint32(ng >> 32)
		if uint32(ng) != g.writer {
			p.violatef("renumber/writer", 0, "",
				"cell %#x writer provenance changed: was %d, now %d", uint64(g.addr), g.writer, uint32(ng))
		}
		if nwts == 0 || nwts >= newCount {
			p.violatef("renumber/bound", 0, "",
				"cell %#x remapped write timestamp %d outside (0, %d)", uint64(g.addr), nwts, newCount)
		}
	}
}
