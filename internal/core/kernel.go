// The rms/trms kernel: the shadow-stack frame, call push, the return fold
// and the per-read rule of the paper's Fig. 11 (extended with the parallel
// rms computation and the induced-input provenance split). It is the one
// implementation of the rule. The inline profiler's MemBatch loop (and
// through it trace replay and Incremental) and the pipeline's per-thread
// workers are drivers over it; they keep only what really differs
// between them: the shadow tables and their cell width, the counter and
// its renumbering, the repeat-read early exit, and where a
// read's (wts, writer) pair comes from — the live global shadow inline,
// the plan's recorded stamps in the pipeline. That pair is passed as
// values, so no read makes an indirect call.
package core

import "repro/internal/guest"

// Timestamp is the kernel's counter type: uint32 for the inline profiler's
// renumbered counter, uint64 for the pipeline's counter, which is never
// renumbered.
type Timestamp interface {
	~uint32 | ~uint64
}

// Frame is one shadow-stack entry for a pending routine activation.
type Frame[T Timestamp] struct {
	Rtn     guest.RoutineID
	TS      T      // activation timestamp (counter value at the call)
	BBEnter uint64 // thread's basic-block count at the call

	// TRMS and RMS are the *partial* metrics of the paper's Invariant 2: an
	// activation's metric is the sum of partials from its frame to the
	// stack top. They can be negative transiently on inner frames.
	TRMS int64
	RMS  int64

	// InducedThread and InducedExternal count induced first-accesses
	// performed by this activation's subtree, split by provenance. They
	// fold into the parent on return (a routine's induced input includes
	// its descendants').
	InducedThread   uint64
	InducedExternal uint64
}

// WellFormed reports whether a completed activation's metrics satisfy the
// paper's well-formedness conditions. At return the frame is the top of the
// stack, so by Invariant 2 its partials are the activation's totals:
// Definition 1 makes rms a set cardinality (never negative), trms extends
// rms by induced first-accesses only (trms >= rms), and every unit of trms
// beyond rms is accounted for by a recorded induced first-access of the
// activation's subtree.
func (f *Frame[T]) WellFormed() bool {
	return f.RMS >= 0 && f.TRMS >= f.RMS && f.TRMS <= f.RMS+int64(f.InducedThread)+int64(f.InducedExternal)
}

// RecordInto folds the completed activation, of cumulative cost cost, into
// a: its final metrics and its induced-input split.
func (f *Frame[T]) RecordInto(a *Activations, cost uint64) {
	a.Record(clampMetric(f.TRMS), clampMetric(f.RMS), f.InducedThread, f.InducedExternal, cost)
}

// Stack is a thread's shadow run-time stack. Frame timestamps strictly
// increase with the index.
type Stack[T Timestamp] []Frame[T]

// Push opens an activation of rtn, called at counter value ts (the counter
// was just bumped, so ts is above every pending frame's) and basic-block
// count bb.
func (s *Stack[T]) Push(rtn guest.RoutineID, ts T, bb uint64) {
	*s = append(*s, Frame[T]{Rtn: rtn, TS: ts, BBEnter: bb})
}

// Pop closes the topmost activation and returns its frame. Its partial
// metrics and induced counts fold into the parent's frame,
// preserving Invariant 2. The stack must not be empty.
func (s *Stack[T]) Pop() Frame[T] {
	st := *s
	n := len(st)
	f := st[n-1]
	if n > 1 {
		parent := &st[n-2]
		parent.TRMS += f.TRMS
		parent.RMS += f.RMS
		parent.InducedThread += f.InducedThread
		parent.InducedExternal += f.InducedExternal
	}
	*s = st[:n-1]
	return f
}

// findFrame returns the largest index j with s[j].TS <= ts, or -1. Frame
// timestamps increase with the index, so binary search applies — the
// O(log d) step of the paper's analysis.
func (s Stack[T]) findFrame(ts T) int {
	lo, hi := 0, len(s)-1
	j := -1
	for lo <= hi {
		mid := (lo + hi) / 2
		if s[mid].TS <= ts {
			j = mid
			lo = mid + 1
		} else {
			hi = mid - 1
		}
	}
	return j
}

// Kernel applies the read rule for one driver: it holds the option flags
// the rule consults and the driver's induced first-access tallies (the
// Profile.InducedThread/InducedExternal totals).
type Kernel[T Timestamp] struct {
	InducedThread   uint64
	InducedExternal uint64

	noThread   bool // Options.DisableThreadInduced
	noExternal bool // Options.DisableExternal
}

// NewKernel returns a kernel applying the read rule under opts.
func NewKernel[T Timestamp](opts Options) Kernel[T] {
	return Kernel[T]{noThread: opts.DisableThreadInduced, noExternal: opts.DisableExternal}
}

// Read applies the read rule to s for a read of a cell whose thread shadow
// holds old (0: never accessed by the thread) and whose latest write has
// timestamp wts and provenance writer (0: never written; thread t is t+1,
// and kernelWriter marks kernel writes). wts is 0 when no global shadow is
// kept (Options.RMSOnly), which leaves exactly the PLDI 2012 rms rules. The
// driver stores the current counter value into the thread shadow
// afterwards. A read with old equal to the current counter cannot change
// any state, so drivers skip the call for it.
func (k *Kernel[T]) Read(s Stack[T], old, wts T, writer uint32) {
	n := len(s)
	if n == 0 {
		return
	}
	top := &s[n-1]
	// Induced first-access: new input for the topmost activation and, by
	// Invariant 2, for every ancestor — none of them accessed the cell
	// since the foreign write. rms by definition ignores foreign writes.
	induced := old < wts && k.counts(writer)
	if induced {
		top.TRMS++
		if writer == kernelWriter {
			top.InducedExternal++
			k.InducedExternal++
		} else {
			top.InducedThread++
			k.InducedThread++
		}
	}
	if old != 0 && old >= top.TS {
		return // the topmost activation already accessed the cell
	}
	top.RMS++
	if !induced {
		top.TRMS++
	}
	if old == 0 {
		return
	}
	// The cell was last accessed under an ancestor, whose partials are
	// decremented so its own totals are unchanged. An induced read already
	// counted as new trms input for every ancestor, so only rms is adjusted.
	if j := s.findFrame(old); j >= 0 {
		s[j].RMS--
		if !induced {
			s[j].TRMS--
		}
	}
}

// counts reports whether a write with provenance writer makes a later read
// an induced first-access under the kernel's options.
func (k *Kernel[T]) counts(writer uint32) bool {
	if writer == kernelWriter {
		return !k.noExternal
	}
	return !k.noThread
}
