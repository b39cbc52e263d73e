package core

import (
	"repro/internal/guest"
)

// Naive computes trms and rms with the paper's simple-minded approach
// (Fig. 10): explicit per-activation sets of accessed memory cells, updated
// by walking the whole shadow stack on every access, plus per-thread
// last-access books for recognizing induced first-accesses. It is
// asymptotically worse than Profiler in both time (stack walking, cross-
// thread invalidation) and space (a cell may live in every pending
// activation's set of every thread), and exists as the executable
// specification the timestamping algorithm is differentially tested and
// benchmarked against.
type Naive struct {
	opts Options
	env  guest.Env

	threads map[guest.ThreadID]*naiveThread

	// lastWriter records, per cell, who wrote it last: 0 none, thread
	// id + 1, or kernelWriter.
	lastWriter map[guest.Addr]uint32

	profile *Profile
}

type naiveThread struct {
	stack []naiveFrame

	// accessed records the cells this thread has read or written since
	// the last foreign write to them — the set-based counterpart of the
	// ts_t[l] >= wts[l] relation.
	accessed map[guest.Addr]bool
}

type naiveFrame struct {
	rtn     guest.RoutineID
	bbEnter uint64

	// seen is the activation's L set restricted to its own subtree's
	// accesses: the first-access test for both metrics.
	seen map[guest.Addr]bool

	trms            int64
	rms             int64
	inducedThread   uint64
	inducedExternal uint64
}

// NewNaive returns the reference profiler.
func NewNaive(opts Options) *Naive {
	return &Naive{
		opts:       opts,
		threads:    make(map[guest.ThreadID]*naiveThread),
		lastWriter: make(map[guest.Addr]uint32),
		profile:    newProfile(),
	}
}

// Profile returns the collected profile.
func (n *Naive) Profile() *Profile { return n.profile }

func (n *Naive) view(t guest.ThreadID) *naiveThread {
	tv := n.threads[t]
	if tv == nil {
		tv = &naiveThread{accessed: make(map[guest.Addr]bool)}
		n.threads[t] = tv
	}
	return tv
}

// Attach implements guest.Tool.
func (n *Naive) Attach(env guest.Env) { n.env = env }

// ThreadStart implements guest.Tool.
func (n *Naive) ThreadStart(t, parent guest.ThreadID) { n.view(t) }

// ThreadExit implements guest.Tool.
func (n *Naive) ThreadExit(t guest.ThreadID) { delete(n.threads, t) }

// SwitchThread implements guest.Tool (the naive algorithm needs no clock).
func (n *Naive) SwitchThread(from, to guest.ThreadID) {}

// Call implements guest.Tool.
func (n *Naive) Call(t guest.ThreadID, r guest.RoutineID, bb uint64) {
	tv := n.view(t)
	tv.stack = append(tv.stack, naiveFrame{rtn: r, bbEnter: bb, seen: make(map[guest.Addr]bool)})
}

// Return implements guest.Tool.
func (n *Naive) Return(t guest.ThreadID, r guest.RoutineID, bb uint64) {
	tv := n.view(t)
	if len(tv.stack) == 0 {
		return
	}
	f := tv.stack[len(tv.stack)-1]
	tv.stack = tv.stack[:len(tv.stack)-1]

	name := n.env.RoutineName(f.rtn)
	n.profile.record(name, t, &Frame[uint32]{
		TRMS:            f.trms,
		RMS:             f.rms,
		InducedThread:   f.inducedThread,
		InducedExternal: f.inducedExternal,
	}, bb-f.bbEnter)

	// A completed subtree's accesses belong to the parent's subtree; its
	// metrics were counted per-frame already.
	if len(tv.stack) > 0 {
		parent := &tv.stack[len(tv.stack)-1]
		for a := range f.seen {
			parent.seen[a] = true
		}
	}
}

// MemBatch implements guest.Tool, one event at a time. A kernel read is a
// read by the thread.
func (n *Naive) MemBatch(t guest.ThreadID, _ uint64, events []guest.MemEvent) {
	for _, e := range events {
		switch {
		case e.IsKernel() && e.IsWrite():
			n.kernelWrite(e.Addr())
		case e.IsWrite():
			n.write(t, e.Addr())
		default:
			n.read(t, e.Addr())
		}
	}
}

// read updates every pending activation of the reading thread by direct
// stack walking.
func (n *Naive) read(t guest.ThreadID, a guest.Addr) {
	tv := n.view(t)

	w := n.lastWriter[a]
	foreign := w != 0 && w != uint32(t)+1
	induced := foreign && n.inducedEnabled(w) && !tv.accessed[a]

	if induced && len(tv.stack) > 0 {
		if w == kernelWriter {
			n.profile.InducedExternal++
		} else {
			n.profile.InducedThread++
		}
	}
	for i := range tv.stack {
		f := &tv.stack[i]
		if induced {
			// New input for every pending activation: none of them
			// accessed the cell since the foreign write.
			f.trms++
			if w == kernelWriter {
				f.inducedExternal++
			} else {
				f.inducedThread++
			}
		} else if !f.seen[a] {
			f.trms++
		}
		if !f.seen[a] {
			f.rms++
		}
		f.seen[a] = true
	}
	tv.accessed[a] = true
}

// write adds the cell to every pending activation's set for the writing
// thread and invalidates it for every other thread.
func (n *Naive) write(t guest.ThreadID, a guest.Addr) {
	tv := n.view(t)
	for i := range tv.stack {
		tv.stack[i].seen[a] = true
	}
	tv.accessed[a] = true
	for id, other := range n.threads {
		if id != t {
			delete(other.accessed, a)
		}
	}
	n.lastWriter[a] = uint32(t) + 1
}

// kernelWrite invalidates the cell for every thread, including the
// requester.
func (n *Naive) kernelWrite(a guest.Addr) {
	for _, tv := range n.threads {
		delete(tv.accessed, a)
	}
	n.lastWriter[a] = kernelWriter
}

// Sync implements guest.Tool (no-op).
func (n *Naive) Sync(guest.ThreadID, guest.SyncKind, guest.SyncID) {}

// Alloc implements guest.Tool (no-op).
func (n *Naive) Alloc(guest.ThreadID, guest.Addr, int) {}

// Free implements guest.Tool (no-op).
func (n *Naive) Free(guest.ThreadID, guest.Addr, int) {}

// Finish implements guest.Tool.
func (n *Naive) Finish() {}

func (n *Naive) inducedEnabled(writer uint32) bool {
	if writer == kernelWriter {
		return !n.opts.DisableExternal
	}
	return !n.opts.DisableThreadInduced
}
