package tools

import (
	"fmt"

	"repro/internal/guest"
)

// Helgrind detects data races with a FastTrack-style happens-before analysis,
// the approach of Valgrind's helgrind: vector clocks per thread, joined
// through synchronization objects on release/acquire, and per-cell
// last-write/last-read epochs checked on every memory access. Like the
// original it is the most expensive tool of the suite, in both time (vector
// operations per access) and space (per-cell access history).
type Helgrind struct {
	guest.BaseTool

	clocks map[guest.ThreadID]vectorClock
	syncVC map[guest.SyncID]vectorClock
	cells  map[guest.Addr]*cellHistory

	races      uint64
	firstRaces []string
	maxDetail  int
}

// vectorClock maps thread ids (1-based) to logical clocks; index 0 unused.
type vectorClock []uint32

func (vc vectorClock) get(t guest.ThreadID) uint32 {
	if int(t) < len(vc) {
		return vc[t]
	}
	return 0
}

func (vc *vectorClock) set(t guest.ThreadID, v uint32) {
	for int(t) >= len(*vc) {
		*vc = append(*vc, 0)
	}
	(*vc)[t] = v
}

func (vc *vectorClock) join(o vectorClock) {
	for i, v := range o {
		if v > vc.get(guest.ThreadID(i)) {
			vc.set(guest.ThreadID(i), v)
		}
	}
}

func (vc vectorClock) clone() vectorClock {
	out := make(vectorClock, len(vc))
	copy(out, vc)
	return out
}

// epoch is one (thread, clock) access stamp.
type epoch struct {
	tid guest.ThreadID
	clk uint32
}

func (e epoch) isSet() bool { return e.clk != 0 }

// happensBefore reports whether the epoch is ordered before the thread state
// represented by vc.
func (e epoch) happensBefore(vc vectorClock) bool { return e.clk <= vc.get(e.tid) }

// cellHistory is the per-cell FastTrack state: the last write epoch, and
// either a single last-read epoch or a read vector for read-shared cells.
type cellHistory struct {
	write epoch
	read  epoch
	reads vectorClock // non-nil when the cell is read-shared
}

// NewHelgrind returns a Helgrind tool.
func NewHelgrind() *Helgrind {
	return &Helgrind{
		clocks:    make(map[guest.ThreadID]vectorClock),
		syncVC:    make(map[guest.SyncID]vectorClock),
		cells:     make(map[guest.Addr]*cellHistory),
		maxDetail: 16,
	}
}

// Races returns the number of detected racy accesses.
func (h *Helgrind) Races() uint64 { return h.races }

// RaceReports returns descriptions of the first few detected races.
func (h *Helgrind) RaceReports() []string { return h.firstRaces }

// CellsTracked returns the number of cells with access history, a proxy for
// the tool's dominant space cost.
func (h *Helgrind) CellsTracked() int { return len(h.cells) }

// FootprintBytes estimates the detector's analysis state: per-cell access
// histories (the dominant cost) plus thread and sync-object vector clocks.
func (h *Helgrind) FootprintBytes() uint64 {
	// Map entry + cellHistory struct per tracked cell, plus read vectors.
	total := uint64(len(h.cells)) * (16 + 40)
	for _, c := range h.cells {
		total += uint64(cap(c.reads)) * 4
	}
	for _, vc := range h.clocks {
		total += uint64(cap(vc)) * 4
	}
	for _, vc := range h.syncVC {
		total += uint64(cap(vc)) * 4
	}
	return total
}

func (h *Helgrind) race(format string, args ...any) {
	h.races++
	if len(h.firstRaces) < h.maxDetail {
		h.firstRaces = append(h.firstRaces, fmt.Sprintf(format, args...))
	}
}

func (h *Helgrind) clock(t guest.ThreadID) vectorClock {
	vc := h.clocks[t]
	if vc == nil {
		vc = vectorClock{}
		vc.set(t, 1)
		h.clocks[t] = vc
	}
	return vc
}

func (h *Helgrind) cell(a guest.Addr) *cellHistory {
	c := h.cells[a]
	if c == nil {
		c = &cellHistory{}
		h.cells[a] = c
	}
	return c
}

// ThreadStart implements guest.Tool: the child inherits the parent's clock
// (fork edge) and the parent advances.
func (h *Helgrind) ThreadStart(t, parent guest.ThreadID) {
	if parent == 0 {
		h.clock(t)
		return
	}
	pvc := h.clock(parent)
	child := pvc.clone()
	child.set(t, 1)
	h.clocks[t] = child
	pvc.set(parent, pvc.get(parent)+1)
	h.clocks[parent] = pvc
}

// Sync implements guest.Tool: release publishes the thread's clock into the
// object; acquire imports it (join edges of the happens-before order).
func (h *Helgrind) Sync(t guest.ThreadID, kind guest.SyncKind, s guest.SyncID) {
	vc := h.clock(t)
	switch kind {
	case guest.SyncRelease:
		sv := h.syncVC[s]
		if sv == nil {
			sv = vectorClock{}
		}
		sv.join(vc)
		h.syncVC[s] = sv
		vc.set(t, vc.get(t)+1)
		h.clocks[t] = vc
	case guest.SyncAcquire:
		if sv := h.syncVC[s]; sv != nil {
			vc.join(sv)
			h.clocks[t] = vc
		}
	}
}

// MemBatch implements guest.Tool. The kernel accesses memory with the
// requesting thread's identity: system calls are synchronous.
func (h *Helgrind) MemBatch(t guest.ThreadID, _ uint64, events []guest.MemEvent) {
	for _, e := range events {
		if e.IsWrite() {
			h.write(t, e.Addr())
		} else {
			h.read(t, e.Addr())
		}
	}
}

// read checks a load of cell a by thread t.
func (h *Helgrind) read(t guest.ThreadID, a guest.Addr) {
	vc := h.clock(t)
	c := h.cell(a)
	if c.write.isSet() && c.write.tid != t && !c.write.happensBefore(vc) {
		h.race("write-read race on %#x: write by t%d unordered with read by t%d", a, c.write.tid, t)
	}
	switch {
	case c.reads != nil:
		c.reads.set(t, vc.get(t))
	case !c.read.isSet() || c.read.tid == t || c.read.happensBefore(vc):
		c.read = epoch{tid: t, clk: vc.get(t)}
	default:
		// Concurrent readers: promote to a read vector.
		rv := vectorClock{}
		rv.set(c.read.tid, c.read.clk)
		rv.set(t, vc.get(t))
		c.reads = rv
		c.read = epoch{}
	}
}

// write checks a store to cell a by thread t.
func (h *Helgrind) write(t guest.ThreadID, a guest.Addr) {
	vc := h.clock(t)
	c := h.cell(a)
	if c.write.isSet() && c.write.tid != t && !c.write.happensBefore(vc) {
		h.race("write-write race on %#x: writes by t%d and t%d unordered", a, c.write.tid, t)
	}
	if c.reads != nil {
		for i, clk := range c.reads {
			rt := guest.ThreadID(i)
			if clk != 0 && rt != t && clk > vc.get(rt) {
				h.race("read-write race on %#x: read by t%d unordered with write by t%d", a, rt, t)
			}
		}
	} else if c.read.isSet() && c.read.tid != t && !c.read.happensBefore(vc) {
		h.race("read-write race on %#x: read by t%d unordered with write by t%d", a, c.read.tid, t)
	}
	c.write = epoch{tid: t, clk: vc.get(t)}
	c.read = epoch{}
	c.reads = nil
}
