package tools

import (
	"fmt"

	"repro/internal/guest"
	"repro/internal/shadow"
)

// Memcheck detects memory errors the way Valgrind's memcheck does: it
// shadows every heap cell with a state byte (unallocated, allocated but
// undefined, defined, freed), updated on every load, store and heap event.
// Cells outside tracked heap blocks (static program data) are ignored, as
// memcheck ignores memory it did not see being allocated.
type Memcheck struct {
	guest.BaseTool

	state *shadow.Table[uint8]
	cur   shadow.Cursor[uint8] // persistent cursor over state

	// Error counters.
	uninitReads    uint64
	useAfterFrees  uint64
	invalidFrees   uint64
	leakedBlocks   uint64
	leakedCells    uint64
	firstErrors    []string
	maxErrorDetail int

	live map[guest.Addr]int // base -> size of live heap blocks
}

// Shadow-cell states.
const (
	cellUntracked uint8 = iota
	cellUndefined
	cellDefined
	cellFreed
)

// NewMemcheck returns a Memcheck tool.
func NewMemcheck() *Memcheck {
	mc := &Memcheck{
		state:          shadow.NewTable[uint8](),
		live:           make(map[guest.Addr]int),
		maxErrorDetail: 16,
	}
	mc.cur = mc.state.Cursor()
	return mc
}

// UninitReads returns the number of reads of undefined heap cells.
func (mc *Memcheck) UninitReads() uint64 { return mc.uninitReads }

// UseAfterFrees returns the number of accesses to freed heap cells.
func (mc *Memcheck) UseAfterFrees() uint64 { return mc.useAfterFrees }

// InvalidFrees returns the number of frees of untracked addresses.
func (mc *Memcheck) InvalidFrees() uint64 { return mc.invalidFrees }

// Leaks returns the number of blocks (and total cells) never freed.
func (mc *Memcheck) Leaks() (blocks, cells uint64) { return mc.leakedBlocks, mc.leakedCells }

// Errors returns descriptions of the first few detected errors.
func (mc *Memcheck) Errors() []string { return mc.firstErrors }

// ShadowBytes reports the footprint of the state shadow memory.
func (mc *Memcheck) ShadowBytes() uint64 { return mc.state.FootprintBytes() }

func (mc *Memcheck) report(format string, args ...any) {
	if len(mc.firstErrors) < mc.maxErrorDetail {
		mc.firstErrors = append(mc.firstErrors, fmt.Sprintf(format, args...))
	}
}

// read checks a load of cell a by thread t (or by the kernel on its
// behalf, which reads the buffer like the thread would).
func (mc *Memcheck) read(t guest.ThreadID, a guest.Addr) {
	switch mc.cur.Peek(a) {
	case cellUndefined:
		mc.uninitReads++
		mc.report("thread %d: read of undefined cell %#x", t, a)
	case cellFreed:
		mc.useAfterFrees++
		mc.report("thread %d: read of freed cell %#x", t, a)
	}
}

// write defines cell a, stored by thread t or filled with device data by
// the kernel on its behalf.
func (mc *Memcheck) write(t guest.ThreadID, a guest.Addr) {
	s := mc.cur.Slot(a)
	switch *s {
	case cellUndefined:
		*s = cellDefined
	case cellFreed:
		mc.useAfterFrees++
		mc.report("thread %d: write to freed cell %#x", t, a)
	}
}

// MemBatch implements guest.Tool.
func (mc *Memcheck) MemBatch(t guest.ThreadID, _ uint64, events []guest.MemEvent) {
	for _, e := range events {
		if e.IsWrite() {
			mc.write(t, e.Addr())
		} else {
			mc.read(t, e.Addr())
		}
	}
}

// Alloc implements guest.Tool.
func (mc *Memcheck) Alloc(t guest.ThreadID, base guest.Addr, n int) {
	mc.live[base] = n
	for i := 0; i < n; i++ {
		*mc.cur.Slot(base + guest.Addr(i)) = cellUndefined
	}
}

// Free implements guest.Tool.
func (mc *Memcheck) Free(t guest.ThreadID, base guest.Addr, n int) {
	if _, ok := mc.live[base]; !ok {
		mc.invalidFrees++
		mc.report("thread %d: invalid free of %#x", t, base)
		return
	}
	delete(mc.live, base)
	for i := 0; i < n; i++ {
		*mc.cur.Slot(base + guest.Addr(i)) = cellFreed
	}
}

// Finish implements guest.Tool: remaining live blocks are leaks.
func (mc *Memcheck) Finish() {
	for base, n := range mc.live {
		mc.leakedBlocks++
		mc.leakedCells += uint64(n)
		mc.report("leak: block %#x (%d cells) never freed", base, n)
	}
}
