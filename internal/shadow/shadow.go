// Package shadow provides the three-level shadow memory used by the
// profiler, mirroring the organization described in Section 5 of the paper:
// a primary table indexes 2048 secondary tables, each covering a gigabyte
// range of the address space through 16 K chunk slots, and each chunk shadows
// a contiguous run of 16 K memory cells with one 32-bit value per cell.
// Chunks are allocated on first touch, so only address ranges a thread
// actually accesses consume shadow space — the property the paper relies on
// to keep per-thread shadow memories cheap for embarrassingly parallel
// programs.
package shadow

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/guest"
	"repro/internal/telemetry"
)

// Shadow geometry. An address decomposes into primary index (high bits),
// secondary index, and chunk offset (low bits). The paper's chunks shadow
// 64 KB of address space at 4-byte granularity — 16 K timestamps per chunk —
// a secondary table of 16 K chunk slots covers 1 GB, and the primary table
// holds 2048 secondaries.
const (
	ChunkBits = 14 // cells per chunk: 16 K
	secBits   = 14 // chunks per secondary: 16 K
	priBits   = 11 // secondaries in the primary table: 2048

	ChunkSize = 1 << ChunkBits
	secSize   = 1 << secBits
	priSize   = 1 << priBits

	// MaxAddrBits is the width of the shadowed address space.
	MaxAddrBits = ChunkBits + secBits + priBits
)

// Table is a three-level shadow memory mapping guest addresses to values of
// type T. The zero value of T means "no shadow state": lookups of untouched
// addresses return it without allocating.
type Table[T comparable] struct {
	primary [priSize]*secondary[T]

	secondaries int
	chunks      int
	// allocated records every chunk handed out by chunkFor together with
	// its index slot, so Release can recycle chunks and secondaries without
	// scanning the index tables.
	allocated []chunkLoc[T]
	secList   []*secondary[T]

	// lastChunk caches the most recently touched chunk for the sequential
	// access patterns that dominate guest programs.
	lastBase  uint64
	lastChunk *chunk[T]
}

type secondary[T comparable] struct {
	chunks [secSize]*chunk[T]
}

// chunkLoc remembers where an allocated chunk is indexed, for Release.
type chunkLoc[T comparable] struct {
	sec *secondary[T]
	si  uint32
}

// chunk is the paper's bare run of 16 K shadow cells. It carries no other
// field, so a 32-bit chunk is exactly 64 KB and fills its size class.
type chunk[T comparable] struct {
	vals [ChunkSize]T
}

// NewTable returns an empty shadow table.
func NewTable[T comparable]() *Table[T] {
	return &Table[T]{lastBase: ^uint64(0)}
}

func (t *Table[T]) index(a guest.Addr) (pi, si, off uint64) {
	u := uint64(a)
	if u>>MaxAddrBits != 0 {
		panic(fmt.Sprintf("shadow: address %#x outside the %d-bit shadowed space", u, MaxAddrBits))
	}
	return u >> (ChunkBits + secBits), (u >> ChunkBits) & (secSize - 1), u & (ChunkSize - 1)
}

// chunkPool32 and chunkPool64 recycle chunk slabs of the two hot element
// widths across tables, and secPool32/secPool64 recycle the secondary index
// tables (16 K pointer slots each — expensive both to allocate and for the
// garbage collector to scan). Per-thread shadow memories live only as long
// as their thread, so without recycling every thread of every run allocates
// (and garbage-collects) tens of 64 KB slabs; the pools turn that into a
// Get plus a memclr. Slabs of other element types are simply not pooled.
var (
	chunkPool32 sync.Pool
	chunkPool64 sync.Pool
	secPool32   sync.Pool
	secPool64   sync.Pool
)

// stats tallies pool traffic process-wide (the pools themselves are global
// and shared by concurrent pipeline workers, so the tallies are atomic).
// Every counter fires at chunk/secondary allocation granularity — once per
// 16 K shadow cells — so the cost is noise even with telemetry disabled.
var stats struct {
	chunksAllocated atomic.Uint64 // fresh chunk slabs from the heap
	chunksRecycled  atomic.Uint64 // chunk slabs reused from the pool
	chunksPooled    atomic.Uint64 // chunk slabs returned by Release
	secsAllocated   atomic.Uint64 // fresh secondary index tables
	secsRecycled    atomic.Uint64 // secondaries reused from the pool
	secsPooled      atomic.Uint64 // secondaries returned by Release
}

// PublishTelemetry copies the process-wide shadow allocation tallies into
// reg as shadow/* gauges. Gauges (Set, not Add) make publication
// idempotent: the counters are global, so republishing reports the current
// totals rather than double-counting. Safe with a nil registry.
func PublishTelemetry(reg *telemetry.Registry) {
	reg.Gauge("shadow/chunks_allocated").Set(int64(stats.chunksAllocated.Load()))
	reg.Gauge("shadow/chunks_recycled").Set(int64(stats.chunksRecycled.Load()))
	reg.Gauge("shadow/chunks_pooled").Set(int64(stats.chunksPooled.Load()))
	reg.Gauge("shadow/secondaries_allocated").Set(int64(stats.secsAllocated.Load()))
	reg.Gauge("shadow/secondaries_recycled").Set(int64(stats.secsRecycled.Load()))
	reg.Gauge("shadow/secondaries_pooled").Set(int64(stats.secsPooled.Load()))
}

// newChunk returns a zeroed chunk, recycling a pooled slab when one is
// available for the element type.
func newChunk[T comparable]() *chunk[T] {
	var z T
	switch any(z).(type) {
	case uint32:
		if v := chunkPool32.Get(); v != nil {
			ch := v.(*chunk[uint32])
			clear(ch.vals[:])
			stats.chunksRecycled.Add(1)
			return any(ch).(*chunk[T])
		}
	case uint64:
		if v := chunkPool64.Get(); v != nil {
			ch := v.(*chunk[uint64])
			clear(ch.vals[:])
			stats.chunksRecycled.Add(1)
			return any(ch).(*chunk[T])
		}
	}
	stats.chunksAllocated.Add(1)
	return new(chunk[T])
}

// newSecondary returns an all-nil secondary index table, recycling a pooled
// one when available (Release returns secondaries with every slot nil-ed).
func newSecondary[T comparable]() *secondary[T] {
	var z T
	switch any(z).(type) {
	case uint32:
		if v := secPool32.Get(); v != nil {
			stats.secsRecycled.Add(1)
			return any(v.(*secondary[uint32])).(*secondary[T])
		}
	case uint64:
		if v := secPool64.Get(); v != nil {
			stats.secsRecycled.Add(1)
			return any(v.(*secondary[uint64])).(*secondary[T])
		}
	}
	stats.secsAllocated.Add(1)
	return new(secondary[T])
}

// Release returns every chunk slab to the recycling pool and detaches the
// table's index so a stray later access cannot reach a recycled slab. The
// chunk and secondary counters are preserved so footprint accounting
// (FootprintBytes, IndexBytes) remains valid on a released table.
func (t *Table[T]) Release() {
	var z T
	for _, loc := range t.allocated {
		ch := loc.sec.chunks[loc.si]
		loc.sec.chunks[loc.si] = nil
		switch any(z).(type) {
		case uint32:
			chunkPool32.Put(any(ch).(*chunk[uint32]))
			stats.chunksPooled.Add(1)
		case uint64:
			chunkPool64.Put(any(ch).(*chunk[uint64]))
			stats.chunksPooled.Add(1)
		}
	}
	t.allocated = nil
	// Every chunk slot was just nil-ed, so the secondaries go back to the
	// pool empty.
	for _, sec := range t.secList {
		switch any(z).(type) {
		case uint32:
			secPool32.Put(any(sec).(*secondary[uint32]))
			stats.secsPooled.Add(1)
		case uint64:
			secPool64.Put(any(sec).(*secondary[uint64]))
			stats.secsPooled.Add(1)
		}
	}
	t.secList = nil
	for pi := 0; pi < priSize; pi++ {
		t.primary[pi] = nil
	}
	t.lastBase = ^uint64(0)
	t.lastChunk = nil
}

// chunkFor returns the chunk shadowing a, allocating it if needed.
func (t *Table[T]) chunkFor(a guest.Addr) *chunk[T] {
	base := uint64(a) >> ChunkBits
	if t.lastChunk != nil && t.lastBase == base {
		return t.lastChunk
	}
	pi, si, _ := t.index(a)
	sec := t.primary[pi]
	if sec == nil {
		sec = newSecondary[T]()
		t.primary[pi] = sec
		t.secondaries++
		t.secList = append(t.secList, sec)
	}
	ch := sec.chunks[si]
	if ch == nil {
		ch = newChunk[T]()
		sec.chunks[si] = ch
		t.chunks++
		t.allocated = append(t.allocated, chunkLoc[T]{sec: sec, si: uint32(si)})
	}
	t.lastBase = base
	t.lastChunk = ch
	return ch
}

// Slot returns a pointer to the shadow cell for a, allocating shadow space
// on first touch. Use it for read-modify-write sequences.
func (t *Table[T]) Slot(a guest.Addr) *T {
	return &t.chunkFor(a).vals[uint64(a)&(ChunkSize-1)]
}

// Set stores v in the shadow cell for a.
func (t *Table[T]) Set(a guest.Addr, v T) {
	t.chunkFor(a).vals[uint64(a)&(ChunkSize-1)] = v
}

// Get returns the shadow cell for a, allocating on first touch. Prefer Peek
// on read-only paths.
func (t *Table[T]) Get(a guest.Addr) T {
	return t.chunkFor(a).vals[uint64(a)&(ChunkSize-1)]
}

// Peek returns the shadow cell for a without allocating: untouched addresses
// yield the zero value.
func (t *Table[T]) Peek(a guest.Addr) T {
	base := uint64(a) >> ChunkBits
	if t.lastChunk != nil && t.lastBase == base {
		return t.lastChunk.vals[uint64(a)&(ChunkSize-1)]
	}
	pi, si, off := t.index(a)
	sec := t.primary[pi]
	if sec == nil {
		var zero T
		return zero
	}
	ch := sec.chunks[si]
	if ch == nil {
		var zero T
		return zero
	}
	t.lastBase = base
	t.lastChunk = ch
	return ch.vals[off]
}

// Cursor is a one-chunk window into a Table for batch loops. It caches the
// chunk of the most recently resolved address in a struct small enough for
// the fast paths to inline, so runs of nearby addresses cost one shift, one
// compare and one array index instead of a table walk per access. A cursor
// is only valid while the table's chunks cannot move: it must not be held
// across a Release, and it observes in-place value rewrites (renumbering)
// transparently.
type Cursor[T comparable] struct {
	t    *Table[T]
	base guest.Addr // a >> ChunkBits of the cached chunk
	vals *[ChunkSize]T
}

// Cursor returns a cursor over t, initially positioned nowhere.
func (t *Table[T]) Cursor() Cursor[T] {
	return Cursor[T]{t: t, base: ^guest.Addr(0)}
}

// Chunk returns the chunk values covering a, allocating shadow space on
// first touch. The caller indexes the array with a&(ChunkSize-1); keeping
// the index expression at the call site keeps this accessor well inside the
// inlining budget, which is the point of the cursor.
func (c *Cursor[T]) Chunk(a guest.Addr) *[ChunkSize]T {
	if a>>ChunkBits == c.base {
		return c.vals
	}
	return c.chunkSlow(a)
}

func (c *Cursor[T]) chunkSlow(a guest.Addr) *[ChunkSize]T {
	ch := c.t.chunkFor(a)
	c.base = a >> ChunkBits
	c.vals = &ch.vals
	return &ch.vals
}

// Slot returns a pointer to the shadow cell for a, allocating shadow space
// on first touch.
func (c *Cursor[T]) Slot(a guest.Addr) *T {
	return &c.Chunk(a)[a&(ChunkSize-1)]
}

// Peek returns the shadow cell for a without allocating: untouched addresses
// yield the zero value.
func (c *Cursor[T]) Peek(a guest.Addr) T {
	if a>>ChunkBits == c.base {
		return c.vals[a&(ChunkSize-1)]
	}
	return c.peekSlow(a)
}

// peekSlow resolves a cache miss. Only existing chunks are cached: a missing
// chunk must not be remembered as absent, because a later write through the
// same or another cursor may allocate it.
func (c *Cursor[T]) peekSlow(a guest.Addr) T {
	pi, si, off := c.t.index(a)
	sec := c.t.primary[pi]
	if sec == nil {
		var zero T
		return zero
	}
	ch := sec.chunks[si]
	if ch == nil {
		var zero T
		return zero
	}
	c.base = a >> ChunkBits
	c.vals = &ch.vals
	return ch.vals[off]
}

// RangeChunks calls f for every allocated chunk with the address of its first
// cell and a mutable view of its values. Iteration order is ascending by
// address. f may rewrite values in place (used by timestamp renumbering).
func (t *Table[T]) RangeChunks(f func(base guest.Addr, vals *[ChunkSize]T)) {
	for pi := 0; pi < priSize; pi++ {
		sec := t.primary[pi]
		if sec == nil {
			continue
		}
		for si := 0; si < secSize; si++ {
			ch := sec.chunks[si]
			if ch == nil {
				continue
			}
			base := guest.Addr(uint64(pi)<<(ChunkBits+secBits) | uint64(si)<<ChunkBits)
			f(base, &ch.vals)
		}
	}
}

// Range calls f for every shadow cell holding a non-zero value, in ascending
// address order.
func (t *Table[T]) Range(f func(a guest.Addr, v T)) {
	var zero T
	t.RangeChunks(func(base guest.Addr, vals *[ChunkSize]T) {
		for off := range vals {
			if vals[off] != zero {
				f(base+guest.Addr(off), vals[off])
			}
		}
	})
}

// Chunks returns the number of allocated chunks.
func (t *Table[T]) Chunks() int { return t.chunks }

// NonZero counts the shadow cells holding a non-zero value. It walks every
// allocated chunk, so it is a diagnostic (used by the deep invariant checks
// to pre-size their relation snapshots), not a hot-path accessor.
func (t *Table[T]) NonZero() int {
	var zero T
	n := 0
	t.RangeChunks(func(_ guest.Addr, vals *[ChunkSize]T) {
		for off := range vals {
			if vals[off] != zero {
				n++
			}
		}
	})
	return n
}

// FootprintBytes reports the memory consumed by the table's allocated shadow
// chunks — the component that scales with the memory the program touches.
// The fixed-size index tables (IndexBytes) are reported separately: at the
// paper's MB-to-GB workload scales they are noise, while at this
// reproduction's KB scales they would drown the signal.
func (t *Table[T]) FootprintBytes() uint64 {
	var v T
	elem := uint64(sizeOf(v))
	return uint64(t.chunks) * ChunkSize * elem
}

// IndexBytes reports the memory consumed by the secondary index tables.
func (t *Table[T]) IndexBytes() uint64 {
	return uint64(t.secondaries) * secSize * 8
}

func sizeOf(v any) int {
	switch v.(type) {
	case uint8, int8:
		return 1
	case uint16, int16:
		return 2
	case uint32, int32, float32:
		return 4
	default:
		return 8
	}
}
