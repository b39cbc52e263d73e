// Package shadow provides the shadow memory used by the profiler. As in
// Section 5 of the paper, each chunk shadows a contiguous run of 16 K memory
// cells with one value per cell, and chunks are allocated on first touch, so
// only address ranges a thread actually accesses consume shadow space — the
// property the paper relies on to keep per-thread shadow memories cheap for
// embarrassingly parallel programs.
//
// The paper finds a chunk through a primary table of 1 GB secondary tables.
// Here a table finds it through one directory, a map keyed by chunk number
// (address >> ChunkBits): at this reproduction's footprints a thread touches
// a few chunks in each of a few gigabyte ranges, so every chunk would bring
// its own 16 K-slot secondary, and the index would outweigh the cells. The
// directory costs one map entry per chunk, and a Cursor keeps runs of nearby
// accesses off it.
package shadow

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"

	"repro/internal/guest"
	"repro/internal/telemetry"
)

// Shadow geometry. The paper's chunks shadow 64 KB of address space at
// 4-byte granularity: 16 K timestamps per chunk.
const (
	ChunkBits = 14 // cells per chunk: 16 K
	ChunkSize = 1 << ChunkBits

	// MaxAddrBits is the width of the shadowed address space; touching an
	// address at or above 1<<MaxAddrBits panics.
	MaxAddrBits = 39
)

// Table is a shadow memory mapping guest addresses to values of type T. The
// zero value of T means "no shadow state": peeks at untouched addresses
// return it without allocating. Cells are read and written through a Cursor.
type Table[T comparable] struct {
	dir map[uint64]*chunk[T] // chunk number (address >> ChunkBits) -> chunk
}

// chunk is the paper's bare run of 16 K shadow cells. It carries no other
// field, so a 32-bit chunk is exactly 64 KB and fills its size class.
type chunk[T comparable] struct {
	vals [ChunkSize]T
}

// NewTable returns an empty shadow table.
func NewTable[T comparable]() *Table[T] {
	return &Table[T]{dir: make(map[uint64]*chunk[T])}
}

// chunkNum returns the directory key of the chunk shadowing a.
func chunkNum(a guest.Addr) uint64 {
	u := uint64(a)
	if u>>MaxAddrBits != 0 {
		panic(fmt.Sprintf("shadow: address %#x outside the %d-bit shadowed space", u, MaxAddrBits))
	}
	return u >> ChunkBits
}

// chunkPool32 and chunkPool64 recycle chunk slabs of the two hot element
// widths across tables. Per-thread shadow memories live only as long as
// their thread, so without recycling every thread of every run allocates
// (and garbage-collects) tens of 64 KB slabs; the pools turn that into a
// Get plus a memclr. Slabs of other element types are simply not pooled.
var (
	chunkPool32 sync.Pool
	chunkPool64 sync.Pool
)

// stats tallies pool traffic process-wide (the pools themselves are global
// and shared by concurrent pipeline workers, so the tallies are atomic).
// Every counter fires at chunk granularity — once per 16 K shadow cells —
// so the cost is noise even with telemetry disabled.
var stats struct {
	chunksAllocated atomic.Uint64 // fresh chunk slabs from the heap
	chunksRecycled  atomic.Uint64 // chunk slabs reused from the pool
	chunksPooled    atomic.Uint64 // chunk slabs returned by Release
}

// PublishTelemetry copies the process-wide shadow allocation tallies into
// reg as shadow/* gauges. Gauges (Set, not Add) make publication
// idempotent: the counters are global, so republishing reports the current
// totals rather than double-counting. Safe with a nil registry.
func PublishTelemetry(reg *telemetry.Registry) {
	reg.Gauge("shadow/chunks_allocated").Set(int64(stats.chunksAllocated.Load()))
	reg.Gauge("shadow/chunks_recycled").Set(int64(stats.chunksRecycled.Load()))
	reg.Gauge("shadow/chunks_pooled").Set(int64(stats.chunksPooled.Load()))
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

// Release returns every chunk slab to the recycling pool and empties the
// directory, so a stray later access cannot reach a recycled slab. The table
// stays usable and reads as untouched; cursors over it must be replaced
// (t.Cursor()), since they may still point at a recycled slab.
func (t *Table[T]) Release() {
	var z T
	for _, ch := range t.dir {
		switch any(z).(type) {
		case uint32:
			chunkPool32.Put(any(ch).(*chunk[uint32]))
			stats.chunksPooled.Add(1)
		case uint64:
			chunkPool64.Put(any(ch).(*chunk[uint64]))
			stats.chunksPooled.Add(1)
		}
	}
	clear(t.dir)
}

// Cursor is a one-chunk window into a Table, and the table's only accessor
// for single cells. It caches the chunk of the most recently resolved
// address in a struct small enough for the fast paths to inline, so runs of
// nearby addresses cost one shift, one compare and one array index instead
// of a directory lookup per access. A cursor is only valid while the table's
// chunks cannot move: it must not be held across a Release, and it observes
// in-place value rewrites (renumbering) and allocations made through other
// cursors transparently.
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

// chunkSlow resolves a cache miss, allocating the chunk on first touch.
func (c *Cursor[T]) chunkSlow(a guest.Addr) *[ChunkSize]T {
	n := chunkNum(a)
	ch := c.t.dir[n]
	if ch == nil {
		ch = newChunk[T]()
		c.t.dir[n] = ch
	}
	c.base = a >> ChunkBits
	c.vals = &ch.vals
	return &ch.vals
}

// Slot returns a pointer to the shadow cell for a, allocating shadow space
// on first touch. Use it for read-modify-write sequences.
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
	ch := c.t.dir[chunkNum(a)]
	if ch == nil {
		var zero T
		return zero
	}
	c.base = a >> ChunkBits
	c.vals = &ch.vals
	return ch.vals[a&(ChunkSize-1)]
}

// RangeChunks calls f for every allocated chunk with the address of its first
// cell and a mutable view of its values. Iteration order is ascending by
// address: timestamp renumbering and the deep invariant checks report in
// this order. f may rewrite values in place (used by timestamp renumbering).
func (t *Table[T]) RangeChunks(f func(base guest.Addr, vals *[ChunkSize]T)) {
	nums := make([]uint64, 0, len(t.dir))
	for n := range t.dir {
		nums = append(nums, n)
	}
	slices.Sort(nums)
	for _, n := range nums {
		f(guest.Addr(n<<ChunkBits), &t.dir[n].vals)
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
func (t *Table[T]) Chunks() int { return len(t.dir) }

// NonZero counts the shadow cells holding a non-zero value. It walks every
// allocated chunk, so it is a diagnostic (used by the deep invariant checks
// to pre-size their relation snapshots), not a hot-path accessor.
func (t *Table[T]) NonZero() int {
	n := 0
	t.Range(func(guest.Addr, T) { n++ })
	return n
}

// FootprintBytes reports the memory consumed by the table's allocated shadow
// chunks — the component that scales with the memory the program touches.
// The directory adds one map entry per chunk, noise beside a 64 KB chunk.
func (t *Table[T]) FootprintBytes() uint64 {
	return uint64(len(t.dir)) * uint64(unsafe.Sizeof(chunk[T]{}))
}
