package shadow

import (
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/guest"
)

func TestZeroValueWithoutAllocation(t *testing.T) {
	tb := NewTable[uint32]()
	c := tb.Cursor()
	if got := c.Peek(12345); got != 0 {
		t.Errorf("Peek of untouched cell = %d, want 0", got)
	}
	if tb.Chunks() != 0 {
		t.Errorf("Peek allocated %d chunks", tb.Chunks())
	}
	if got := *c.Slot(12345); got != 0 {
		t.Errorf("Slot of untouched cell = %d, want 0", got)
	}
	if tb.Chunks() != 1 {
		t.Errorf("Slot allocated %d chunks, want 1", tb.Chunks())
	}
}

// TestChunkHasNoPadding pins a chunk to its cells alone: any extra field
// pushes a 64 KB chunk[uint32] into the allocator's next size class
// (72 KB), 12.5% more shadow memory on every route.
func TestChunkHasNoPadding(t *testing.T) {
	if got, want := unsafe.Sizeof(chunk[uint32]{}), uintptr(ChunkSize*4); got != want {
		t.Errorf("sizeof chunk[uint32] = %d, want %d", got, want)
	}
	if got, want := unsafe.Sizeof(chunk[uint64]{}), uintptr(ChunkSize*8); got != want {
		t.Errorf("sizeof chunk[uint64] = %d, want %d", got, want)
	}
}

func TestSetGetRoundTrip(t *testing.T) {
	tb := NewTable[uint32]()
	w := tb.Cursor()
	addrs := []guest.Addr{0, 1, ChunkSize - 1, ChunkSize, 1 << 20, 1 << 32, 1<<MaxAddrBits - 1}
	for i, a := range addrs {
		*w.Slot(a) = uint32(i + 1)
	}
	// A second cursor sees the first one's writes through the directory.
	r := tb.Cursor()
	for i, a := range addrs {
		if got := r.Peek(a); got != uint32(i+1) {
			t.Errorf("Peek(%#x) = %d, want %d", a, got, i+1)
		}
		if got := *w.Slot(a); got != uint32(i+1) {
			t.Errorf("Slot(%#x) = %d, want %d", a, got, i+1)
		}
	}
	if tb.Chunks() != 5 { // 0, 1 and ChunkSize-1 share a chunk
		t.Errorf("Chunks() = %d, want 5", tb.Chunks())
	}
}

func TestSlotReadModifyWrite(t *testing.T) {
	tb := NewTable[uint32]()
	c := tb.Cursor()
	s := c.Slot(777)
	if *s != 0 {
		t.Fatalf("fresh slot = %d", *s)
	}
	*s = 41
	*s++
	if got := c.Peek(777); got != 42 {
		t.Errorf("after RMW, Peek = %d, want 42", got)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	for name, touch := range map[string]func(*Cursor[uint32], guest.Addr){
		"Slot": func(c *Cursor[uint32], a guest.Addr) { c.Slot(a) },
		"Peek": func(c *Cursor[uint32], a guest.Addr) { c.Peek(a) },
	} {
		for _, a := range []guest.Addr{1 << MaxAddrBits, 1<<MaxAddrBits + ChunkSize, ^guest.Addr(0)} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s(%#x): no panic for out-of-range address", name, a)
					}
				}()
				c := NewTable[uint32]().Cursor()
				*c.Slot(1<<MaxAddrBits - 1) = 1 // cache the top chunk first
				touch(&c, a)
			}()
		}
	}
}

// TestRangeOrderAndContents touches chunks in descending address order, far
// apart, and expects RangeChunks and Range to report them ascending.
func TestRangeOrderAndContents(t *testing.T) {
	tb := NewTable[uint32]()
	c := tb.Cursor()
	cells := []struct {
		a guest.Addr
		v uint32
	}{
		{1<<MaxAddrBits - 1, 1},
		{1 << 35, 2},
		{1 << 32, 3},
		{1 << 31, 4},
		{ChunkSize + 9, 5},
		{1 << 10, 6},
		{5, 7},
		{0, 8},
	}
	for _, cell := range cells {
		*c.Slot(cell.a) = cell.v
	}

	var bases []guest.Addr
	tb.RangeChunks(func(base guest.Addr, _ *[ChunkSize]uint32) { bases = append(bases, base) })
	wantBases := []guest.Addr{0, ChunkSize, 1 << 31, 1 << 32, 1 << 35, 1<<MaxAddrBits - ChunkSize}
	if len(bases) != len(wantBases) {
		t.Fatalf("RangeChunks bases = %#x, want %#x", bases, wantBases)
	}
	for i := range bases {
		if bases[i] != wantBases[i] {
			t.Fatalf("RangeChunks bases = %#x, want %#x", bases, wantBases)
		}
	}

	i := len(cells)
	tb.Range(func(a guest.Addr, v uint32) {
		i--
		if i < 0 {
			t.Fatalf("Range yielded extra cell (%#x,%d)", a, v)
		}
		if want := cells[i]; a != want.a || v != want.v {
			t.Errorf("Range yielded (%#x,%d), want (%#x,%d)", a, v, want.a, want.v)
		}
	})
	if i != 0 {
		t.Errorf("Range yielded %d cells, want %d", len(cells)-i, len(cells))
	}
	if n := tb.NonZero(); n != len(cells) {
		t.Errorf("NonZero() = %d, want %d", n, len(cells))
	}
}

func TestRangeChunksRewrite(t *testing.T) {
	tb := NewTable[uint32]()
	c := tb.Cursor()
	for i := guest.Addr(0); i < 100; i++ {
		*c.Slot(i) = uint32(i) + 1
	}
	tb.RangeChunks(func(base guest.Addr, vals *[ChunkSize]uint32) {
		for off := range vals {
			if vals[off] != 0 {
				vals[off] *= 2
			}
		}
	})
	for i := guest.Addr(0); i < 100; i++ {
		if got := c.Peek(i); got != (uint32(i)+1)*2 {
			t.Fatalf("after rewrite Peek(%d) = %d, want %d", i, got, (uint32(i)+1)*2)
		}
	}
}

// TestReleaseEmptiesAndRecycles checks that a released table reads as
// untouched and stays usable, and that the chunks it returned to the pool
// come back zeroed.
func TestReleaseEmptiesAndRecycles(t *testing.T) {
	const chunks = 16
	tb := NewTable[uint32]()
	c := tb.Cursor()
	for i := guest.Addr(0); i < chunks; i++ {
		vals := c.Chunk(i << 28)
		for off := range vals {
			vals[off] = ^uint32(0)
		}
	}
	tb.Release()
	if tb.Chunks() != 0 || tb.FootprintBytes() != 0 {
		t.Errorf("after Release: Chunks() = %d, FootprintBytes() = %d, want 0, 0", tb.Chunks(), tb.FootprintBytes())
	}
	c = tb.Cursor()
	for i := guest.Addr(0); i < chunks; i++ {
		for _, a := range []guest.Addr{i << 28, i<<28 + ChunkSize - 1} {
			if got := c.Peek(a); got != 0 {
				t.Errorf("after Release: Peek(%#x) = %#x, want 0", a, got)
			}
		}
	}
	if tb.Chunks() != 0 {
		t.Errorf("Peek after Release allocated %d chunks", tb.Chunks())
	}

	recycled := stats.chunksRecycled.Load()
	fresh := NewTable[uint32]()
	fc := fresh.Cursor()
	for i := guest.Addr(0); i < chunks; i++ {
		fc.Slot(i << ChunkBits)
	}
	if stats.chunksRecycled.Load() == recycled {
		t.Error("no chunk was recycled from the pool")
	}
	if n := fresh.NonZero(); n != 0 {
		t.Errorf("recycled chunks hold %d non-zero cells, want 0", n)
	}

	*c.Slot(7) = 3 // the released table is still usable
	if tb.Chunks() != 1 || c.Peek(7) != 3 {
		t.Errorf("reuse after Release: Chunks() = %d, Peek(7) = %d, want 1, 3", tb.Chunks(), c.Peek(7))
	}
}

func TestFootprintGrowsByChunk(t *testing.T) {
	tb := NewTable[uint32]()
	c := tb.Cursor()
	*c.Slot(0) = 1
	one := tb.FootprintBytes()
	if one != ChunkSize*4 {
		t.Fatalf("footprint of one chunk = %d, want %d", one, ChunkSize*4)
	}
	*c.Slot(1) = 1 // same chunk
	if tb.FootprintBytes() != one {
		t.Error("footprint grew within one chunk")
	}
	*c.Slot(ChunkSize) = 1 // second chunk
	if tb.FootprintBytes() != 2*one {
		t.Errorf("footprint of two chunks = %d, want %d", tb.FootprintBytes(), 2*one)
	}
}

func TestByteTable(t *testing.T) {
	tb := NewTable[uint8]()
	c := tb.Cursor()
	*c.Slot(9) = 0xAB
	if got := c.Peek(9); got != 0xAB {
		t.Errorf("byte table Peek = %#x", got)
	}
	if got, want := tb.FootprintBytes(), uint64(ChunkSize); got != want {
		t.Errorf("byte table footprint %d, want %d", got, want)
	}
}

// TestQuickMapEquivalence checks the table against a plain map under random
// operation sequences, writing through one cursor and peeking through
// another.
func TestQuickMapEquivalence(t *testing.T) {
	f := func(ops []struct {
		A uint32
		V uint32
	}) bool {
		tb := NewTable[uint32]()
		w, r := tb.Cursor(), tb.Cursor()
		ref := make(map[guest.Addr]uint32)
		for _, op := range ops {
			a := guest.Addr(op.A)
			if op.V%5 == 0 {
				if r.Peek(a) != ref[a] {
					return false
				}
			} else {
				*w.Slot(a) = op.V
				ref[a] = op.V
			}
		}
		for a, v := range ref {
			if r.Peek(a) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
