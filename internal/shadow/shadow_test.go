package shadow

import (
	"testing"
	"testing/quick"
	"unsafe"

	"repro/internal/guest"
)

func TestZeroValueWithoutAllocation(t *testing.T) {
	tb := NewTable[uint32]()
	if got := tb.Peek(12345); got != 0 {
		t.Errorf("Peek of untouched cell = %d, want 0", got)
	}
	if tb.Chunks() != 0 {
		t.Errorf("Peek allocated %d chunks", tb.Chunks())
	}
	if got := tb.Get(12345); got != 0 {
		t.Errorf("Get of untouched cell = %d, want 0", got)
	}
	if tb.Chunks() != 1 {
		t.Errorf("Get allocated %d chunks, want 1", tb.Chunks())
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
	addrs := []guest.Addr{0, 1, ChunkSize - 1, ChunkSize, 1 << 20, 1 << 32, 1<<MaxAddrBits - 1}
	for i, a := range addrs {
		tb.Set(a, uint32(i+1))
	}
	for i, a := range addrs {
		if got := tb.Get(a); got != uint32(i+1) {
			t.Errorf("Get(%#x) = %d, want %d", a, got, i+1)
		}
		if got := tb.Peek(a); got != uint32(i+1) {
			t.Errorf("Peek(%#x) = %d, want %d", a, got, i+1)
		}
	}
}

func TestSlotReadModifyWrite(t *testing.T) {
	tb := NewTable[uint32]()
	s := tb.Slot(777)
	if *s != 0 {
		t.Fatalf("fresh slot = %d", *s)
	}
	*s = 41
	*s++
	if got := tb.Peek(777); got != 42 {
		t.Errorf("after RMW, Peek = %d, want 42", got)
	}
}

func TestOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic for out-of-range address")
		}
	}()
	NewTable[uint32]().Set(guest.Addr(1)<<MaxAddrBits, 1)
}

func TestRangeOrderAndContents(t *testing.T) {
	tb := NewTable[uint32]()
	want := map[guest.Addr]uint32{
		5:             1,
		ChunkSize + 9: 2,
		1 << 31:       3,
		1 << 35:       4,
	}
	for a, v := range want {
		tb.Set(a, v)
	}
	var lastAddr guest.Addr
	first := true
	seen := 0
	tb.Range(func(a guest.Addr, v uint32) {
		if !first && a <= lastAddr {
			t.Errorf("Range not ascending: %#x after %#x", a, lastAddr)
		}
		first, lastAddr = false, a
		if want[a] != v {
			t.Errorf("Range yielded (%#x,%d), want value %d", a, v, want[a])
		}
		seen++
	})
	if seen != len(want) {
		t.Errorf("Range yielded %d cells, want %d", seen, len(want))
	}
}

func TestRangeChunksRewrite(t *testing.T) {
	tb := NewTable[uint32]()
	for i := guest.Addr(0); i < 100; i++ {
		tb.Set(i, uint32(i)+1)
	}
	tb.RangeChunks(func(base guest.Addr, vals *[ChunkSize]uint32) {
		for off := range vals {
			if vals[off] != 0 {
				vals[off] *= 2
			}
		}
	})
	for i := guest.Addr(0); i < 100; i++ {
		if got := tb.Get(i); got != (uint32(i)+1)*2 {
			t.Fatalf("after rewrite Get(%d) = %d, want %d", i, got, (uint32(i)+1)*2)
		}
	}
}

func TestFootprintGrowsByChunk(t *testing.T) {
	tb := NewTable[uint32]()
	tb.Set(0, 1)
	one := tb.FootprintBytes()
	if one == 0 {
		t.Fatal("footprint zero after allocation")
	}
	tb.Set(1, 1) // same chunk
	if tb.FootprintBytes() != one {
		t.Error("footprint grew within one chunk")
	}
	tb.Set(ChunkSize, 1) // second chunk, same secondary
	if tb.FootprintBytes() <= one {
		t.Error("footprint did not grow with a new chunk")
	}
}

func TestByteTable(t *testing.T) {
	tb := NewTable[uint8]()
	tb.Set(9, 0xAB)
	if got := tb.Get(9); got != 0xAB {
		t.Errorf("byte table Get = %#x", got)
	}
	if f32, f8 := NewTable[uint32]().FootprintBytes(), tb.FootprintBytes(); f8 >= f32 && f32 != 0 {
		t.Errorf("byte table footprint %d not smaller than uint32 %d", f8, f32)
	}
}

// TestQuickMapEquivalence checks the table against a plain map under random
// operation sequences.
func TestQuickMapEquivalence(t *testing.T) {
	f := func(ops []struct {
		A uint32
		V uint32
	}) bool {
		tb := NewTable[uint32]()
		ref := make(map[guest.Addr]uint32)
		for _, op := range ops {
			a := guest.Addr(op.A)
			if op.V%5 == 0 {
				if tb.Peek(a) != ref[a] {
					return false
				}
			} else {
				tb.Set(a, op.V)
				ref[a] = op.V
			}
		}
		for a, v := range ref {
			if tb.Get(a) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
