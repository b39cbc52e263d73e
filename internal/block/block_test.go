package block

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"testing"
)

// TestFraming: Next reads back what Append wrote, and tells the three ways
// a block can be unreadable apart. Split accepts only intact blocks that
// cover the input exactly.
func TestFraming(t *testing.T) {
	f := Format{Kinds: "AB", MaxPayload: 16}
	data := Append(Append([]byte("pre"), 'A', []byte("hello")), 'B', nil)

	fr, err := f.Next(data, 3)
	if err != nil || fr.Kind != 'A' || string(fr.Payload) != "hello" || !fr.CRCOK {
		t.Fatalf("Next = %+v, %v", fr, err)
	}
	frames, err := f.Split(data, 3)
	if err != nil || len(frames) != 2 || frames[1].End != len(data) {
		t.Fatalf("Split = %+v, %v", frames, err)
	}
	if parts := Append(nil, 'A', []byte("he"), nil, []byte("llo")); !bytes.Equal(parts, data[3:3+len(parts)]) {
		t.Fatalf("Append in parts = %x, want the block of the joined payload", parts)
	}
	if _, err := f.Next(data, len(data)); err != io.EOF {
		t.Fatalf("Next at the end = %v, want io.EOF", err)
	}

	flipped := bytes.Clone(data)
	flipped[5] ^= 1
	if fr, err := f.Next(flipped, 3); err != nil || fr.CRCOK {
		t.Fatalf("flipped payload: CRCOK=%v err=%v, want a checksum mismatch", fr.CRCOK, err)
	}
	if _, err := f.Split(flipped, 3); !errors.Is(err, ErrChecksum) {
		t.Fatalf("Split of a flipped block = %v, want ErrChecksum", err)
	}

	for _, c := range []struct {
		name string
		in   []byte
		want error
	}{
		{"unknown kind", []byte{'C', 0, 0, 0, 0, 0}, ErrFraming},
		{"over MaxPayload", Append(nil, 'A', make([]byte, 17)), ErrFraming},
		{"padded length", []byte{'A', 0x80, 0x00, 0, 0, 0, 0}, ErrFraming},
		{"cut in the length", []byte{'A', 0x80}, ErrTruncated},
		{"cut in the checksum", data[3 : len(data)-8], ErrTruncated},
	} {
		if _, err := f.Next(c.in, 0); !errors.Is(err, c.want) {
			t.Errorf("%s: Next = %v, want %v", c.name, err, c.want)
		}
	}
}

// TestParser: a failure sticks, and Count rejects a count the rest of the
// payload cannot hold.
func TestParser(t *testing.T) {
	p := NewParser([]byte{0x05, 0x80, 0x80, 0x01, 'x'})
	if v, ok := p.Short(); !ok || v != 5 {
		t.Fatalf("Short = %d, %v", v, ok)
	}
	if _, ok := p.Short(); ok {
		t.Fatal("Short read a three-byte uvarint")
	}
	if v := p.Uvarint(); v != 1<<14 {
		t.Fatalf("Uvarint = %d", v)
	}
	if b := p.Byte(); b != 'x' || p.End("trailing") != nil {
		t.Fatalf("Byte = %q, End = %v", b, p.End("trailing"))
	}
	if p.Byte(); p.Err() == nil {
		t.Fatal("reading past the end did not fail")
	}

	p = NewParser([]byte{3, 1, 2})
	if n := p.Count(1); n != 0 || p.Err() == nil {
		t.Fatalf("Count of 3 one-byte elements in 2 bytes = %d, %v", n, p.Err())
	}
}

// TestShortMatchesUvarint: on every input of one to three bytes, Short
// either declines (and binary.Uvarint needs more than two bytes or
// rejects the input) or reads exactly what binary.Uvarint reads.
func TestShortMatchesUvarint(t *testing.T) {
	buf := make([]byte, 3)
	check := func(in []byte) {
		want, n := binary.Uvarint(in)
		p := NewParser(in)
		got, ok := p.Short()
		switch {
		case ok && (n < 1 || n > 2 || got != want || p.Off() != n):
			t.Fatalf("Short(% x) = %d after %d bytes; binary.Uvarint reads %d in %d", in, got, p.Off(), want, n)
		case !ok && n >= 1 && n <= 2:
			t.Fatalf("Short(% x) declined a %d-byte uvarint", in, n)
		case !ok && p.Off() != 0:
			t.Fatalf("Short(% x) declined but consumed %d bytes", in, p.Off())
		}
	}
	check(nil)
	for n := 1; n <= 3; n++ {
		for v := 0; v < 1<<(8*n); v++ {
			buf[0], buf[1], buf[2] = byte(v), byte(v>>8), byte(v>>16)
			check(buf[:n])
		}
	}
}
