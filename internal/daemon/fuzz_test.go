package daemon

import (
	"bufio"
	"bytes"
	"testing"
)

// FuzzProtocol feeds arbitrary bytes to the APRD reader: readHello, then
// readFrame until the first error. The oracle is "error, or exact round
// trip": the accepted names pass validName, every accepted frame is
// non-empty and within maxFrame, and writeHello plus writeFrame of what was
// accepted reproduce exactly the bytes the reader consumed.
func FuzzProtocol(f *testing.F) {
	var hb bytes.Buffer
	if err := writeHello(&hb, hello{Tenant: "acme", Process: "mysqld-1"}); err != nil {
		f.Fatal(err)
	}
	h := hb.Bytes()
	var fb bytes.Buffer
	// A short payload: the fuzzer minimizes every new input it keeps, and
	// that cost grows with the input's length.
	if err := writeFrame(&fb, bytes.Repeat([]byte("frame"), 4)); err != nil {
		f.Fatal(err)
	}
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	for _, seed := range [][]byte{
		h,
		cat(h, fb.Bytes()),
		cat(h, fb.Bytes(), fb.Bytes()),
		[]byte("NOPE\x01"),
		[]byte("APRD\x07"),
		[]byte("APR"),
		cat(h, []byte{0xff, 0xff, 0xff, 0xff, 'x'}),
		cat(h, []byte{0, 0}),
		cat(h, []byte{0, 0, 0, 9, 'x'}),
		[]byte("APRD\x01\x81\x00a\x01b"), // non-minimal name length
	} {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		src := bytes.NewReader(data)
		br := bufio.NewReader(src)
		consumed := func() int { return len(data) - src.Len() - br.Buffered() }
		got, err := readHello(br)
		if err != nil {
			return
		}
		if validName("tenant", got.Tenant) != nil || validName("process", got.Process) != nil {
			t.Fatalf("accepted invalid names %+v", got)
		}
		var out bytes.Buffer
		if err := writeHello(&out, got); err != nil {
			t.Fatalf("accepted hello does not re-encode: %v", err)
		}
		accepted := consumed()
		var frame []byte
		for {
			if frame, err = readFrame(br, frame); err != nil {
				break
			}
			if len(frame) == 0 || len(frame) > maxFrame {
				t.Fatalf("accepted a %d-byte frame", len(frame))
			}
			if err := writeFrame(&out, frame); err != nil {
				t.Fatalf("accepted frame does not re-encode: %v", err)
			}
			accepted = consumed()
		}
		if !bytes.Equal(out.Bytes(), data[:accepted]) {
			t.Fatalf("re-encoding the accepted prefix differs from the %d bytes consumed", accepted)
		}
	})
}
