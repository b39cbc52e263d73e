package daemon

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"runtime"
	"strings"
	"testing"

	"repro/internal/core"
)

func TestHelloRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := hello{Tenant: "acme", Process: "mysqld-1"}
	if err := writeHello(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := readHello(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if out != in {
		t.Errorf("round trip: got %+v, want %+v", out, in)
	}
}

func TestHelloRejects(t *testing.T) {
	long := strings.Repeat("x", maxNameLen+1)
	for _, h := range []hello{
		{Tenant: "", Process: "p"},
		{Tenant: "t", Process: ""},
		{Tenant: long, Process: "p"},
	} {
		if err := writeHello(io.Discard, h); err == nil {
			t.Errorf("writeHello accepted %+v", h)
		}
	}
	for name, raw := range map[string][]byte{
		"bad magic":   []byte("NOPE\x01"),
		"bad version": []byte("APRD\x07"),
		"truncated":   []byte("APR"),
	} {
		if _, err := readHello(bufio.NewReader(bytes.NewReader(raw))); err == nil {
			t.Errorf("readHello accepted %s", name)
		}
	}
}

func TestFrameRoundTripAndBounds(t *testing.T) {
	var buf bytes.Buffer
	if err := writeFrame(&buf, nil); err != nil || buf.Len() != 0 {
		t.Fatalf("empty payload should write nothing (err %v, %d bytes)", err, buf.Len())
	}
	payload := bytes.Repeat([]byte("frame"), 100)
	if err := writeFrame(&buf, payload); err != nil {
		t.Fatal(err)
	}
	got, err := readFrame(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Error("frame payload mangled in transit")
	}
	if _, err := readFrame(&buf, got); !errors.Is(err, io.EOF) {
		t.Errorf("clean boundary should read io.EOF, got %v", err)
	}

	if err := writeFrame(io.Discard, make([]byte, maxFrame+1)); err == nil {
		t.Error("oversized frame accepted")
	}
	if _, err := readFrame(bytes.NewReader([]byte{0xff, 0xff, 0xff, 0xff, 'x'}), nil); err == nil {
		t.Error("implausible frame length accepted")
	}
	if _, err := readFrame(bytes.NewReader([]byte{0, 0}), nil); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("truncated header: got %v, want ErrUnexpectedEOF", err)
	}
	if _, err := readFrame(bytes.NewReader([]byte{0, 0, 0, 9, 'x'}), nil); !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Errorf("truncated body: got %v, want ErrUnexpectedEOF", err)
	}
}

// TestReadFrameAllocatesOnlyWhatArrives: a header claiming the largest
// legal frame, followed by EOF, fails as a truncation without allocating
// the claimed buffer.
func TestReadFrameAllocatesOnlyWhatArrives(t *testing.T) {
	var head [4]byte
	binary.BigEndian.PutUint32(head[:], maxFrame)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := readFrame(bytes.NewReader(head[:]), nil)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("got %v, want ErrUnexpectedEOF", err)
	}
	if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
		t.Errorf("reading a bare %d-byte frame header allocated %d bytes", maxFrame, n)
	}
}

func TestCheckpointRejectsCorruption(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/t.aprofdck"
	meta := checkpointMeta{Tenant: "t", Windows: 3, Events: 42}
	export, err := core.MergePartials().Profile.Export()
	if err != nil {
		t.Fatal(err)
	}
	if err := writeCheckpoint(path, meta, export); err != nil {
		t.Fatal(err)
	}
	ck, err := loadCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if ck.Meta != meta {
		t.Errorf("meta round trip: got %+v, want %+v", ck.Meta, meta)
	}
	if ck, err := loadCheckpoint(dir + "/absent.aprofdck"); ck != nil || err != nil {
		t.Errorf("missing checkpoint should be (nil, nil), got (%v, %v)", ck, err)
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x40
	if err := os.WriteFile(path, raw, 0o666); err != nil {
		t.Fatal(err)
	}
	if _, err := loadCheckpoint(path); err == nil {
		t.Error("corrupt checkpoint loaded without error")
	}
}
