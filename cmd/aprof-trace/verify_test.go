package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/block"
	"repro/internal/trace"
)

// callReturn records a one-thread trace, routine "main" called and
// returned, through a StreamRecorder.
func callReturn(t *testing.T) []byte {
	t.Helper()
	tr := &trace.Trace{
		Routines: []string{"main"},
		Threads: []trace.ThreadTrace{{ID: 0, Events: []trace.Event{
			{TS: 1, Kind: trace.KindCall},
			{TS: 2, Kind: trace.KindReturn},
		}}},
	}
	var buf bytes.Buffer
	sr := trace.NewStreamRecorder(&buf)
	if err := trace.Replay(tr, 0, sr); err != nil {
		t.Fatal(err)
	}
	if err := sr.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestVerifyRejectsSelfInconsistentTraces: `aprof-trace verify` must exit
// nonzero on a trace whose blocks all checksum but which Decode rejects:
// bytes after the footer, or a footer whose counts disagree with the
// stream.
func TestVerifyRejectsSelfInconsistentTraces(t *testing.T) {
	clean := callReturn(t)
	vr, err := trace.Verify(bytes.NewReader(clean))
	if err != nil || !vr.OK() {
		t.Fatalf("clean trace does not verify: %v", err)
	}

	// Re-frame the footer with a valid checksum but 99 events.
	footer := vr.Blocks[len(vr.Blocks)-1]
	var payload []byte
	payload = binary.AppendUvarint(payload, uint64(len(vr.Blocks)-1))
	payload = binary.AppendUvarint(payload, 99)
	payload = binary.AppendUvarint(payload, 1)
	lying := block.Append(bytes.Clone(clean[:footer.Offset]), 'F', payload)

	dir := t.TempDir()
	for name, data := range map[string][]byte{
		"clean":           clean,
		"trailing-bytes":  append(append([]byte(nil), clean...), 1, 2, 3),
		"footer-mismatch": lying,
	} {
		path := filepath.Join(dir, name+".trace")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, args := range [][]string{{path}, {"-json", path}} {
			err := verify(args)
			if (err == nil) != (name == "clean") {
				t.Errorf("%s: verify %v returned %v", name, args, err)
			}
		}
	}
}

// TestV1Rejected: the unframed v1 format and the v2 format, whose memory
// records carry one access each, are no longer read. Decode, Recover and
// Verify return *trace.VersionError{Want: 3, Got: 1} on a v1 prelude and
// {Want: 3, Got: 2} on a v2 one, and `aprof-trace verify` fails on both
// (main exits 1), in both output modes.
func TestV1Rejected(t *testing.T) {
	// A one-thread v1 trace: routine "main", one call and its return.
	v1 := []byte("ISPTRACE\x01\x01\x04main\x00\x01\x00\x02\x01\x00\x00\x00\x01\x01\x00\x05")
	// A v2 trace: the same events framed as today, under the v2 prelude.
	v2 := callReturn(t)
	v2[8] = 2
	dir := t.TempDir()
	for got, data := range map[byte][]byte{1: v1, 2: v2} {
		want := trace.VersionError{Want: 3, Got: got}
		check := func(what string, err error) {
			t.Helper()
			var ve *trace.VersionError
			if !errors.As(err, &ve) || *ve != want {
				t.Errorf("v%d: %s returned %v, want *VersionError%+v", got, what, err, want)
			}
		}
		_, err := trace.Decode(bytes.NewReader(data))
		check("Decode", err)
		_, _, err = trace.Recover(bytes.NewReader(data))
		check("Recover", err)
		_, err = trace.Verify(bytes.NewReader(data))
		check("Verify", err)
		_, err = trace.NewStreamDecoder().Feed(data)
		check("StreamDecoder.Feed", err)

		path := filepath.Join(dir, fmt.Sprintf("v%d.trace", got))
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, args := range [][]string{{path}, {"-json", path}} {
			check("verify "+args[0], verify(args))
		}
	}
}
