package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/block"
	"repro/internal/trace"
)

// TestVerifyRejectsSelfInconsistentTraces: `aprof-trace verify` must exit
// nonzero on a trace whose blocks all checksum but which Decode rejects:
// bytes after the footer, or a footer whose counts disagree with the
// stream.
func TestVerifyRejectsSelfInconsistentTraces(t *testing.T) {
	tr := &trace.Trace{
		Routines: []string{"main"},
		Threads: []trace.ThreadTrace{{ID: 0, Events: []trace.Event{
			{TS: 1, Kind: trace.KindCall},
			{TS: 2, Kind: trace.KindReturn},
		}}},
	}
	var buf bytes.Buffer
	if _, err := tr.Encode(&buf); err != nil {
		t.Fatal(err)
	}
	clean := buf.Bytes()
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

// TestV1Rejected: the unframed v1 format is no longer read. Decode, Recover
// and Verify return *trace.VersionError{Want: 2, Got: 1} on a v1 prelude,
// and `aprof-trace verify` fails on it (main exits 1), in both output
// modes.
func TestV1Rejected(t *testing.T) {
	// A one-thread v1 trace: routine "main", one call and its return.
	data := []byte("ISPTRACE\x01\x01\x04main\x00\x01\x00\x02\x01\x00\x00\x00\x01\x01\x00\x05")
	check := func(what string, err error) {
		t.Helper()
		var ve *trace.VersionError
		if !errors.As(err, &ve) || *ve != (trace.VersionError{Want: 2, Got: 1}) {
			t.Errorf("%s returned %v, want *VersionError{Want: 2, Got: 1}", what, err)
		}
	}
	_, err := trace.Decode(bytes.NewReader(data))
	check("Decode", err)
	_, _, err = trace.Recover(bytes.NewReader(data))
	check("Recover", err)
	_, err = trace.Verify(bytes.NewReader(data))
	check("Verify", err)

	path := filepath.Join(t.TempDir(), "v1.trace")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{{path}, {"-json", path}} {
		check("verify "+args[0], verify(args))
	}
}
