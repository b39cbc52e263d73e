package main

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

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
	lying := append([]byte(nil), clean[:footer.Offset]...)
	start := len(lying)
	var payload []byte
	payload = binary.AppendUvarint(payload, uint64(len(vr.Blocks)-1))
	payload = binary.AppendUvarint(payload, 99)
	payload = binary.AppendUvarint(payload, 1)
	lying = append(lying, 'F')
	lying = binary.AppendUvarint(lying, uint64(len(payload)))
	lying = append(lying, payload...)
	sum := crc32.Checksum(lying[start:], crc32.MakeTable(crc32.Castagnoli))
	lying = binary.LittleEndian.AppendUint32(lying, sum)

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
