package daemon

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/block"
	"repro/internal/core"
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

// FuzzTenantCheckpoint feeds arbitrary bytes to the tenant checkpoint
// loader. The oracle is "error, or exact round trip": whatever
// loadCheckpoint accepts, writeCheckpoint of its meta and its profile's
// Export reproduces byte for byte. Each input is tried as a whole file,
// and also as the meta payload and as the profile payload of correctly
// framed blocks, so the fuzzer reaches the parsers behind the checksums.
// The seeds are TestCheckpointRejectsCorruption's checkpoint (clean and
// corrupted), its two payloads, and a checkpoint written by a daemon
// streaming one epoch, as in TestDaemonCheckpointRestart.
func FuzzTenantCheckpoint(f *testing.F) {
	dir := f.TempDir()
	meta, err := json.Marshal(checkpointMeta{Tenant: "t", Windows: 3, Events: 42})
	if err != nil {
		f.Fatal(err)
	}
	export, err := core.MergePartials().Profile.Export()
	if err != nil {
		f.Fatal(err)
	}
	file := func(meta, profile []byte) []byte {
		b := block.Append([]byte(checkpointMagic), blockMeta, meta)
		return block.Append(b, blockProfile, profile)
	}
	clean := file(meta, export)
	corrupt := bytes.Clone(clean)
	corrupt[len(corrupt)/2] ^= 0x40
	checkpointedEpoch(f, dir, recordedRun(f))
	written, err := os.ReadFile(filepath.Join(dir, "acme"+checkpointExt))
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{clean, corrupt, meta, export, written, []byte(checkpointMagic), {}} {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		tmp := t.TempDir()
		for _, in := range [][]byte{data, file(data, export), file(meta, data)} {
			path := filepath.Join(tmp, "in"+checkpointExt)
			if err := os.WriteFile(path, in, 0o644); err != nil {
				t.Fatal(err)
			}
			ck, err := loadCheckpoint(path)
			if err != nil {
				continue
			}
			if ck == nil {
				t.Fatal("a present checkpoint file loaded as absent")
			}
			again, err := ck.profile.Export()
			if err != nil {
				t.Fatalf("accepted profile does not export: %v", err)
			}
			out := filepath.Join(tmp, "out"+checkpointExt)
			if err := writeCheckpoint(out, ck.Meta, again); err != nil {
				t.Fatal(err)
			}
			got, err := os.ReadFile(out)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, in) {
				t.Fatalf("accepted checkpoint re-encodes differently:\n got %q\nwant %q", got, in)
			}
		}
	})
}
