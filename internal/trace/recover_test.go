package trace_test

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"path/filepath"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/trace"
)

// encodeExample records the example run and returns both the in-memory trace
// and the recorded bytes.
func encodeExample(t *testing.T) (*trace.Trace, []byte) {
	t.Helper()
	var buf bytes.Buffer
	rec, sr := trace.NewRecorder(), trace.NewStreamRecorder(&buf)
	sr.SetAnnotations(false)
	exampleRun(t, 5, rec, sr)
	if err := sr.Close(); err != nil {
		t.Fatal(err)
	}
	return rec.Trace(), buf.Bytes()
}

// threadEvents indexes a trace's event slices by thread id.
func threadEvents(tr *trace.Trace) map[int32][]trace.Event {
	m := make(map[int32][]trace.Event)
	for i := range tr.Threads {
		tt := &tr.Threads[i]
		m[int32(tt.ID)] = tt.Events
	}
	return m
}

// TestRecoverTruncationEveryOffset is the acceptance gate for crash
// recovery: truncating the encoded trace at EVERY byte offset must never
// panic, and from the prelude onward must yield a salvaged trace whose
// per-thread events are exact prefixes of the original, with a non-nil
// report. At the full length the report must declare the trace complete.
func TestRecoverTruncationEveryOffset(t *testing.T) {
	orig, data := encodeExample(t)
	origEvents := threadEvents(orig)
	total := orig.NumEvents()

	for off := 0; off <= len(data); off++ {
		rtr, rep, err := trace.Recover(bytes.NewReader(data[:off]))
		if off < 9 {
			// Inside the prelude the input is not identifiable as a trace;
			// an error is the correct answer, a panic is not.
			if err == nil {
				t.Fatalf("offset %d: Recover accepted a partial prelude", off)
			}
			continue
		}
		if err != nil {
			t.Fatalf("offset %d: Recover error: %v", off, err)
		}
		if rtr == nil || rep == nil {
			t.Fatalf("offset %d: Recover returned nil trace or report", off)
		}
		if rep.SalvagedEvents > total {
			t.Fatalf("offset %d: salvaged %d events out of %d recorded", off, rep.SalvagedEvents, total)
		}
		if off < len(data) && rep.Complete() {
			t.Fatalf("offset %d: truncated trace reported complete", off)
		}
		salvaged := 0
		for _, th := range rep.PerThread {
			salvaged += th.Events
		}
		if salvaged != rep.SalvagedEvents {
			t.Fatalf("offset %d: per-thread events sum to %d, report says %d", off, salvaged, rep.SalvagedEvents)
		}
		for i := range rtr.Threads {
			tt := &rtr.Threads[i]
			want := origEvents[int32(tt.ID)]
			if len(tt.Events) > len(want) {
				t.Fatalf("offset %d: thread %d salvaged %d events, original had %d", off, tt.ID, len(tt.Events), len(want))
			}
			for j := range tt.Events {
				if tt.Events[j] != want[j] {
					t.Fatalf("offset %d: thread %d event %d = %+v, want prefix event %+v", off, tt.ID, j, tt.Events[j], want[j])
				}
			}
		}
	}

	rtr, rep, err := trace.Recover(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Complete() {
		t.Fatalf("full-length recovery not complete: %s", rep)
	}
	if rep.SalvagedEvents != total || rtr.NumEvents() != total {
		t.Fatalf("full-length recovery salvaged %d events, want %d", rep.SalvagedEvents, total)
	}
	if rep.ExpectedEvents != total {
		t.Fatalf("footer expects %d events, want %d", rep.ExpectedEvents, total)
	}
}

// uvarintLen returns the encoded size of v as a uvarint.
func uvarintLen(v uint64) int {
	return len(binary.AppendUvarint(nil, v))
}

// corruptPayload flips one bit in the middle of the given block's payload.
func corruptPayload(t *testing.T, data []byte, blk trace.BlockInfo) []byte {
	t.Helper()
	pos := blk.Offset + 1 + int64(uvarintLen(uint64(blk.PayloadLen))) + int64(blk.PayloadLen)/2
	if pos >= int64(len(data)) {
		t.Fatalf("corruption position %d outside %d-byte trace", pos, len(data))
	}
	out := bytes.Clone(data)
	out[pos] ^= 0x10
	return out
}

// findBlocks verifies the clean encoding and returns its block map.
func findBlocks(t *testing.T, data []byte) *trace.VerifyReport {
	t.Helper()
	vr, err := trace.Verify(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !vr.OK() {
		t.Fatalf("clean encoding does not verify: %+v", vr)
	}
	return vr
}

// TestRecoverChecksumDropsOneSegment corrupts a single event segment and
// checks that Recover drops exactly that segment — attributed to its thread,
// with its file offset — while salvaging every other thread in full.
func TestRecoverChecksumDropsOneSegment(t *testing.T) {
	orig, data := encodeExample(t)
	vr := findBlocks(t, data)

	var target trace.BlockInfo
	for _, blk := range vr.Blocks {
		if blk.Kind == 'E' && blk.Events > 0 {
			target = blk
			break
		}
	}
	if target.Kind == 0 {
		t.Fatal("no event segment in example encoding")
	}

	rtr, rep, err := trace.Recover(bytes.NewReader(corruptPayload(t, data, target)))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Dropped) != 1 {
		t.Fatalf("dropped %d blocks, want 1: %s", len(rep.Dropped), rep)
	}
	d := rep.Dropped[0]
	if d.Cause != trace.DropChecksum || d.Kind != 'E' || d.Offset != target.Offset {
		t.Fatalf("dropped block = %+v, want checksum drop of kind 'E' at offset %d", d, target.Offset)
	}
	if !d.HasThread || d.Thread != target.Thread {
		t.Fatalf("dropped block attributed to thread %d (has=%v), want %d", d.Thread, d.HasThread, target.Thread)
	}
	if want := orig.NumEvents() - target.Events; rep.SalvagedEvents != want {
		t.Fatalf("salvaged %d events, want %d (all but the corrupted segment)", rep.SalvagedEvents, want)
	}
	origEvents := threadEvents(orig)
	for i := range rtr.Threads {
		tt := &rtr.Threads[i]
		if tt.ID == target.Thread {
			continue
		}
		if want := origEvents[int32(tt.ID)]; len(tt.Events) != len(want) {
			t.Errorf("uncorrupted thread %d salvaged %d/%d events", tt.ID, len(tt.Events), len(want))
		}
	}
}

// TestRecoverCorruptTableStops corrupts the routine-table block: recovery
// must stop (later name ids would be unresolvable) and say so.
func TestRecoverCorruptTableStops(t *testing.T) {
	_, data := encodeExample(t)
	vr := findBlocks(t, data)
	if vr.Blocks[0].Kind != 'R' {
		t.Fatalf("first block kind = %q, want routine table", vr.Blocks[0].Kind)
	}

	_, rep, err := trace.Recover(bytes.NewReader(corruptPayload(t, data, vr.Blocks[0])))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Truncated || rep.SalvagedEvents != 0 {
		t.Fatalf("corrupt leading table salvaged %d events, truncated=%v; want stop with nothing salvaged", rep.SalvagedEvents, rep.Truncated)
	}
	if len(rep.Dropped) != 1 || rep.Dropped[0].Cause != trace.DropChecksum {
		t.Fatalf("dropped = %+v, want one checksum drop", rep.Dropped)
	}
}

// TestVerifyDiagnostics checks the three verification verdicts: clean,
// corrupted (with a per-block error at the right offset), truncated.
func TestVerifyDiagnostics(t *testing.T) {
	orig, data := encodeExample(t)

	vr := findBlocks(t, data)
	if vr.Events != orig.NumEvents() || vr.Threads != len(orig.Threads) || !vr.FooterValid {
		t.Fatalf("clean verify = %d events / %d threads / footer=%v, want %d / %d / true",
			vr.Events, vr.Threads, vr.FooterValid, orig.NumEvents(), len(orig.Threads))
	}

	target := vr.Blocks[len(vr.Blocks)-2] // last block before the footer
	bad, err := trace.Verify(bytes.NewReader(corruptPayload(t, data, target)))
	if err != nil {
		t.Fatal(err)
	}
	if bad.OK() || bad.Bad != 1 {
		t.Fatalf("corrupted verify OK=%v Bad=%d, want failure with one bad block", bad.OK(), bad.Bad)
	}
	found := false
	for _, blk := range bad.Blocks {
		if blk.Offset == target.Offset && blk.Err != nil {
			found = true
		}
	}
	if !found {
		t.Fatalf("no per-block error at corrupted offset %d", target.Offset)
	}

	short, err := trace.Verify(bytes.NewReader(data[:len(data)-3]))
	if err != nil {
		t.Fatal(err)
	}
	if short.OK() || !short.Truncated {
		t.Fatalf("truncated verify OK=%v Truncated=%v, want failure with truncation", short.OK(), short.Truncated)
	}
}

// TestRecoverRandomCorruption fuzzes the bit-flip space a little outside the
// fuzz harness: random corruption anywhere past the prelude must never
// panic and must always yield a report when the prelude is intact.
func TestRecoverRandomCorruption(t *testing.T) {
	_, data := encodeExample(t)
	for seed := int64(0); seed < 50; seed++ {
		k := 1 + int(seed%7)
		mut := faultinject.FlipBits(data, seed, k, 9)
		_, rep, err := trace.Recover(bytes.NewReader(mut))
		if err != nil {
			t.Fatalf("seed %d: Recover error on intact prelude: %v", seed, err)
		}
		if rep == nil {
			t.Fatalf("seed %d: nil report", seed)
		}
	}
}

// TestRecoverRejectsGarbage: inputs that are not traces at all produce
// errors, not reports.
func TestRecoverRejectsGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	junk := make([]byte, 256)
	rng.Read(junk)
	if _, _, err := trace.Recover(bytes.NewReader(junk)); err == nil {
		t.Fatal("Recover accepted random bytes")
	}
	if _, _, err := trace.Recover(bytes.NewReader(nil)); err == nil {
		t.Fatal("Recover accepted an empty input")
	}
	future := append([]byte("ISPTRACE"), 9)
	var ve *trace.VersionError
	if _, _, err := trace.Recover(bytes.NewReader(future)); !errors.As(err, &ve) {
		t.Fatalf("future version error = %v, want *trace.VersionError", err)
	}
}

// TestFileRoundTrip exercises the atomic AtomicWriteFile / ReadFile /
// RecoverFile / VerifyFile helpers.
func TestFileRoundTrip(t *testing.T) {
	orig, data := encodeExample(t)
	path := filepath.Join(t.TempDir(), "run.trace")

	n, err := trace.AtomicWriteFile(path, data)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(data)) {
		t.Fatalf("AtomicWriteFile wrote %d bytes of %d", n, len(data))
	}
	back, err := trace.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumEvents() != orig.NumEvents() {
		t.Fatalf("ReadFile: %d events, want %d", back.NumEvents(), orig.NumEvents())
	}
	if _, rep, err := trace.RecoverFile(path); err != nil || !rep.Complete() {
		t.Fatalf("RecoverFile = (%v, complete=%v), want clean full salvage", err, rep != nil && rep.Complete())
	}
	vr, err := trace.VerifyFile(path)
	if err != nil || !vr.OK() {
		t.Fatalf("VerifyFile = (%v, OK=%v), want clean", err, vr != nil && vr.OK())
	}
	leftovers, err := filepath.Glob(filepath.Join(t.TempDir(), "*.tmp*"))
	if err == nil && len(leftovers) > 0 {
		t.Fatalf("temp files left behind: %v", leftovers)
	}
}
