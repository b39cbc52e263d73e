package trace_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/block"
	"repro/internal/guest"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// decodeResults is what Decode, Recover and Verify make of one input, with
// errors as their messages.
type decodeResults struct {
	tr         *trace.Trace
	err        string
	recovered  *trace.Trace
	rep        *trace.RecoveryReport
	recoverErr string
	vr         *trace.VerifyReport
	verifyErr  string
}

// decodeAllWays runs Decode, Recover and Verify on data at GOMAXPROCS
// procs.
func decodeAllWays(data []byte, procs int) decodeResults {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	msg := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	var r decodeResults
	var err error
	r.tr, err = trace.Decode(bytes.NewReader(data))
	r.err = msg(err)
	r.recovered, r.rep, err = trace.Recover(bytes.NewReader(data))
	r.recoverErr = msg(err)
	r.vr, err = trace.Verify(bytes.NewReader(data))
	r.verifyErr = msg(err)
	return r
}

// payloadOf returns a copy of block b's payload in data.
func payloadOf(data []byte, b trace.BlockInfo) []byte {
	start := int(b.Offset) + 1 + uvarintLen(uint64(b.PayloadLen))
	return bytes.Clone(data[start : start+b.PayloadLen])
}

// reframe replaces block i of data with a block of the same kind holding
// payload and a valid checksum.
func reframe(data []byte, vr *trace.VerifyReport, i int, payload []byte) []byte {
	out := bytes.Clone(data[:vr.Blocks[i].Offset])
	out = block.Append(out, vr.Blocks[i].Kind, payload)
	return append(out, data[vr.Blocks[i+1].Offset:]...)
}

// damage is one way of breaking a recording.
type damage struct {
	name string
	// apply returns the damaged copy; nil leaves the recording intact.
	apply func(data []byte) []byte
	// firstBad is the offset Decode's error must name.
	firstBad int64
}

// damages returns the damaged variants TestDecodeParallelMatchesSerial
// decodes, built from vr, the clean recording's block map.
func damages(t *testing.T, vr *trace.VerifyReport) []damage {
	t.Helper()
	segs := make(map[guest.ThreadID][]int)
	var threads []guest.ThreadID
	var anns []int
	for i, b := range vr.Blocks {
		switch b.Kind {
		case 'E':
			if segs[b.Thread] == nil {
				threads = append(threads, b.Thread)
			}
			segs[b.Thread] = append(segs[b.Thread], i)
		case 'A':
			anns = append(anns, i)
		}
	}
	// x has the most segments, so a concurrent fill starts it first; y is
	// another thread, damaged in a block before x's damaged one.
	slices.SortStableFunc(threads, func(a, b guest.ThreadID) int { return len(segs[b]) - len(segs[a]) })
	x, y := segs[threads[0]], segs[threads[1]]
	late, early := x[len(x)-1], y[1]
	if len(x) < 3 || len(y) < 3 || early >= late {
		t.Fatalf("recording too small: %d and %d segments, blocks %d and %d", len(x), len(y), late, early)
	}
	// both damages blocks hi and then lo < hi with f, so lo's offset in vr
	// stays valid.
	both := func(f func(data []byte, i int) []byte, hi, lo int) func([]byte) []byte {
		return func(data []byte) []byte { return f(f(data, hi), lo) }
	}
	flip := func(data []byte, i int) []byte { return corruptPayload(t, data, vr.Blocks[i]) }
	// A payload one byte short still has a plausible header and a valid
	// checksum, so only the fill pass finds it bad.
	short := func(data []byte, i int) []byte {
		p := payloadOf(data, vr.Blocks[i])
		return reframe(data, vr, i, p[:len(p)-1])
	}
	// A later segment whose first timestamp is 0 starts before its
	// predecessor ended.
	stepBack := func(data []byte, i int) []byte {
		p := payloadOf(data, vr.Blocks[i])
		hdr := 0
		for range 2 {
			_, n := binary.Uvarint(p[hdr:])
			hdr += n
		}
		_, n := binary.Uvarint(p[hdr:])
		back := append(binary.AppendUvarint(bytes.Clone(p[:hdr]), 0), p[hdr+n:]...)
		return reframe(data, vr, i, back)
	}
	mid := vr.Blocks[len(vr.Blocks)/2]
	ds := []damage{
		{"intact", nil, -1},
		{"checksums", both(flip, late, early), vr.Blocks[early].Offset},
		{"invalid-segments", both(short, late, early), vr.Blocks[early].Offset},
		{"step-back", both(stepBack, late, y[2]), vr.Blocks[y[2]].Offset},
		{"truncated", func(data []byte) []byte { return data[:mid.Offset+int64(mid.PayloadLen)/2] }, mid.Offset},
	}
	if len(anns) > 0 {
		a := anns[len(anns)/2]
		ds = append(ds, damage{"bad-annotation", both(short, max(late, a), min(late, a)), vr.Blocks[min(late, a)].Offset})
	}
	return ds
}

// TestDecodeParallelMatchesSerial: the fill pass hands each thread to one
// goroutine, so Decode, Recover and Verify must return identical traces,
// reports and error messages whether one goroutine fills every thread
// (GOMAXPROCS 1) or four fill them concurrently (GOMAXPROCS 4, which runs
// the concurrent path even on a one-CPU host). The inputs are annotated and
// unannotated recordings of mysqld with 8 worker threads, intact and
// damaged: checksum failures
// and payloads that fail to parse in a late segment of one thread and an
// earlier segment of another, a segment that steps back in time, a bad
// annotation block and a truncation in the middle of a block. Decode must
// name the first bad block in file order.
func TestDecodeParallelMatchesSerial(t *testing.T) {
	for _, annotate := range []bool{true, false} {
		var buf bytes.Buffer
		sr := trace.NewStreamRecorder(&buf)
		sr.SetAnnotations(annotate)
		sr.SetSegmentEvents(64)
		if _, err := workloads.RunByName("mysqld", workloads.Params{Size: 4, Threads: 8, Seed: 3}, sr); err != nil {
			t.Fatal(err)
		}
		if err := sr.Close(); err != nil {
			t.Fatal(err)
		}
		clean := buf.Bytes()
		vr := findBlocks(t, clean)
		if vr.Threads < 8 {
			t.Fatalf("recording has %d threads, want at least 8", vr.Threads)
		}
		for _, d := range damages(t, vr) {
			t.Run(fmt.Sprintf("annotate=%v/%s", annotate, d.name), func(t *testing.T) {
				data := clean
				if d.apply != nil {
					data = d.apply(clean)
				}
				serial := decodeAllWays(data, 1)
				parallel := decodeAllWays(data, 4)
				if serial.err != parallel.err || serial.recoverErr != parallel.recoverErr || serial.verifyErr != parallel.verifyErr {
					t.Fatalf("errors differ: serial %q, %q, %q; parallel %q, %q, %q",
						serial.err, serial.recoverErr, serial.verifyErr, parallel.err, parallel.recoverErr, parallel.verifyErr)
				}
				if !reflect.DeepEqual(serial.tr, parallel.tr) {
					t.Error("Decode returned different traces")
				}
				if !reflect.DeepEqual(serial.recovered, parallel.recovered) || !reflect.DeepEqual(serial.rep, parallel.rep) {
					t.Errorf("Recover differs: serial %v; parallel %v", serial.rep, parallel.rep)
				}
				if !reflect.DeepEqual(serial.vr, parallel.vr) {
					t.Errorf("Verify differs: serial %+v; parallel %+v", serial.vr, parallel.vr)
				}
				if d.apply == nil {
					if serial.err != "" || serial.tr.Annotated != annotate || !serial.rep.Complete() || !serial.vr.OK() {
						t.Fatalf("intact recording: Decode %q, annotated %v, Recover %v, Verify OK %v", serial.err, serial.tr != nil && serial.tr.Annotated, serial.rep, serial.vr.OK())
					}
					return
				}
				if want := fmt.Sprintf("offset %d", d.firstBad); !strings.Contains(serial.err, want) {
					t.Errorf("Decode: got %q, want the first bad block at %s", serial.err, want)
				}
				if serial.rep.Complete() || serial.vr.OK() {
					t.Errorf("damaged recording passes: Recover %v, Verify OK %v", serial.rep, serial.vr.OK())
				}
			})
		}
	}
}
