package trace_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/block"
	"repro/internal/core"
	"repro/internal/guest"
	"repro/internal/shadow"
	"repro/internal/telemetry"
	"repro/internal/tools"
	"repro/internal/trace"
	"repro/internal/trace/pipeline"
	"repro/internal/workloads"
)

// selfInconsistentCase is a trace whose every block checksums but which is
// still wrong as a whole, with the intact trace it was made from.
type selfInconsistentCase struct {
	name   string
	data   []byte
	intact *trace.Trace
}

// selfInconsistentTraces builds the two self-inconsistent inputs: an
// annotated stream recording with three bytes after its footer, and a
// 2-event trace whose re-framed footer (valid checksum) claims 99 events.
func selfInconsistentTraces(tb testing.TB) []selfInconsistentCase {
	var rec bytes.Buffer
	sr := trace.NewStreamRecorder(&rec)
	exampleRun(tb, 5, sr)
	if err := sr.Close(); err != nil {
		tb.Fatal(err)
	}
	recorded, err := trace.Decode(bytes.NewReader(rec.Bytes()))
	if err != nil {
		tb.Fatal(err)
	}

	small := &trace.Trace{
		Routines: []string{"main"},
		Threads: []trace.ThreadTrace{{ID: 0, Events: []trace.Event{
			{TS: 1, Kind: trace.KindCall},
			{TS: 2, Kind: trace.KindReturn},
		}}},
	}
	enc := recordBytes(tb, small)
	vr, err := trace.Verify(bytes.NewReader(enc))
	if err != nil || !vr.OK() {
		tb.Fatalf("clean 2-event trace does not verify: %v %+v", err, vr)
	}
	footer := vr.Blocks[len(vr.Blocks)-1]
	var payload []byte
	payload = binary.AppendUvarint(payload, uint64(len(vr.Blocks)-1))
	payload = binary.AppendUvarint(payload, 99)
	payload = binary.AppendUvarint(payload, 1)
	lying := block.Append(bytes.Clone(enc[:footer.Offset]), 'F', payload)

	return []selfInconsistentCase{
		{"trailing-bytes", append(bytes.Clone(rec.Bytes()), 1, 2, 3), recorded},
		{"footer-mismatch", lying, small},
	}
}

// TestSelfInconsistentTraces: Decode rejects bytes after the footer and a
// footer that disagrees with the stream, so Verify must not pass them and
// Recover must not call them complete. Salvage still returns every event,
// without the annotations a lossy recovery strips.
func TestSelfInconsistentTraces(t *testing.T) {
	for _, c := range selfInconsistentTraces(t) {
		t.Run(c.name, func(t *testing.T) {
			if _, err := trace.Decode(bytes.NewReader(c.data)); err == nil {
				t.Fatal("Decode accepted the trace")
			}
			vr, err := trace.Verify(bytes.NewReader(c.data))
			if err != nil {
				t.Fatal(err)
			}
			if vr.OK() || vr.Bad != 1 {
				t.Fatalf("Verify OK=%v Bad=%d, want one bad block", vr.OK(), vr.Bad)
			}
			rtr, rep, err := trace.Recover(bytes.NewReader(c.data))
			if err != nil {
				t.Fatal(err)
			}
			if rep.Complete() || len(rep.Dropped) != 1 {
				t.Fatalf("Recover complete=%v with %d drops, want one drop:\n%s", rep.Complete(), len(rep.Dropped), rep)
			}
			if rep.SalvagedBlocks+len(rep.Dropped) != rep.BlocksSeen || rep.BlocksSeen != len(vr.Blocks) {
				t.Fatalf("block accounting: %d salvaged + %d dropped, %d seen, Verify walked %d",
					rep.SalvagedBlocks, len(rep.Dropped), rep.BlocksSeen, len(vr.Blocks))
			}
			for _, blk := range vr.Blocks {
				if blk.Err != nil && blk.Offset != rep.Dropped[0].Offset {
					t.Fatalf("Verify flags offset %d, Recover drops offset %d", blk.Offset, rep.Dropped[0].Offset)
				}
			}
			if rtr.Annotated {
				t.Fatal("incomplete recovery kept its annotations")
			}
			want := *c.intact
			want.StripAnnotations()
			if !reflect.DeepEqual(normalized(rtr), normalized(&want)) {
				t.Fatal("salvaged events differ from the intact trace")
			}
		})
	}
}

// TestDecodeExactCapacity: Decode sizes every thread's events, runs and
// stamps from the block headers before filling them, so no slice grows by
// appending (cap == len), and the bytes it allocates stay a small multiple
// of the 32-byte Event.
func TestDecodeExactCapacity(t *testing.T) {
	var buf bytes.Buffer
	rec := trace.NewStreamRecorder(&buf)
	if _, err := workloads.RunByName("mysqld", workloads.Params{Size: 16, Threads: 4}, rec); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	tr, err := trace.Decode(bytes.NewReader(buf.Bytes()))
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Annotated {
		t.Fatal("recorded trace decoded unannotated")
	}
	for _, tt := range tr.Threads {
		if cap(tt.Events) != len(tt.Events) || cap(tt.Ann.Runs) != len(tt.Ann.Runs) || cap(tt.Ann.Stamps) != len(tt.Ann.Stamps) {
			t.Fatalf("thread %d: cap/len events %d/%d, runs %d/%d, stamps %d/%d", tt.ID,
				cap(tt.Events), len(tt.Events), cap(tt.Ann.Runs), len(tt.Ann.Runs), cap(tt.Ann.Stamps), len(tt.Ann.Stamps))
		}
	}
	perEvent := float64(after.TotalAlloc-before.TotalAlloc) / float64(tr.NumEvents())
	t.Logf("%d events, %d bytes encoded, %.1f B/event allocated", tr.NumEvents(), buf.Len(), perEvent)
	if perEvent >= 80 {
		t.Fatalf("Decode allocated %.1f B/event, want < 80", perEvent)
	}
}

// TestDecodeTimePublished: Decode, Recover and Verify each add their wall
// time to the process-wide trace/decode_ns gauge.
func TestDecodeTimePublished(t *testing.T) {
	_, data := encodeExample(t)
	reg := telemetry.NewRegistry()
	trace.PublishTelemetry(reg)
	before := reg.Gauge("trace/decode_ns").Load()
	for _, read := range []func() error{
		func() error { _, err := trace.Decode(bytes.NewReader(data)); return err },
		func() error { _, _, err := trace.Recover(bytes.NewReader(data)); return err },
		func() error { _, err := trace.Verify(bytes.NewReader(data)); return err },
	} {
		if err := read(); err != nil {
			t.Fatal(err)
		}
		trace.PublishTelemetry(reg)
		after := reg.Gauge("trace/decode_ns").Load()
		if after <= before {
			t.Fatalf("trace/decode_ns went from %d to %d", before, after)
		}
		before = after
	}
}

// TestTimestampOverflowRejected: a segment whose timestamp delta wraps
// past 2^64 (what an unchecked encoder writes for a thread whose timestamps
// go backwards) fails the shared event parser, so every decoded segment's
// timestamps are non-decreasing: Decode and StreamDecoder reject it, and
// Recover drops just that segment as invalid.
func TestTimestampOverflowRejected(t *testing.T) {
	good := trace.ThreadTrace{ID: 1, Events: []trace.Event{
		{TS: 1, Thread: 1, Kind: trace.KindRead, Arg: 8},
		{TS: 1, Thread: 1, Kind: trace.KindWrite, Arg: 8}, // equal is fine
	}}
	bad := trace.ThreadTrace{ID: 2, Events: []trace.Event{
		{TS: 5, Thread: 2, Kind: trace.KindWrite, Arg: 64},
		{TS: 3, Thread: 2, Kind: trace.KindRead, Arg: 64},
	}}
	var buf bytes.Buffer
	if _, err := (&trace.Trace{Threads: []trace.ThreadTrace{good, bad}}).EncodeUnchecked(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	if _, err := trace.Decode(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), "overflows") {
		t.Errorf("Decode of an overflowing segment: got %v, want an overflow error", err)
	}
	if _, err := trace.NewStreamDecoder().Feed(data); err == nil || !strings.Contains(err.Error(), "overflows") {
		t.Errorf("StreamDecoder of an overflowing segment: got %v, want an overflow error", err)
	}
	tr, rep, err := trace.Recover(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Dropped) != 1 || rep.Dropped[0].Cause != trace.DropInvalid || rep.Dropped[0].Thread != 2 {
		t.Errorf("Recover dropped %+v, want thread 2's segment as %s", rep.Dropped, trace.DropInvalid)
	}
	if tr.NumEvents() != len(good.Events) {
		t.Errorf("Recover salvaged %d events, want thread 1's %d", tr.NumEvents(), len(good.Events))
	}
}

// TestEncodeRejectsBackwardsTimestamps: an encoded trace cannot carry a
// thread whose timestamps go backwards. Within a segment the step back is
// a delta that overflows (TestTimestampOverflowRejected); across two
// segments of one thread, each monotone, only the decoder can see it, and
// Decode rejects the later segment for starting before the earlier one
// ends. Equal timestamps still round-trip.
func TestEncodeRejectsBackwardsTimestamps(t *testing.T) {
	ev := func(id guest.ThreadID, ts uint64) trace.Event {
		return trace.Event{TS: ts, Thread: id, Kind: trace.KindRead, Arg: 8}
	}
	var buf bytes.Buffer
	split := &trace.Trace{Threads: []trace.ThreadTrace{
		{ID: 3, Events: []trace.Event{ev(3, 7)}},
		{ID: 3, Events: []trace.Event{ev(3, 6)}},
	}}
	if _, err := split.EncodeUnchecked(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := trace.Decode(bytes.NewReader(buf.Bytes())); err == nil || !strings.Contains(err.Error(), "before the previous segment") {
		t.Errorf("Decode of a thread stepping back across segments: got %v", err)
	}

	equal := &trace.Trace{Routines: []string{"r"}, Threads: []trace.ThreadTrace{
		{ID: 1, Events: []trace.Event{ev(1, 2), ev(1, 2), ev(1, 2)}},
	}}
	back, err := trace.Decode(bytes.NewReader(recordBytes(t, equal)))
	if err != nil {
		t.Fatalf("equal timestamps rejected: %v", err)
	}
	if !reflect.DeepEqual(normalized(back), normalized(equal)) {
		t.Fatal("equal timestamps do not round-trip")
	}
}

// TestOutOfRangeAddressInMemoryTraces: a hand-built trace never passes the
// parser, so Replay and Annotate (and pipeline.Analyze, which annotates an
// unannotated trace first) check addresses themselves: a memory access at
// or above 1<<shadow.MaxAddrBits, or an alloc or free whose range runs past
// it, is an *AddressError naming the event, not a panic in shadow memory.
// Replay includes Memcheck, which sets a shadow cell for every allocated
// address.
func TestOutOfRangeAddressInMemoryTraces(t *testing.T) {
	const limit = uint64(1) << shadow.MaxAddrBits
	for _, bad := range []trace.Event{
		{TS: 3, Kind: trace.KindRead, Arg: limit},
		{TS: 3, Kind: trace.KindWrite, Arg: limit},
		{TS: 3, Kind: trace.KindKernelRead, Arg: limit},
		{TS: 3, Kind: trace.KindKernelWrite, Arg: limit},
		{TS: 3, Kind: trace.KindAlloc, Arg: limit - 8, Aux: 1 << 40},
		{TS: 3, Kind: trace.KindFree, Arg: limit - 8, Aux: 9},
	} {
		tr := &trace.Trace{Routines: []string{"main"}, Threads: []trace.ThreadTrace{{ID: 0, Events: []trace.Event{
			{TS: 1, Kind: trace.KindCall, Aux: 1},
			{TS: 2, Kind: trace.KindWrite, Arg: 64},
			bad,
			{TS: 4, Kind: trace.KindReturn, Aux: 5},
		}}}}
		k := bad.Kind
		for _, route := range []struct {
			name string
			run  func() error
		}{
			{"Replay", func() error { return trace.Replay(tr, 1, core.New(core.Options{}), tools.NewMemcheck()) }},
			{"Annotate", func() error {
				_, err := trace.Annotate(context.Background(), tr, 1)
				return err
			}},
			{"pipeline.Analyze", func() error {
				_, err := pipeline.Analyze(tr, pipeline.Options{})
				return err
			}},
		} {
			var ae *trace.AddressError
			if err := route.run(); !errors.As(err, &ae) || ae.Event != 2 || ae.Kind != k || ae.Addr != limit {
				t.Errorf("%s of a %s at %#x: got %v, want an *AddressError for event 2 at %#x", route.name, k, bad.Arg, err, limit)
			}
		}
	}
}

// TestOutOfRangeAddressRejected: every decoder rejects a memory access at
// or above 1<<shadow.MaxAddrBits, and an alloc or free whose range runs
// past it, with an *AddressError — Decode and the StreamDecoder fail,
// Recover drops the segment with DropAddress and keeps the rest, Verify
// reports the block — while the last in-range address, a range that ends
// exactly at the limit and out-of-range arguments of other events decode.
func TestOutOfRangeAddressRejected(t *testing.T) {
	const limit = uint64(1) << shadow.MaxAddrBits
	encode := func(tr *trace.Trace) []byte {
		var buf bytes.Buffer
		if _, err := tr.EncodeUnchecked(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	good := trace.ThreadTrace{ID: 1, Events: []trace.Event{
		{TS: 1, Thread: 1, Kind: trace.KindRead, Arg: limit - 1},
		{TS: 2, Thread: 1, Kind: trace.KindAlloc, Arg: limit - 8, Aux: 8},
		{TS: 3, Thread: 1, Kind: trace.KindFree, Arg: 0, Aux: limit},
		{TS: 4, Thread: 1, Kind: trace.KindSyncAcquire, Arg: limit << 4},
	}}
	if _, err := trace.Decode(bytes.NewReader(recordBytes(t, &trace.Trace{Syncs: []string{"mu"}, Threads: []trace.ThreadTrace{good}}))); err != nil {
		t.Fatalf("in-range trace rejected: %v", err)
	}
	for _, e := range []trace.Event{
		{Kind: trace.KindRead, Arg: limit},
		{Kind: trace.KindWrite, Arg: limit},
		{Kind: trace.KindKernelRead, Arg: limit},
		{Kind: trace.KindKernelWrite, Arg: limit},
		{Kind: trace.KindAlloc, Arg: 8, Aux: 1 << 40},
		{Kind: trace.KindAlloc, Arg: limit - 8, Aux: 9},
		{Kind: trace.KindFree, Arg: limit, Aux: 0},
		{Kind: trace.KindFree, Arg: limit - 1, Aux: math.MaxUint64},
	} {
		e.TS, e.Thread = 6, 2
		k := e.Kind
		want := max(e.Arg, limit)
		bad := trace.ThreadTrace{ID: 2, Events: []trace.Event{
			{TS: 5, Thread: 2, Kind: trace.KindWrite, Arg: 64},
			e,
		}}
		data := encode(&trace.Trace{Syncs: []string{"mu"}, Threads: []trace.ThreadTrace{good, bad}})
		isAddr := func(what string, err error) {
			t.Helper()
			var ae *trace.AddressError
			if !errors.As(err, &ae) || ae.Addr != want || ae.Kind != k || ae.Event != 1 {
				t.Errorf("%s of a %s at %#x (aux %#x): got %v, want an AddressError at %#x", what, k, e.Arg, e.Aux, err, want)
			}
		}
		_, err := trace.Decode(bytes.NewReader(data))
		isAddr("Decode", err)
		_, err = trace.NewStreamDecoder().Feed(data)
		isAddr("StreamDecoder", err)

		tr, rep, err := trace.Recover(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Dropped) != 1 || rep.Dropped[0].Cause != trace.DropAddress || rep.Dropped[0].Thread != 2 {
			t.Errorf("Recover of a %s at %#x dropped %+v, want thread 2's segment as %s", k, e.Arg, rep.Dropped, trace.DropAddress)
		}
		if tr.NumEvents() != len(good.Events) {
			t.Errorf("Recover salvaged %d events, want thread 1's %d", tr.NumEvents(), len(good.Events))
		}

		vr, err := trace.Verify(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		bad1 := 0
		for _, b := range vr.Blocks {
			if b.Err != nil {
				bad1++
				isAddr("Verify", b.Err)
			}
		}
		if bad1 != 1 {
			t.Errorf("Verify reports %d bad blocks, want 1", bad1)
		}
	}
}

// routineTrace is a one-name routine table and one call/return pair at
// routine id rtn, written by the reference encoder. At rtn 1<<26 it is 59
// bytes.
func routineTrace(tb testing.TB, rtn uint64) []byte {
	tr := &trace.Trace{Routines: []string{"main"}, Threads: []trace.ThreadTrace{{ID: 1, Events: []trace.Event{
		{TS: 1, Thread: 1, Kind: trace.KindCall, Arg: rtn},
		{TS: 2, Thread: 1, Kind: trace.KindReturn, Arg: rtn, Aux: 1},
	}}}}
	var buf bytes.Buffer
	if _, err := tr.EncodeUnchecked(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// TestRoutineIDPastTableRejected: a call or return must name a routine in
// the table, since analyzers index per-routine tables by its id. The
// 59-byte trace with a call/return pair at id 1<<26 is an error from Decode
// and the StreamDecoder, Recover drops its segment as DropInvalid and
// Verify reports the segment. The last id in the table decodes.
func TestRoutineIDPastTableRejected(t *testing.T) {
	if _, err := trace.Decode(bytes.NewReader(routineTrace(t, 0))); err != nil {
		t.Fatalf("routine 0 of a 1-name table rejected: %v", err)
	}
	data := routineTrace(t, 1<<26)
	if len(data) != 59 {
		t.Fatalf("the trace is %d bytes, want 59", len(data))
	}
	const want = "call of routine 67108864 outside the 1-name routine table"
	if _, err := trace.Decode(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("Decode: got %v, want %q", err, want)
	}
	if _, err := trace.NewStreamDecoder().Feed(data); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("StreamDecoder: got %v, want %q", err, want)
	}
	tr, rep, err := trace.Recover(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Dropped) != 1 || rep.Dropped[0].Cause != trace.DropInvalid || rep.Dropped[0].Thread != 1 || tr.NumEvents() != 0 {
		t.Errorf("Recover dropped %+v and kept %d events, want thread 1's segment as %s", rep.Dropped, tr.NumEvents(), trace.DropInvalid)
	}
	vr, err := trace.Verify(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var bad []trace.BlockInfo
	for _, b := range vr.Blocks {
		if b.Err != nil {
			bad = append(bad, b)
		}
	}
	if len(bad) != 1 || bad[0].Kind != 'E' || !strings.Contains(bad[0].Err.Error(), want) {
		t.Errorf("Verify reports bad blocks %+v, want the segment", bad)
	}
}
