package trace_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"math/rand/v2"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"repro/internal/block"
	"repro/internal/guest"
	"repro/internal/shadow"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// runCase is an input shaped around memory runs, the records that carry up
// to 16 same-kind accesses to adjacent cells at consecutive timestamps,
// and what every decoder must make of it: the trace it decodes to, or an
// error containing err (an *AddressError for addr, when addr is set).
type runCase struct {
	name string
	data []byte
	want *trace.Trace
	err  string
	addr *trace.AddressError
}

// rawRunTrace frames one thread-1 segment whose header claims count events
// around records given as (TS delta, kind, arg, aux), and a footer that
// agrees with the header, bypassing the encoder.
func rawRunTrace(count uint64, recs ...[4]uint64) []byte {
	payload := binary.AppendUvarint(binary.AppendUvarint(nil, 1), count)
	for _, r := range recs {
		payload = binary.AppendUvarint(payload, r[0])
		payload = append(payload, byte(r[1]))
		payload = binary.AppendUvarint(binary.AppendUvarint(payload, r[2]), r[3])
	}
	data := append([]byte("ISPTRACE"), trace.FormatVersion())
	data = block.Append(data, 'E', payload)
	return block.Append(data, 'F', []byte{1, byte(count), 1})
}

// runEvents returns n accesses of kind k by thread 1 to the cells from
// addr on, at the timestamps from ts on: one full run and whatever follows.
func runEvents(k trace.Kind, addr, ts uint64, n int) []trace.Event {
	events := make([]trace.Event, n)
	for i := range events {
		events[i] = trace.Event{TS: ts + uint64(i), Thread: 1, Kind: k, Arg: addr + uint64(i)}
	}
	return events
}

// runCases builds the run-shaped inputs: a kernel-write run and a read run
// across a shadow-memory chunk boundary and a 20-cell read run the encoder
// cuts at the cap (unannotated, and annotated, where a read of a
// never-written cell after reads of later writes makes the stamp delta wrap
// WTS); runs that end exactly at the address-space limit and that cross
// it; a 17-access run; a run longer than its segment's remaining count; and
// a run whose last timestamp overflows.
func runCases(tb testing.TB) []runCase {
	const limit = uint64(1) << shadow.MaxAddrBits
	encode := func(tr *trace.Trace) []byte {
		var buf bytes.Buffer
		if _, err := tr.EncodeUnchecked(&buf); err != nil {
			tb.Fatal(err)
		}
		return buf.Bytes()
	}
	one := func(events ...[]trace.Event) *trace.Trace {
		tt := trace.ThreadTrace{ID: 1}
		for _, e := range events {
			tt.Events = append(tt.Events, e...)
		}
		return &trace.Trace{Routines: []string{"main"}, Threads: []trace.ThreadTrace{tt}}
	}
	mark := func(k trace.Kind, ts, arg uint64) []trace.Event {
		return []trace.Event{{TS: ts, Thread: 1, Kind: k, Arg: arg}}
	}
	chunk := one(
		mark(trace.KindThreadStart, 1, 0),
		mark(trace.KindCall, 2, 0),
		runEvents(trace.KindKernelWrite, shadow.ChunkSize-8, 3, 16),
		runEvents(trace.KindRead, shadow.ChunkSize-8, 19, 16),
		runEvents(trace.KindRead, 0x100, 35, 20),
		mark(trace.KindReturn, 55, 0),
	)
	annotated, err := trace.Annotate(context.Background(), chunk, 1)
	if err != nil {
		tb.Fatal(err)
	}
	toLimit := one(runEvents(trace.KindRead, limit-16, 1, 16))
	pastLimit := one(runEvents(trace.KindKernelWrite, limit-8, 1, 16))
	return []runCase{
		{name: "chunk-crossing", data: encode(chunk), want: chunk},
		{name: "stamp-wrap", data: encode(annotated), want: annotated},
		{name: "run-to-limit", data: encode(toLimit), want: toLimit},
		{name: "run-past-limit", data: encode(pastLimit),
			addr: &trace.AddressError{Event: 8, Kind: trace.KindKernelWrite, Addr: limit}},
		{name: "run-of-17", data: rawRunTrace(17, [4]uint64{1, uint64(trace.KindRead), 0x40, 16}),
			err: "exceeds the 16-access cap"},
		{name: "run-past-count", data: rawRunTrace(4, [4]uint64{1, uint64(trace.KindRead), 0x40, 7}),
			err: "overruns the segment's 4 remaining events"},
		{name: "run-ts-overflow", data: rawRunTrace(2, [4]uint64{math.MaxUint64, uint64(trace.KindWrite), 0x40, 1}),
			err: "overflows"},
	}
}

// TestRunShapes: Decode, the StreamDecoder and Verify agree on every
// run-shaped input. Accepted inputs decode back to the trace they encode,
// one Event per access and annotations intact; rejected ones fail with the
// case's error, a run crossing the address-space limit naming the first
// access past it.
func TestRunShapes(t *testing.T) {
	for _, c := range runCases(t) {
		check := func(what string, err error) {
			t.Helper()
			switch {
			case c.want != nil && err != nil:
				t.Errorf("%s: %s: %v", c.name, what, err)
			case c.addr != nil:
				var ae *trace.AddressError
				if !errors.As(err, &ae) || *ae != *c.addr {
					t.Errorf("%s: %s returned %v, want %+v", c.name, what, err, *c.addr)
				}
			case c.want == nil && (err == nil || !strings.Contains(err.Error(), c.err)):
				t.Errorf("%s: %s returned %v, want an error containing %q", c.name, what, err, c.err)
			}
		}
		tr, err := trace.Decode(bytes.NewReader(c.data))
		check("Decode", err)
		accepted := err == nil && c.want != nil
		if accepted && !reflect.DeepEqual(normalized(tr), normalized(c.want)) {
			t.Errorf("%s: Decode returned %v, want %v", c.name, tr.Threads, c.want.Threads)
		}
		if accepted && tr.Annotated != c.want.Annotated {
			t.Errorf("%s: decoded Annotated = %v, want %v", c.name, tr.Annotated, c.want.Annotated)
		}
		delta, err := trace.NewStreamDecoder().Feed(c.data)
		check("StreamDecoder", err)
		if err == nil && c.want != nil {
			var streamed []trace.Event
			for _, seg := range delta.Segments {
				streamed = append(streamed, seg.Events...)
			}
			if !reflect.DeepEqual(streamed, c.want.Threads[0].Events) {
				t.Errorf("%s: StreamDecoder streamed other events than the trace's", c.name)
			}
		}
		vr, err := trace.Verify(bytes.NewReader(c.data))
		if err != nil {
			t.Fatal(err)
		}
		if vr.OK() != (c.want != nil) {
			t.Errorf("%s: Verify OK = %v", c.name, vr.OK())
		}
	}
}

// TestRunCostsOneRecord: a run of 16 accesses encodes to as many bytes as
// its first access alone, and 17 accesses take one record more.
func TestRunCostsOneRecord(t *testing.T) {
	size := func(n int) int {
		tr := &trace.Trace{Threads: []trace.ThreadTrace{{ID: 1, Events: runEvents(trace.KindRead, 0x40, 1, n)}}}
		return len(recordBytes(t, tr))
	}
	if one, run := size(1), size(16); one != run {
		t.Errorf("one access encodes to %d bytes, a 16-access run to %d", one, run)
	}
	if run, more := size(16), size(17); more-run != 4 {
		t.Errorf("a 17th access adds %d bytes, want one 4-byte record", more-run)
	}
}

// traceEnv serves a trace's name tables to a recorder driven by hand, at
// the timestamp now.
type traceEnv struct {
	tr  *trace.Trace
	now uint64
}

func (e *traceEnv) RoutineName(r guest.RoutineID) string { return e.tr.Routines[r] }
func (e *traceEnv) SyncName(s guest.SyncID) string       { return e.tr.Syncs[s] }
func (e *traceEnv) NumRoutines() int                     { return len(e.tr.Routines) }
func (e *traceEnv) NumSyncs() int                        { return len(e.tr.Syncs) }
func (e *traceEnv) Now() uint64                          { return e.now }

// TestStreamRecorderRunsIgnoreBatching: the recorder forms the same runs,
// and so writes the same bytes, whether a thread's accesses arrive one per
// MemBatch call, as trace.Dispatch delivers them, or in batches cut at
// random points, with annotations on and off and at a segment bound small
// enough to cut runs. The bytes decode to the recorded execution.
func TestStreamRecorderRunsIgnoreBatching(t *testing.T) {
	rec := trace.NewRecorder()
	if _, err := workloads.RunByName("mysqld", workloads.Params{Threads: 4, Size: 12}, rec); err != nil {
		t.Fatal(err)
	}
	tr := rec.Trace()
	merged := trace.Merge(tr, 1)
	record := func(seg int, annotate bool, batched bool) []byte {
		var buf bytes.Buffer
		sr := trace.NewStreamRecorder(&buf)
		sr.SetAnnotations(annotate)
		sr.SetSegmentEvents(seg)
		env := &traceEnv{tr: tr}
		sr.Attach(env)
		tools := []guest.Tool{sr}
		rng := rand.New(rand.NewPCG(1, uint64(seg)))
		var batch []guest.MemEvent
		for i := 0; i < len(merged); {
			e := merged[i]
			env.now = e.TS
			if !batched || !e.Kind.IsMemory() {
				if err := trace.Dispatch(e, tools); err != nil {
					t.Fatal(err)
				}
				i++
				continue
			}
			batch = batch[:0]
			for n := 1 + rng.IntN(40); len(batch) < n && i < len(merged); i++ {
				f := merged[i]
				if !f.Kind.IsMemory() || f.Thread != e.Thread || f.TS != e.TS+uint64(len(batch)) {
					break
				}
				batch = append(batch, memEvent(f))
			}
			sr.MemBatch(e.Thread, e.TS, batch)
		}
		if err := sr.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, seg := range []int{7, trace.DefaultSegmentEvents} {
		for _, annotate := range []bool{true, false} {
			want := record(seg, annotate, false)
			if got := record(seg, annotate, true); !bytes.Equal(got, want) {
				t.Errorf("seg=%d annotate=%v: batched recording differs from per-event recording (%d vs %d bytes)", seg, annotate, len(got), len(want))
			}
			back, err := trace.Decode(bytes.NewReader(want))
			if err != nil {
				t.Fatal(err)
			}
			if back.Annotated != annotate || back.NumEvents() != tr.NumEvents() {
				t.Errorf("seg=%d annotate=%v: decoded %d events, annotated %v; want %d", seg, annotate, back.NumEvents(), back.Annotated, tr.NumEvents())
			}
			wantEvents := threadEvents(tr)
			for _, tt := range back.Threads {
				if !reflect.DeepEqual(tt.Events, wantEvents[int32(tt.ID)]) {
					t.Fatalf("seg=%d annotate=%v: thread %d decodes to other events than recorded", seg, annotate, tt.ID)
				}
			}
		}
	}
}

// memEvent packs a memory Event the way the guest hands it to MemBatch.
func memEvent(e trace.Event) guest.MemEvent {
	a := guest.Addr(e.Arg)
	switch e.Kind {
	case trace.KindWrite:
		return guest.WriteEvent(a)
	case trace.KindKernelRead:
		return guest.KernelReadEvent(a)
	case trace.KindKernelWrite:
		return guest.KernelWriteEvent(a)
	}
	return guest.ReadEvent(a)
}

// TestStreamDecoderAnnotationScratch: the StreamDecoder validates each 'A'
// block into scratch it reuses, so feeding a recording's annotation blocks
// one by one allocates a bounded number of times in all, however many
// blocks and stamps there are.
func TestStreamDecoderAnnotationScratch(t *testing.T) {
	var buf bytes.Buffer
	sr := trace.NewStreamRecorder(&buf)
	sr.SetSegmentEvents(256)
	if _, err := workloads.RunByName("mysqld", workloads.Params{Threads: 4, Size: 12}, sr); err != nil {
		t.Fatal(err)
	}
	if err := sr.Close(); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	vr, err := trace.Verify(bytes.NewReader(data))
	if err != nil || !vr.OK() {
		t.Fatalf("recording does not verify: %v", err)
	}
	d := trace.NewStreamDecoder()
	if _, err := d.Feed(data[:vr.Blocks[0].Offset]); err != nil { // the prelude
		t.Fatal(err)
	}
	var blocks, mallocs uint64
	var before, after runtime.MemStats
	for i, b := range vr.Blocks {
		end := int64(len(data))
		if i+1 < len(vr.Blocks) {
			end = vr.Blocks[i+1].Offset
		}
		if b.Kind != 'A' {
			if _, err := d.Feed(data[b.Offset:end]); err != nil {
				t.Fatal(err)
			}
			continue
		}
		runtime.ReadMemStats(&before)
		_, err := d.Feed(data[b.Offset:end])
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		blocks++
		mallocs += after.Mallocs - before.Mallocs
	}
	if blocks < 100 {
		t.Fatalf("only %d annotation blocks; the test needs many", blocks)
	}
	if mallocs > 16 {
		t.Errorf("feeding %d annotation blocks allocated %d times, want at most 16", blocks, mallocs)
	}
}
