package trace_test

import (
	"bytes"
	"errors"
	"io"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/guest"
	"repro/internal/shadow"
	"repro/internal/trace"
)

// TestStreamRecorderMatchesRecorder runs the in-memory Recorder and the
// StreamRecorder side by side over the same execution: the streamed file
// must decode strictly (footer and all) to the same per-thread events, even
// with a tiny segment bound forcing many flushes.
func TestStreamRecorderMatchesRecorder(t *testing.T) {
	var buf bytes.Buffer
	rec := trace.NewRecorder()
	sr := trace.NewStreamRecorder(&buf)
	sr.SetSegmentEvents(8)
	exampleRun(t, 5, rec, sr)
	if err := sr.Close(); err != nil {
		t.Fatal(err)
	}
	if sr.Written() != int64(buf.Len()) {
		t.Fatalf("Written() = %d, buffer has %d bytes", sr.Written(), buf.Len())
	}

	streamed, err := trace.Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("strict decode of streamed trace: %v", err)
	}
	want := rec.Trace()
	if streamed.NumEvents() != want.NumEvents() {
		t.Fatalf("streamed %d events, recorder saw %d", streamed.NumEvents(), want.NumEvents())
	}
	wantEvents := threadEvents(want)
	for i := range streamed.Threads {
		tt := &streamed.Threads[i]
		ref := wantEvents[int32(tt.ID)]
		if len(tt.Events) != len(ref) {
			t.Fatalf("thread %d: streamed %d events, want %d", tt.ID, len(tt.Events), len(ref))
		}
		for j := range tt.Events {
			if tt.Events[j] != ref[j] {
				t.Fatalf("thread %d event %d = %+v, want %+v", tt.ID, j, tt.Events[j], ref[j])
			}
		}
	}
	if len(want.Routines) > 0 && streamed.RoutineName(0) != want.RoutineName(0) {
		t.Fatalf("routine table mismatch: %q vs %q", streamed.RoutineName(0), want.RoutineName(0))
	}
}

// TestStreamRecorderCrashSalvage kills the output mid-run with a byte-exact
// ShortWriter: Recover must salvage every completed segment from the prefix,
// each an exact prefix of the reference recording, without error.
func TestStreamRecorderCrashSalvage(t *testing.T) {
	// Reference run to size the full encoding.
	var full bytes.Buffer
	rec := trace.NewRecorder()
	srFull := trace.NewStreamRecorder(&full)
	srFull.SetSegmentEvents(8)
	exampleRun(t, 5, rec, srFull)
	if err := srFull.Close(); err != nil {
		t.Fatal(err)
	}
	refEvents := threadEvents(rec.Trace())

	for _, frac := range []int{4, 2, 3} {
		limit := int64(full.Len() * (frac - 1) / frac)
		var buf bytes.Buffer
		sr := trace.NewStreamRecorder(faultinject.ShortWriter(&buf, limit))
		sr.SetSegmentEvents(8)
		exampleRun(t, 5, sr)
		if err := sr.Close(); !errors.Is(err, io.ErrShortWrite) {
			t.Fatalf("limit %d: Close = %v, want ErrShortWrite", limit, err)
		}
		if int64(buf.Len()) != limit {
			t.Fatalf("limit %d: underlying writer saw %d bytes", limit, buf.Len())
		}

		rtr, rep, err := trace.Recover(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("limit %d: Recover: %v", limit, err)
		}
		if !rep.Truncated {
			t.Fatalf("limit %d: killed run not reported truncated", limit)
		}
		if rep.SalvagedEvents == 0 {
			t.Fatalf("limit %d: nothing salvaged from a %d-byte prefix", limit, limit)
		}
		for i := range rtr.Threads {
			tt := &rtr.Threads[i]
			ref := refEvents[int32(tt.ID)]
			if len(tt.Events) > len(ref) {
				t.Fatalf("limit %d: thread %d salvaged %d events, reference run has %d", limit, tt.ID, len(tt.Events), len(ref))
			}
			for j := range tt.Events {
				if tt.Events[j] != ref[j] {
					t.Fatalf("limit %d: thread %d event %d diverges from the reference run", limit, tt.ID, j)
				}
			}
		}
	}
}

// TestStreamRecorderFailingWriter checks that an injected hard write error is
// sticky and surfaces through both Err and Close.
func TestStreamRecorderFailingWriter(t *testing.T) {
	var buf bytes.Buffer
	sr := trace.NewStreamRecorder(faultinject.FailingWriter(&buf, faultinject.After(3)))
	sr.SetSegmentEvents(4)
	exampleRun(t, 5, sr)
	if !errors.Is(sr.Err(), faultinject.ErrInjected) {
		t.Fatalf("Err() = %v, want ErrInjected", sr.Err())
	}
	if !errors.Is(sr.Close(), faultinject.ErrInjected) {
		t.Fatal("Close() lost the sticky write error")
	}
}

// TestStreamRecorderRejectsReuse: attaching the recorder to a second run is
// an error, not silent corruption.
func TestStreamRecorderRejectsReuse(t *testing.T) {
	var buf bytes.Buffer
	sr := trace.NewStreamRecorder(&buf)
	exampleRun(t, 5, sr)
	if sr.Close() != nil {
		t.Fatal(sr.Err())
	}
	exampleRun(t, 5, sr)
	if sr.Err() == nil {
		t.Fatal("reusing a StreamRecorder across runs was not rejected")
	}
}

// clockEnv is a guest.Env whose clock advances by one per Now, for driving
// a recorder by hand.
type clockEnv struct{ now uint64 }

func (e *clockEnv) RoutineName(guest.RoutineID) string { return "main" }
func (e *clockEnv) SyncName(guest.SyncID) string       { return "mu" }
func (e *clockEnv) NumRoutines() int                   { return 1 }
func (e *clockEnv) NumSyncs() int                      { return 0 }
func (e *clockEnv) Now() uint64                        { e.now++; return e.now }

// mem records one memory access of thread 1 at the clock's next tick.
func mem(sr *trace.StreamRecorder, env *clockEnv, e guest.MemEvent) {
	sr.MemBatch(1, env.Now(), []guest.MemEvent{e})
}

// TestStreamRecorderAddressOutOfRange: a memory access at or above
// 1<<shadow.MaxAddrBits in a batch, or an alloc or free whose
// range runs past it, becomes the recorder's sticky *AddressError. The
// event is dropped and recording stops, with annotations on or off, and
// nothing panics.
func TestStreamRecorderAddressOutOfRange(t *testing.T) {
	const far = guest.Addr(1) << shadow.MaxAddrBits
	cases := []struct {
		name string
		kind trace.Kind
		bad  func(sr *trace.StreamRecorder, env *clockEnv)
	}{
		{"Alloc", trace.KindAlloc, func(sr *trace.StreamRecorder, _ *clockEnv) { sr.Alloc(1, far-8, 9) }},
		{"Free", trace.KindFree, func(sr *trace.StreamRecorder, _ *clockEnv) { sr.Free(1, 0x10, -1) }},
		{"MemBatch", trace.KindWrite, func(sr *trace.StreamRecorder, env *clockEnv) {
			// The first two accesses of the batch are in range and
			// recorded; the third is refused.
			sr.MemBatch(1, env.now+1, []guest.MemEvent{guest.ReadEvent(0x40), guest.WriteEvent(0x48), guest.WriteEvent(far + 8), guest.ReadEvent(0x50)})
			env.now += 4
		}},
	}
	for _, annotate := range []bool{true, false} {
		for _, tc := range cases {
			var buf bytes.Buffer
			env := &clockEnv{}
			sr := trace.NewStreamRecorder(&buf)
			sr.SetAnnotations(annotate)
			sr.Attach(env)
			sr.ThreadStart(1, 0)
			sr.Call(1, 0, 1)
			mem(sr, env, guest.WriteEvent(0x10))
			mem(sr, env, guest.ReadEvent(0x10))
			prelude := buf.Len()
			tc.bad(sr, env)
			mem(sr, env, guest.ReadEvent(0x20))
			sr.Return(1, 0, 2)
			sr.Finish()

			want := 4
			if tc.name == "MemBatch" {
				want = 6
			}
			var ae *trace.AddressError
			if !errors.As(sr.Err(), &ae) {
				t.Fatalf("%s (annotate=%v): Err() = %v, want an *AddressError", tc.name, annotate, sr.Err())
			}
			if ae.Event != want || ae.Kind != tc.kind || ae.Addr>>shadow.MaxAddrBits == 0 {
				t.Errorf("%s (annotate=%v): got %+v, want event %d, kind %s, an out-of-range address", tc.name, annotate, *ae, want, tc.kind)
			}
			if err := sr.Close(); err != sr.Err() {
				t.Errorf("%s (annotate=%v): Close() = %v, lost the sticky error", tc.name, annotate, err)
			}
			if buf.Len() != prelude {
				t.Errorf("%s (annotate=%v): %d bytes written after the error", tc.name, annotate, buf.Len()-prelude)
			}
		}
	}
}

// TestDispatchAddressOutOfRange: Dispatch refuses a memory access at or
// above 1<<shadow.MaxAddrBits with an *AddressError before any tool sees
// it, including one whose address has bit 62 or 63 set, the bits a
// guest.MemEvent keeps its access kind in. The recorder is left as it
// was and records the next access.
func TestDispatchAddressOutOfRange(t *testing.T) {
	kinds := []trace.Kind{trace.KindRead, trace.KindWrite, trace.KindKernelRead, trace.KindKernelWrite}
	for _, arg := range []uint64{1 << shadow.MaxAddrBits, 1<<63 | 8, 1<<62 | 8} {
		for _, k := range kinds {
			var buf bytes.Buffer
			env := &clockEnv{}
			sr := trace.NewStreamRecorder(&buf)
			sr.Attach(env)
			sr.ThreadStart(1, 0)
			tools := []guest.Tool{sr}
			err := trace.Dispatch(trace.Event{TS: env.now + 1, Thread: 1, Kind: k, Arg: arg}, tools)
			var ae *trace.AddressError
			if !errors.As(err, &ae) || ae.Kind != k || ae.Addr != arg {
				t.Fatalf("Dispatch of a %s at %#x = %v, want an *AddressError for it", k, arg, err)
			}
			env.now++
			if err := trace.Dispatch(trace.Event{TS: env.now + 1, Thread: 1, Kind: trace.KindRead, Arg: 0x20}, tools); err != nil {
				t.Fatal(err)
			}
			env.now++
			sr.ThreadExit(1)
			if err := sr.Close(); err != nil {
				t.Fatalf("%s at %#x: Close() = %v", k, arg, err)
			}
			tr, err := trace.Decode(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			var mems []trace.Event
			for _, e := range tr.Threads[0].Events {
				if e.Kind.IsMemory() {
					mems = append(mems, e)
				}
			}
			if len(mems) != 1 || mems[0].Kind != trace.KindRead || mems[0].Arg != 0x20 {
				t.Errorf("%s at %#x: recorded memory events %v, want only the read of 0x20", k, arg, mems)
			}
		}
	}
}
