package trace_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"slices"
	"testing"
	"time"

	"repro/internal/faultinject"
	"repro/internal/guest"
	"repro/internal/shadow"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// TestStreamRecorderMatchesRecorder runs the reference recorder and the
// StreamRecorder side by side over the same execution: the streamed file
// must decode strictly (footer and all) to the same per-thread events, even
// with a tiny segment bound forcing many flushes.
func TestStreamRecorderMatchesRecorder(t *testing.T) {
	var buf bytes.Buffer
	rec := newRefRecorder()
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
	want := rec.trace
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
	rec := newRefRecorder()
	srFull := trace.NewStreamRecorder(&full)
	srFull.SetSegmentEvents(8)
	exampleRun(t, 5, rec, srFull)
	if err := srFull.Close(); err != nil {
		t.Fatal(err)
	}
	refEvents := threadEvents(rec.trace)

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

// TestStreamRecorderWriteErrorMidBatch: a write error while flushing the
// first full segment of a long memory batch stops the rest of the batch;
// the recorder neither spins on the segments it can no longer flush nor
// loses the error.
func TestStreamRecorderWriteErrorMidBatch(t *testing.T) {
	for _, annotate := range []bool{true, false} {
		var buf bytes.Buffer
		// The prelude and the routine table are written; the first
		// segment is not.
		sr := trace.NewStreamRecorder(faultinject.FailingWriter(&buf, faultinject.After(2)))
		sr.SetAnnotations(annotate)
		sr.SetSegmentEvents(4)
		env := &clockEnv{}
		sr.Attach(env)
		sr.ThreadStart(1, 0)
		batch := make([]guest.MemEvent, 20)
		for i := range batch {
			batch[i] = guest.ReadEvent(guest.Addr(0x10 + i))
		}
		done := make(chan struct{})
		go func() {
			sr.MemBatch(1, env.now+1, batch)
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("annotate=%v: MemBatch did not return after a write error", annotate)
		}
		if !errors.Is(sr.Close(), faultinject.ErrInjected) {
			t.Fatalf("annotate=%v: Close() = %v, want ErrInjected", annotate, sr.Err())
		}
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

// TestStreamRecorderGoldenBytes pins the StreamRecorder's output: the
// SHA-256 of the recording of three workloads (size 16, 8 threads, seed 1),
// annotated and not, at the default segment bound and at 7. The hashes
// are of format v3, with its memory runs and stamp deltas; a change to the
// format or to where the recorder cuts runs changes them.
func TestStreamRecorderGoldenBytes(t *testing.T) {
	golden := map[string]string{
		"mysqld/seg=default/annotated":              "4c06091207345b534b7daaad8b848ff5a18145daf9a9aa04977aeaf50df15d00",
		"mysqld/seg=default/unannotated":            "e17364444f3364a9a1b46eee8a1e0e44ae3f6848a65f7d871f178bddc504919c",
		"mysqld/seg=7/annotated":                    "33463e1f2c1dca7c4b542d924562e04f03e0c735f856e5ac518561a7aefd06b2",
		"mysqld/seg=7/unannotated":                  "951bc08891ce8b53394c7a75ddf3c326b91edb15f449b0bb192fb7dfde4e2331",
		"producer-consumer/seg=default/annotated":   "c901eea5a61437d9529300b1cb01cbe272cb9e652aa7a0048cf5d08e05a85c03",
		"producer-consumer/seg=default/unannotated": "da8df302fffdeb768a2b4d83e6b7f1a3d3c1ebc5e673babc65f28cc180354150",
		"producer-consumer/seg=7/annotated":         "d4a6c295928e914a3c9c043360d0ce22facbd97d1cd59b40a205bae3b2f658bd",
		"producer-consumer/seg=7/unannotated":       "a69d33df5c41aee6bc3b7a4c4df7b6a4a28a597e6d63d5ff2282009268557a5f",
		"dedup/seg=default/annotated":               "13c1d1f75e7a1e95ae80767fb8cfec80f0656bfa0b8c137cb1d96174300c181f",
		"dedup/seg=default/unannotated":             "6140b4128db0aa043449a11dea07a3a42702dc71941f7558e46771c3886c3b2b",
		"dedup/seg=7/annotated":                     "62294ae7821dc4a36bf8a0daa18733bc29b4b7eb620969df32da7dc244b7e608",
		"dedup/seg=7/unannotated":                   "08d57642087bad622e01c3a9d9b7d26447673ffb1ed6c82326202f905fcbcc39",
	}
	for _, wl := range []string{"mysqld", "producer-consumer", "dedup"} {
		for _, seg := range []int{0, 7} {
			for _, annotate := range []bool{true, false} {
				name := fmt.Sprintf("%s/seg=%d/", wl, seg)
				if seg == 0 {
					name = wl + "/seg=default/"
				}
				if annotate {
					name += "annotated"
				} else {
					name += "unannotated"
				}
				var buf bytes.Buffer
				sr := trace.NewStreamRecorder(&buf)
				sr.SetAnnotations(annotate)
				if seg > 0 {
					sr.SetSegmentEvents(seg)
				}
				if _, err := workloads.RunByName(wl, workloads.Params{Size: 16, Threads: 8, Seed: 1}, sr); err != nil {
					t.Fatal(err)
				}
				if err := sr.Close(); err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(buf.Bytes())
				if got := hex.EncodeToString(sum[:]); got != golden[name] {
					t.Errorf("%s: recording hashes to %s, want %s", name, got, golden[name])
				}
			}
		}
	}
}

// TestStreamRecorderGuardStopsAnnotations drives the recorder by hand: a
// memory batch whose first timestamp is at or inside the previous batch's
// timestamp span breaks the merged-order assumption the annotator relies
// on, so the file must come out unannotated, yet decode strictly with
// every event intact. Empty batches, at any timestamp, neither trip the
// guard nor move it, and record nothing, not even their thread.
func TestStreamRecorderGuardStopsAnnotations(t *testing.T) {
	cases := []struct {
		name string
		// second is the start timestamp of thread 2's batch, which follows
		// thread 1's batch at timestamps 3, 4 and 5.
		second    uint64
		annotated bool
	}{
		{"at the start of the previous span", 3, false},
		{"inside the previous span", 4, false},
		{"at the end of the previous span", 5, false},
		{"after the previous span", 6, true},
	}
	for _, tc := range cases {
		var buf bytes.Buffer
		env := &clockEnv{}
		sr := trace.NewStreamRecorder(&buf)
		sr.SetSegmentEvents(4)
		sr.Attach(env)
		sr.ThreadStart(1, 0) // timestamp 1
		sr.ThreadStart(2, 0) // timestamp 2
		want := map[int32][]trace.Event{
			1: {{TS: 1, Thread: 1, Kind: trace.KindThreadStart}},
			2: {{TS: 2, Thread: 2, Kind: trace.KindThreadStart}},
		}
		batch := func(th guest.ThreadID, ts uint64, addrs ...guest.Addr) {
			evs := make([]guest.MemEvent, len(addrs))
			for i, a := range addrs {
				evs[i] = guest.WriteEvent(a)
				want[int32(th)] = append(want[int32(th)], trace.Event{TS: ts + uint64(i), Thread: th, Kind: trace.KindWrite, Arg: uint64(a)})
			}
			sr.MemBatch(th, ts, evs)
			env.now = max(env.now, ts+uint64(len(addrs))-1)
		}
		sr.MemBatch(1, 1, nil) // an empty batch does not trip the guard
		batch(1, 3, 0x10, 0x18, 0x20)
		sr.MemBatch(3, 1<<40, nil) // nor moves it, nor records a thread
		batch(2, tc.second, 0x28, 0x30)
		sr.ThreadExit(1)
		want[1] = append(want[1], trace.Event{TS: env.now, Thread: 1, Kind: trace.KindThreadExit})
		sr.ThreadExit(2)
		want[2] = append(want[2], trace.Event{TS: env.now, Thread: 2, Kind: trace.KindThreadExit})
		if err := sr.Close(); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}

		tr, err := trace.Decode(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: strict decode: %v", tc.name, err)
		}
		if tr.Annotated != tc.annotated {
			t.Errorf("%s: decoded Annotated = %v, want %v", tc.name, tr.Annotated, tc.annotated)
		}
		got := threadEvents(tr)
		if len(got) != len(want) {
			t.Fatalf("%s: decoded %d threads, want %d", tc.name, len(got), len(want))
		}
		for id, evs := range want {
			if !slices.Equal(got[id], evs) {
				t.Errorf("%s: thread %d decoded %v, want %v", tc.name, id, got[id], evs)
			}
		}
	}
}
