package trace_test

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/guest"
	"repro/internal/shadow"
	"repro/internal/trace"
	"repro/internal/trace/pipeline"
)

// fuzzSeedTrace builds a small but representative trace covering both name
// tables, several threads, every hot event kind and a cell that thread 0
// writes and every thread reads, so the later threads' reads are induced.
func fuzzSeedTrace() *trace.Trace {
	tr := &trace.Trace{
		Routines: []string{"main", "worker", "leaf"},
		Syncs:    []string{"mu"},
	}
	for th := int32(0); th < 3; th++ {
		tt := trace.ThreadTrace{ID: guest.ThreadID(th)}
		ts := uint64(th) * 100
		add := func(k trace.Kind, arg, aux uint64) {
			ts += 3
			tt.Events = append(tt.Events, trace.Event{TS: ts, Thread: tt.ID, Kind: k, Arg: arg, Aux: aux})
		}
		add(trace.KindThreadStart, 0, 0)
		add(trace.KindCall, 0, 10)
		add(trace.KindWrite, 0x1000, 0)
		add(trace.KindRead, 0x1000, 0)
		if th == 0 {
			add(trace.KindWrite, 0x3000, 0)
		}
		add(trace.KindRead, 0x3000, 0)
		add(trace.KindSyncAcquire, 0, 0)
		add(trace.KindKernelRead, 0x2000, 0)
		add(trace.KindSyncRelease, 0, 0)
		add(trace.KindReturn, 0, 25)
		add(trace.KindThreadExit, 0, 0)
		tr.Threads = append(tr.Threads, tt)
	}
	return tr
}

// v1Trace is a one-thread trace (routine "main", one call and its return)
// in the retired unframed v1 format, which every reader rejects.
const v1Trace = "ISPTRACE\x01\x01\x04main\x00\x01\x00\x02\x01\x00\x00\x00\x01\x01\x00\x05"

// fuzzInputs returns the shared seed inputs of the decoder fuzz targets:
// a clean encoding, a v1 encoding (rejected), truncations, bit flips, bare
// magic, empty input, the two self-inconsistent traces Decode rejects although
// every block checksums (bytes after the footer, and a footer whose counts
// disagree with the stream), two more it rejects although every block
// checksums: a memory access outside the analysed address space, and a
// thread whose timestamps go backwards, and the run-shaped inputs of
// runCases.
func fuzzInputs(tb testing.TB) [][]byte {
	encode := func(tr *trace.Trace) []byte {
		var buf bytes.Buffer
		if _, err := tr.EncodeUnchecked(&buf); err != nil {
			tb.Fatal(err)
		}
		return buf.Bytes()
	}
	clean := encode(fuzzSeedTrace())
	farAddr := fuzzSeedTrace()
	farAddr.Threads[1].Events[2].Arg = 1 << shadow.MaxAddrBits
	backwards := fuzzSeedTrace()
	backwards.Threads[2].Events[3].TS = 1
	inputs := [][]byte{
		clean,
		[]byte(v1Trace),
		clean[:len(clean)/2],
		clean[:len(clean)-2],
		faultinject.FlipBits(clean, 1, 3, 0),
		faultinject.FlipBits(clean, 2, 8, 9),
		[]byte("ISPTRACE"),
		{},
		encode(farAddr),
		encode(backwards),
	}
	for _, c := range selfInconsistentTraces(tb) {
		inputs = append(inputs, c.data)
	}
	for _, c := range runCases(tb) {
		inputs = append(inputs, c.data)
	}
	return inputs
}

func fuzzSeeds(f *testing.F) {
	for _, in := range fuzzInputs(f) {
		f.Add(in)
	}
}

// normalized returns a copy of tr for comparison with reflect.DeepEqual,
// with empty slices nil.
func normalized(tr *trace.Trace) *trace.Trace {
	out := *tr
	out.Routines = nilIfEmpty(tr.Routines)
	out.Syncs = nilIfEmpty(tr.Syncs)
	out.Threads = make([]trace.ThreadTrace, len(tr.Threads))
	for i, tt := range tr.Threads {
		tt.Events = nilIfEmpty(tt.Events)
		if tt.Ann != nil {
			ann := trace.ThreadAnnotation{Runs: nilIfEmpty(tt.Ann.Runs), Stamps: nilIfEmpty(tt.Ann.Stamps)}
			tt.Ann = &ann
		}
		out.Threads[i] = tt
	}
	return &out
}

func nilIfEmpty[T any](s []T) []T {
	if len(s) == 0 {
		return nil
	}
	return s
}

// FuzzDecode: the strict decoder must never panic or over-allocate on
// arbitrary bytes. Whatever it accepts the reference encoder must write
// back to bytes that decode to an equal trace, Recover must return the same
// trace as a
// complete salvage and Verify must pass it, and it must analyse the same
// way through the pipeline and through replay (analyzeBothWays).
// Conversely, a trace Verify passes must decode.
func FuzzDecode(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := trace.Decode(bytes.NewReader(data))
		vr, verr := trace.Verify(bytes.NewReader(data))
		if verr == nil && vr.OK() && err != nil {
			t.Fatalf("Verify passes a trace Decode rejects: %v", err)
		}
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if _, err := tr.EncodeUnchecked(&buf); err != nil {
			t.Fatalf("re-encoding an accepted trace: %v", err)
		}
		back, err := trace.Decode(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("decoding a fresh encoding: %v", err)
		}
		if !reflect.DeepEqual(normalized(back), normalized(tr)) {
			t.Fatal("Decode(EncodeUnchecked(tr)) differs from tr")
		}
		rtr, rep, err := trace.Recover(bytes.NewReader(data))
		if err != nil || !rep.Complete() {
			t.Fatalf("Recover of an accepted trace: err=%v report=%v", err, rep)
		}
		if !reflect.DeepEqual(normalized(rtr), normalized(tr)) {
			t.Fatal("Recover returned a different trace than Decode")
		}
		if verr != nil || !vr.OK() {
			t.Fatalf("Verify rejects an accepted trace: err=%v report=%+v", verr, vr)
		}
		analyzeBothWays(t, tr)
	})
}

// analyzeBothWays analyses an accepted trace through pipeline.Analyze and
// through Replay into core.New. Neither may panic, either both fail or
// neither does, and when both succeed their exports must be equal.
func analyzeBothWays(t *testing.T, tr *trace.Trace) {
	pp, perr := pipeline.Analyze(tr, pipeline.Options{TieSeed: 1, Workers: 2})
	rp, rerr := core.FromTrace(tr, 1, core.Options{})
	if (perr == nil) != (rerr == nil) {
		t.Fatalf("pipeline error %v, replay error %v", perr, rerr)
	}
	if perr != nil {
		return
	}
	want, err := rp.Export()
	if err != nil {
		t.Fatal(err)
	}
	got, err := pp.Export()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		d := pp.Diff(rp)
		t.Fatalf("pipeline export differs from replay's:\n%s", strings.Join(d[:min(len(d), 8)], "\n"))
	}
}

// FuzzRecover: on arbitrary bytes Recover must never panic, and when it
// succeeds the report must be non-nil and account exactly for the salvaged
// trace; a complete salvage must be a trace Decode accepts, and every
// salvage must analyse the same way through the pipeline and through
// replay (analyzeBothWays). Verify must agree on never panicking.
func FuzzRecover(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, rep, err := trace.Recover(bytes.NewReader(data))
		if err == nil {
			if tr == nil || rep == nil {
				t.Fatal("successful Recover returned a nil trace or report")
			}
			if rep.SalvagedEvents != tr.NumEvents() {
				t.Fatalf("report says %d events, trace has %d", rep.SalvagedEvents, tr.NumEvents())
			}
			perThread := 0
			for _, th := range rep.PerThread {
				perThread += th.Events
			}
			if perThread != rep.SalvagedEvents {
				t.Fatalf("per-thread events sum to %d, report says %d", perThread, rep.SalvagedEvents)
			}
			_ = rep.String()
			if _, derr := trace.Decode(bytes.NewReader(data)); rep.Complete() && derr != nil {
				t.Fatalf("Recover calls a trace complete that Decode rejects: %v", derr)
			}
			analyzeBothWays(t, tr)
		}
		if vr, verr := trace.Verify(bytes.NewReader(data)); verr == nil && vr == nil {
			t.Fatal("successful Verify returned a nil report")
		}
	})
}

// streamFeed feeds data to a fresh StreamDecoder in chunks whose sizes
// cycle through cuts (each byte plus one; the whole input at once when cuts
// is empty) and returns the concatenated deltas and the first error.
func streamFeed(data, cuts []byte) (trace.StreamDelta, error) {
	d := trace.NewStreamDecoder()
	var all trace.StreamDelta
	for off, i := 0, 0; off < len(data); i++ {
		end := len(data)
		if len(cuts) > 0 {
			end = min(off+int(cuts[i%len(cuts)])+1, len(data))
		}
		delta, err := d.Feed(data[off:end])
		all.Routines = append(all.Routines, delta.Routines...)
		all.Syncs = append(all.Syncs, delta.Syncs...)
		all.Segments = append(all.Segments, delta.Segments...)
		all.Footer = all.Footer || delta.Footer
		if err != nil {
			return all, err
		}
		off = end
	}
	return all, nil
}

// FuzzStreamDecoder: the incremental decoder must never panic, must not
// depend on how its input is chunked — a whole feed and a split feed yield
// the same deltas and both fail or neither does — and on a trace Decode
// accepts it must stream exactly the decoded name tables and, per thread,
// the decoded events, which feed through core.Incremental.FeedRun to the
// profile batch replay computes (feedStreamed), as pipeline.Analyze of the
// decoded trace does (analyzeBothWays).
func FuzzStreamDecoder(f *testing.F) {
	var buf bytes.Buffer
	sr := trace.NewStreamRecorder(&buf)
	sr.SetSegmentEvents(8)
	exampleRun(f, 5, sr)
	if err := sr.Close(); err != nil {
		f.Fatal(err)
	}
	raw := buf.Bytes()
	corrupt := bytes.Clone(raw)
	corrupt[len(corrupt)/2] ^= 0xff
	badVersion := bytes.Clone(raw)
	badVersion[8] = 99
	inputs := append(fuzzInputs(f), raw, corrupt, badVersion, append(bytes.Clone(raw), 0))
	for _, in := range inputs {
		f.Add(in, []byte{0})
		f.Add(in, []byte{6, 200, 30})
	}
	f.Fuzz(func(t *testing.T, data, cuts []byte) {
		whole, werr := streamFeed(data, nil)
		split, serr := streamFeed(data, cuts)
		if (werr == nil) != (serr == nil) {
			t.Fatalf("whole feed error %v, split feed error %v", werr, serr)
		}
		if !reflect.DeepEqual(whole, split) {
			t.Fatal("whole and split feeds decoded different deltas")
		}
		tr, err := trace.Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		if werr != nil || !whole.Footer {
			t.Fatalf("stream of an accepted trace: error %v, footer %v", werr, whole.Footer)
		}
		if !reflect.DeepEqual(nilIfEmpty(whole.Routines), nilIfEmpty(tr.Routines)) ||
			!reflect.DeepEqual(nilIfEmpty(whole.Syncs), nilIfEmpty(tr.Syncs)) {
			t.Fatal("streamed name tables differ from the decoded ones")
		}
		streamed := make(map[guest.ThreadID][]trace.Event)
		for _, seg := range whole.Segments {
			streamed[seg.Thread] = append(streamed[seg.Thread], seg.Events...)
		}
		if len(streamed) != len(tr.Threads) {
			t.Fatalf("streamed %d threads, decoded %d", len(streamed), len(tr.Threads))
		}
		for _, tt := range tr.Threads {
			if !reflect.DeepEqual(nilIfEmpty(streamed[tt.ID]), nilIfEmpty(tt.Events)) {
				t.Fatalf("thread %d: streamed events differ from the decoded ones", tt.ID)
			}
		}
		analyzeBothWays(t, tr)
		feedStreamed(t, tr, whole.Segments)
	})
}

// feedStreamed is the daemon's route over an accepted stream: its segments,
// fed through core.Incremental.FeedRun in the decoded trace's merged order
// and released once fed, must export exactly what Replay of the decoded
// trace into core.New does.
func feedStreamed(t *testing.T, tr *trace.Trace, segs []trace.StreamSegment) {
	p := core.New(core.Options{})
	if err := trace.Replay(tr, 1, p); err != nil {
		t.Fatalf("replay of the decoded trace: %v", err)
	}
	want, werr := p.Profile().Export()

	queues := make(map[guest.ThreadID][][]trace.Event)
	for _, seg := range segs {
		queues[seg.Thread] = append(queues[seg.Thread], seg.Events)
	}
	in := core.NewIncremental(core.Options{})
	if err := in.ExtendTables(tr.Routines, tr.Syncs); err != nil {
		t.Fatal(err)
	}
	var ferr error
	fedOf := make(map[guest.ThreadID]int) // events fed from each head segment
	trace.WalkRuns(tr, 1, func(ti, lo, hi int) {
		th := tr.Threads[ti].ID
		for n := hi - lo; n > 0 && ferr == nil; {
			q, off := queues[th], fedOf[th]
			if off == len(q[0]) {
				trace.ReleaseSegment(q[0])
				queues[th], fedOf[th] = q[1:], 0
				continue
			}
			k := min(n, len(q[0])-off)
			ferr = in.FeedRun(q[0][off : off+k])
			fedOf[th] += k
			n -= k
		}
	})
	if ferr != nil {
		t.Fatalf("FeedRun of an accepted stream: %v", ferr)
	}
	for _, q := range queues {
		for _, seg := range q {
			trace.ReleaseSegment(seg)
		}
	}
	in.Finish()
	got, gerr := in.Profiler().Profile().Export()
	if (werr == nil) != (gerr == nil) || !bytes.Equal(got, want) {
		t.Fatalf("fed stream exports %d bytes (%v), replay %d bytes (%v)", len(got), gerr, len(want), werr)
	}
}
