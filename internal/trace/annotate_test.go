package trace

import (
	"bytes"
	"context"
	"slices"
	"strings"
	"testing"

	"repro/internal/guest"
	"repro/internal/workloads"
)

// TestAnnotationPayloadRoundTrip drives the 'A'-block wire codec through
// representative and extreme values: every field must survive unchanged,
// including the three-way writer provenance encoding.
func TestAnnotationPayloadRoundTrip(t *testing.T) {
	runs := []StampRun{
		{Events: 1, StartCount: 0, KernelBumps: 0},
		{Events: 4096, StartCount: 1 << 40, KernelBumps: 12345},
		{Events: 7, StartCount: ^uint64(0) >> 1, KernelBumps: 99},
	}
	stamps := []Stamp{
		{WTS: 0, Writer: 0},                     // never written
		{WTS: 17, Writer: KernelWriter},         // kernel write
		{WTS: 1 << 50, Writer: 1},               // thread 0
		{WTS: 42, Writer: ^uint32(0) - 1},       // near-max thread encoding
		{WTS: ^uint64(0), Writer: KernelWriter}, // extreme timestamp
	}
	id := guest.ThreadID(7)
	payload := appendAnnotationPayload(nil, id, runs, stamps)
	gotID, gotRuns, gotStamps, err := parseAnnotationBlock(payload)
	if err != nil {
		t.Fatal(err)
	}
	if gotID != id {
		t.Fatalf("thread id: got %d, want %d", gotID, id)
	}
	if len(gotRuns) != len(runs) {
		t.Fatalf("runs: got %d, want %d", len(gotRuns), len(runs))
	}
	for i := range runs {
		if gotRuns[i] != runs[i] {
			t.Fatalf("run %d: got %+v, want %+v", i, gotRuns[i], runs[i])
		}
	}
	if len(gotStamps) != len(stamps) {
		t.Fatalf("stamps: got %d, want %d", len(gotStamps), len(stamps))
	}
	for i := range stamps {
		if gotStamps[i] != stamps[i] {
			t.Fatalf("stamp %d: got %+v, want %+v", i, gotStamps[i], stamps[i])
		}
	}
}

// parseAnnotationBlock decodes a whole 'A' payload the way the decoders do:
// header first, then the runs and stamps into slices of the header's sizes.
func parseAnnotationBlock(payload []byte) (guest.ThreadID, []StampRun, []Stamp, error) {
	id, nr, ns, hdr, err := annotationHeader(payload)
	if err != nil {
		return id, nil, nil, err
	}
	runs, stamps := make([]StampRun, nr), make([]Stamp, ns)
	return id, runs, stamps, parseAnnotation(payload[hdr:], runs, stamps)
}

// TestAnnotationPayloadRejectsGarbage: malformed payloads must error, never
// panic or silently truncate.
func TestAnnotationPayloadRejectsGarbage(t *testing.T) {
	good := appendAnnotationPayload(nil, 3,
		[]StampRun{{Events: 2, StartCount: 5}}, []Stamp{{WTS: 4, Writer: 1}})
	cases := map[string][]byte{
		"empty":          {},
		"truncated":      good[:len(good)-1],
		"trailing bytes": append(append([]byte(nil), good...), 0),
		"huge run count": {3, 0xff, 0xff, 0xff, 0x7f},
	}
	for name, payload := range cases {
		if _, _, _, err := parseAnnotationBlock(payload); err == nil {
			t.Errorf("%s: parse accepted malformed payload", name)
		}
	}
}

// TestRecorderAnnotationCoverage records real workloads through the
// streaming recorder and checks the decoder-validated annotation structure:
// run lengths tile each thread's events exactly, stamps match the read
// count, and the run entry counts are consistent with the kernel-bump
// tallies.
func TestRecorderAnnotationCoverage(t *testing.T) {
	for _, wl := range []string{"mysqld", "producer-consumer", "external-read", "fig1a"} {
		var buf bytes.Buffer
		rec := NewStreamRecorder(&buf)
		if _, err := workloads.RunByName(wl, workloads.Params{Size: 16, Threads: 3}, rec); err != nil {
			t.Fatal(err)
		}
		if err := rec.Close(); err != nil {
			t.Fatal(err)
		}
		tr, err := Decode(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		if !tr.Annotated {
			t.Fatalf("%s: streamed trace not annotated", wl)
		}
		for i := range tr.Threads {
			tt := &tr.Threads[i]
			if tt.Ann == nil {
				t.Fatalf("%s: thread %d: nil annotation on annotated trace", wl, tt.ID)
			}
			sum := 0
			for _, run := range tt.Ann.Runs {
				if run.Events <= 0 {
					t.Fatalf("%s: thread %d: non-positive run length %d", wl, tt.ID, run.Events)
				}
				if run.KernelBumps > run.StartCount {
					t.Fatalf("%s: thread %d: kernel bumps %d exceed entry count %d",
						wl, tt.ID, run.KernelBumps, run.StartCount)
				}
				sum += run.Events
			}
			if sum != len(tt.Events) {
				t.Fatalf("%s: thread %d: runs cover %d of %d events", wl, tt.ID, sum, len(tt.Events))
			}
			reads := 0
			for _, e := range tt.Events {
				if e.Kind == KindRead || e.Kind == KindKernelRead {
					reads++
				}
			}
			if got, want := len(tt.Ann.Stamps), reads; got != want {
				t.Fatalf("%s: thread %d: %d stamps for %d reads", wl, tt.ID, got, want)
			}
		}
	}
}

// TestSetAnnotationsOff: a recorder with annotations disabled writes a
// valid, unannotated trace.
func TestSetAnnotationsOff(t *testing.T) {
	var buf bytes.Buffer
	rec := NewStreamRecorder(&buf)
	rec.SetAnnotations(false)
	if _, err := workloads.RunByName("producer-consumer", workloads.Params{Size: 12}, rec); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	tr, err := Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Annotated {
		t.Fatal("trace annotated despite SetAnnotations(false)")
	}
	vr, err := Verify(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if vr.Annotations != 0 {
		t.Fatalf("%d annotation blocks written despite SetAnnotations(false)", vr.Annotations)
	}
}

// TestAnnotateRejects: Annotate errors on the inputs per-ThreadTrace
// annotations cannot describe, and on a canceled context.
func TestAnnotateRejects(t *testing.T) {
	ev := func(ts uint64, th guest.ThreadID) Event { return Event{TS: ts, Thread: th, Kind: KindRead, Arg: 8} }
	cases := map[string]struct {
		tr   *Trace
		ctx  func() context.Context
		want string
	}{
		"repeated ThreadTrace ID": {
			tr: &Trace{Threads: []ThreadTrace{
				{ID: 1, Events: []Event{ev(1, 1)}},
				{ID: 1, Events: []Event{ev(2, 1)}},
			}},
			want: "thread 1 has more than one ThreadTrace",
		},
		"event from another thread": {
			tr: &Trace{Threads: []ThreadTrace{
				{ID: 1, Events: []Event{ev(1, 1), ev(2, 2)}},
			}},
			want: "event 1 of thread 1 belongs to thread 2",
		},
		"canceled context": {
			tr: &Trace{Threads: []ThreadTrace{{ID: 1, Events: []Event{ev(1, 1)}}}},
			ctx: func() context.Context {
				ctx, cancel := context.WithCancel(context.Background())
				cancel()
				return ctx
			},
			want: context.Canceled.Error(),
		},
	}
	for name, tc := range cases {
		ctx := context.Background()
		if tc.ctx != nil {
			ctx = tc.ctx()
		}
		out, err := Annotate(ctx, tc.tr, 0)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Annotate = %v, want error containing %q", name, err, tc.want)
		}
		if out != nil {
			t.Errorf("%s: Annotate returned a trace alongside its error", name)
		}
	}
}

// TestRecordedAnnotationsMatchAnnotate pins the recorder's live annotator,
// which runs over each callback's events as they arrive, against the
// offline pass: for every thread of a streamed recording, the decoded
// stamps equal those Annotate computes for the stripped twin, and so do
// the runs once the splits the recorder's flushes leave are merged back.
func TestRecordedAnnotationsMatchAnnotate(t *testing.T) {
	for _, wl := range []string{"mysqld", "producer-consumer", "dedup", "external-read"} {
		for _, seg := range []int{DefaultSegmentEvents, 7} {
			var buf bytes.Buffer
			rec := NewStreamRecorder(&buf)
			rec.SetSegmentEvents(seg)
			if _, err := workloads.RunByName(wl, workloads.Params{Size: 16, Threads: 4, Seed: 3}, rec); err != nil {
				t.Fatal(err)
			}
			if err := rec.Close(); err != nil {
				t.Fatal(err)
			}
			recorded, err := Decode(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			if !recorded.Annotated {
				t.Fatalf("%s/seg=%d: streamed trace not annotated", wl, seg)
			}
			stripped := *recorded
			stripped.Threads = slices.Clone(recorded.Threads)
			stripped.StripAnnotations()
			offline, err := Annotate(context.Background(), &stripped, 0)
			if err != nil {
				t.Fatal(err)
			}
			for i := range recorded.Threads {
				tt, want := &recorded.Threads[i], offline.Threads[i].Ann
				if !slices.Equal(tt.Ann.Stamps, want.Stamps) {
					t.Errorf("%s/seg=%d: thread %d: recorded stamps differ from Annotate's", wl, seg, tt.ID)
				}
				if got := mergeFlushSplits(tt.Events, tt.Ann.Runs); !slices.Equal(got, want.Runs) {
					t.Errorf("%s/seg=%d: thread %d: recorded runs %v merge to %v, Annotate has %v", wl, seg, tt.ID, tt.Ann.Runs, got, want.Runs)
				}
			}
		}
	}
}

// mergeFlushSplits merges each run of a thread with its predecessor when
// it starts at exactly the counter and kernel-bump tally the predecessor
// ended at, which is how a recorder flush splits a run. Runs the merged
// order separates never meet that way: the switches to another thread and
// back bump the counter between them.
func mergeFlushSplits(events []Event, runs []StampRun) []StampRun {
	var out []StampRun
	var count, kernel uint64 // the counter and tally after the last run
	off := 0
	for _, r := range runs {
		if n := len(out); n > 0 && r.StartCount == count && r.KernelBumps == kernel {
			out[n-1].Events += r.Events
		} else {
			out = append(out, r)
			count, kernel = r.StartCount, r.KernelBumps
		}
		for _, e := range events[off : off+r.Events] {
			switch e.Kind {
			case KindCall:
				count++
			case KindKernelWrite:
				count++
				kernel++
			}
		}
		off += r.Events
	}
	return out
}
