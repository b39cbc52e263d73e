package trace_test

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/trace/pipeline"
)

// annotatedExample records the example run through the streaming recorder
// and decodes it, yielding a stamp-annotated trace.
func annotatedExample(t *testing.T) *trace.Trace {
	t.Helper()
	var buf bytes.Buffer
	sr := trace.NewStreamRecorder(&buf)
	exampleRun(t, 5, sr)
	if err := sr.Close(); err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Decode(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Annotated {
		t.Fatal("streamed example trace should decode annotated")
	}
	return tr
}

// TestCombineShardCountTable pins Combine's behavior across the shard-count
// spectrum: zero shards yield an explicit current-version empty trace, one
// shard passes through with annotations intact, several shards join with
// annotations dropped.
func TestCombineShardCountTable(t *testing.T) {
	whole := annotatedExample(t)
	var shards []*trace.Trace
	for i := range whole.Threads {
		shards = append(shards, &trace.Trace{
			Version:   whole.Version,
			Annotated: whole.Annotated,
			Routines:  whole.Routines,
			Syncs:     whole.Syncs,
			Threads:   []trace.ThreadTrace{whole.Threads[i]},
		})
	}
	if len(shards) < 2 {
		t.Fatalf("example run produced %d threads, need >= 2", len(shards))
	}

	tests := []struct {
		name      string
		shards    []*trace.Trace
		events    int
		annotated bool
	}{
		{"zero", nil, 0, false},
		{"one", []*trace.Trace{whole}, whole.NumEvents(), true},
		{"many", shards, whole.NumEvents(), false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got, err := trace.Combine(tc.shards...)
			if err != nil {
				t.Fatal(err)
			}
			if got.EffectiveVersion() != trace.FormatVersion() {
				t.Errorf("EffectiveVersion = %d, want %d", got.EffectiveVersion(), trace.FormatVersion())
			}
			if tc.name == "zero" && got.Version != trace.FormatVersion() {
				t.Errorf("zero shards: Version = %d, want explicit %d", got.Version, trace.FormatVersion())
			}
			if got.NumEvents() != tc.events {
				t.Errorf("NumEvents = %d, want %d", got.NumEvents(), tc.events)
			}
			if got.Annotated != tc.annotated {
				t.Errorf("Annotated = %v, want %v", got.Annotated, tc.annotated)
			}
			for i := range got.Threads {
				hasAnn := got.Threads[i].Ann != nil
				if hasAnn != tc.annotated {
					t.Errorf("thread %d: Ann present = %v, want %v", got.Threads[i].ID, hasAnn, tc.annotated)
				}
			}
			// The empty trace must round-trip through the codec like any
			// other current-version trace.
			if tc.name == "zero" {
				var buf bytes.Buffer
				if _, err := got.Encode(&buf); err != nil {
					t.Fatalf("encoding empty combined trace: %v", err)
				}
				if _, err := trace.Decode(bytes.NewReader(buf.Bytes())); err != nil {
					t.Fatalf("decoding empty combined trace: %v", err)
				}
			}
		})
	}
}

// TestCombineSingleShardKeepsAnnotatedRoute is the regression test for the
// single-shard annotation drop: Combine over one annotated shard must keep
// the pipeline on recorded annotations (no offline Annotate pass) and still
// reproduce the sequential replay's profile exactly.
func TestCombineSingleShardKeepsAnnotatedRoute(t *testing.T) {
	whole := annotatedExample(t)
	combined, err := trace.Combine(whole)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := pipeline.BuildPlan(combined, 1, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Annotated() {
		t.Fatal("single-shard Combine lost the annotated plan route")
	}
	got, err := plan.Run(2)
	if err != nil {
		t.Fatal(err)
	}
	want, err := core.FromTrace(whole, 1, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	wantB, err := want.Export()
	if err != nil {
		t.Fatal(err)
	}
	gotB, err := got.Export()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotB, wantB) {
		t.Errorf("annotated-route profile diverges from replay (%d vs %d bytes)", len(gotB), len(wantB))
	}
}
