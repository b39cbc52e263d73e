package trace_test

// Fault-injection and round-trip tests for stamp annotations, from outside
// the package: corrupting or stripping annotation blocks may cost an
// offline Annotate pass, but must never change a profile. The profile-level
// byte-identity here uses the sequential replayer and the parallel pipeline
// together, which an in-package test cannot (core imports trace).

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/trace/pipeline"
	"repro/internal/workloads"
)

// recordStreamed records a workload through the streaming recorder and
// returns the encoded bytes.
func recordStreamed(t *testing.T, wl string, params workloads.Params) []byte {
	t.Helper()
	var buf bytes.Buffer
	rec := trace.NewStreamRecorder(&buf)
	if _, err := workloads.RunByName(wl, params, rec); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func exportProfile(t *testing.T, p *core.Profile, err error) []byte {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	out, err := p.Export()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestStrippedTwinRoundTrip: an annotated trace and its annotation-stripped
// twin must decode to the same events and produce byte-identical profiles on
// every analysis route; re-encoding the stripped twin must emit no 'A'
// blocks.
func TestStrippedTwinRoundTrip(t *testing.T) {
	data := recordStreamed(t, "mysqld", workloads.Params{Size: 16, Threads: 4})
	ann, err := trace.Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !ann.Annotated {
		t.Fatal("streamed trace not annotated")
	}
	stripped, err := trace.Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	stripped.StripAnnotations()

	reenc := recordBytes(t, stripped)
	vr, err := trace.Verify(bytes.NewReader(reenc))
	if err != nil {
		t.Fatal(err)
	}
	if vr.Annotations != 0 {
		t.Fatalf("stripped twin re-encoded with %d annotation blocks", vr.Annotations)
	}
	twin, err := trace.Decode(bytes.NewReader(reenc))
	if err != nil {
		t.Fatal(err)
	}
	if twin.Annotated {
		t.Fatal("stripped twin decoded as annotated")
	}

	baseProf, baseErr := core.FromTrace(ann, 0, core.Options{})
	base := exportProfile(t, baseProf, baseErr)
	for name, tr := range map[string]*trace.Trace{"annotated": ann, "stripped": stripped, "reencoded": twin} {
		for _, workers := range []int{1, 3} {
			prof, err := pipeline.Analyze(tr, pipeline.Options{Workers: workers})
			got := exportProfile(t, prof, err)
			if !bytes.Equal(got, base) {
				t.Fatalf("%s route, workers=%d: profile diverges from inline profiler", name, workers)
			}
		}
	}

	// The plan route must report which path built it.
	plan, err := pipeline.BuildPlan(ann, 0, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Annotated() {
		t.Fatal("plan over annotated trace did not take the annotation fast path")
	}
	planStripped, err := pipeline.BuildPlan(stripped, 0, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if planStripped.Annotated() {
		t.Fatal("plan over stripped trace claims the annotation fast path")
	}
	if prof, err := plan.Run(2); !bytes.Equal(exportProfile(t, prof, err), base) {
		t.Fatal("annotated plan profile diverges from inline profiler")
	}
	if prof, err := planStripped.Run(2); !bytes.Equal(exportProfile(t, prof, err), base) {
		t.Fatal("offline-annotated plan profile diverges from inline profiler")
	}
}

// corruptBlock flips the final byte (part of the CRC) of the i-th verify
// block, returning a damaged copy of data.
func corruptBlock(t *testing.T, data []byte, vr *trace.VerifyReport, i int) []byte {
	t.Helper()
	if i+1 >= len(vr.Blocks) {
		t.Fatal("cannot corrupt the last block this way")
	}
	bad := append([]byte(nil), data...)
	bad[vr.Blocks[i+1].Offset-1] ^= 0xff
	return bad
}

// TestCorruptAnnotationDegradesToFallback: damaging an 'A' block must fail
// strict decoding, while recovery salvages every event, drops the
// annotations entirely, and still yields the exact baseline profile through
// offline annotation — corrupt metadata can cost speed, never answers.
func TestCorruptAnnotationDegradesToFallback(t *testing.T) {
	data := recordStreamed(t, "producer-consumer", workloads.Params{Size: 20, Threads: 3})
	pristine, err := trace.Decode(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if !pristine.Annotated {
		t.Fatal("streamed trace not annotated")
	}
	baseProf, baseErr := core.FromTrace(pristine, 0, core.Options{})
	base := exportProfile(t, baseProf, baseErr)

	vr, err := trace.Verify(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	annIdx := -1
	for i, blk := range vr.Blocks {
		if blk.Kind == 'A' {
			annIdx = i
			break
		}
	}
	if annIdx < 0 {
		t.Fatal("no annotation block found")
	}
	bad := corruptBlock(t, data, vr, annIdx)

	if _, err := trace.Decode(bytes.NewReader(bad)); err == nil {
		t.Fatal("strict decode accepted a corrupt annotation block")
	}
	rec, rep, err := trace.Recover(bytes.NewReader(bad))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Complete() {
		t.Fatal("recovery of a corrupt trace claims completeness")
	}
	if rec.Annotated {
		t.Fatal("recovered trace kept annotations despite a corrupt 'A' block")
	}
	if got, want := rec.NumEvents(), pristine.NumEvents(); got != want {
		t.Fatalf("recovery lost events: %d of %d", got, want)
	}
	if prof, err := core.FromTrace(rec, 0, core.Options{}); !bytes.Equal(exportProfile(t, prof, err), base) {
		t.Fatal("recovered trace replays to a different profile")
	}
	if prof, err := pipeline.Analyze(rec, pipeline.Options{Workers: 2}); !bytes.Equal(exportProfile(t, prof, err), base) {
		t.Fatal("recovered trace analyzes to a different profile")
	}
}

// TestTruncatedTraceDropsAnnotations: lossy recovery must strip annotations
// even when some 'A' blocks survived intact — their stamps may reference
// writes inside the lost suffix — and what remains must still analyze
// without error on both routes.
func TestTruncatedTraceDropsAnnotations(t *testing.T) {
	data := recordStreamed(t, "mysqld", workloads.Params{Size: 16, Threads: 4})
	cut := data[:len(data)*2/3]
	rec, rep, err := trace.Recover(bytes.NewReader(cut))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Complete() {
		t.Fatal("recovery of a truncated trace claims completeness")
	}
	if rec.Annotated {
		t.Fatal("lossy recovery kept annotations")
	}
	seqProf, seqErr := core.FromTrace(rec, 0, core.Options{})
	seq := exportProfile(t, seqProf, seqErr)
	parProf, parErr := pipeline.Analyze(rec, pipeline.Options{Workers: 2})
	par := exportProfile(t, parProf, parErr)
	if !bytes.Equal(seq, par) {
		t.Fatal("routes disagree on the recovered prefix")
	}
}
