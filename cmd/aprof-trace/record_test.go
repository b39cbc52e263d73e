package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/aprof"
)

// TestRecordLeavesWholeTrace: a finished recording and one stopped
// through stopTool mid-run each leave a strictly decodable trace at the
// target and no temporary file beside it.
func TestRecordLeavesWholeTrace(t *testing.T) {
	params := aprof.WorkloadParams{Threads: 3, Size: 16}
	record := func(stopAfter int) *aprof.Trace {
		t.Helper()
		dir := t.TempDir()
		path := filepath.Join(dir, "run.trace")
		stopper := &stopTool{}
		var progress func(events, segments int, bytes int64)
		if stopAfter > 0 {
			progress = func(_, segments int, _ int64) {
				if segments >= stopAfter {
					stopper.stop.Store(true)
				}
			}
		}
		_, interrupted, err := recordTrace(path, "mysqld", params, true, progress, stopper)
		if err != nil {
			t.Fatal(err)
		}
		if interrupted != (stopAfter > 0) {
			t.Fatalf("stop after %d segments: interrupted = %v", stopAfter, interrupted)
		}
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if len(entries) != 1 || entries[0].Name() != "run.trace" {
			var names []string
			for _, e := range entries {
				names = append(names, e.Name())
			}
			t.Fatalf("directory holds %v, want only run.trace", names)
		}
		tr, err := aprof.ReadTraceFile(path)
		if err != nil {
			t.Fatalf("stop after %d segments: trace does not decode strictly: %v", stopAfter, err)
		}
		return tr
	}
	full := record(0)
	if !full.Annotated {
		t.Error("finished recording is not annotated")
	}
	partial := record(2)
	if n, all := partial.NumEvents(), full.NumEvents(); n == 0 || n >= all {
		t.Errorf("stopped recording holds %d events, want some but fewer than %d", n, all)
	}
}

// stdout runs f with os.Stdout redirected to a file and returns what f
// printed.
func stdout(t *testing.T, f func() error) string {
	t.Helper()
	out, err := os.CreateTemp(t.TempDir(), "stdout")
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	saved := os.Stdout
	os.Stdout = out
	err = f()
	os.Stdout = saved
	if err != nil {
		t.Fatal(err)
	}
	if _, err := out.Seek(0, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	b, err := io.ReadAll(out)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestRecordReportsRecorderTallies: record prints the recorder's own event
// count and annotation state, without re-reading the file, and both match
// what the file decodes to, with annotations on and off.
func TestRecordReportsRecorderTallies(t *testing.T) {
	for _, annotate := range []bool{true, false} {
		path := filepath.Join(t.TempDir(), "run.trace")
		out := stdout(t, func() error {
			return record([]string{"-workload", "mysqld", "-threads", "3", "-size", "16", "-progress=false",
				fmt.Sprintf("-annotate=%v", annotate), "-o", path})
		})
		tr, err := aprof.ReadTraceFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if want := fmt.Sprintf("recorded %d events from mysqld to %s\n", tr.NumEvents(), path); !strings.Contains(out, want) {
			t.Errorf("annotate=%v: output %q lacks %q", annotate, out, want)
		}
		if ready := strings.Contains(out, "analysis-ready"); ready != tr.Annotated || tr.Annotated != annotate {
			t.Errorf("annotate=%v: analysis-ready line %v, decoded trace annotated %v", annotate, ready, tr.Annotated)
		}
	}
}

// TestReplayTelemetry: replay -telemetry writes a snapshot holding the
// profiler's counters and the process-wide shadow and trace tallies.
func TestReplayTelemetry(t *testing.T) {
	dir := t.TempDir()
	path, snap := filepath.Join(dir, "run.trace"), filepath.Join(dir, "telemetry.json")
	if _, _, err := recordTrace(path, "mysqld", aprof.WorkloadParams{Threads: 3, Size: 16}, true, nil, &stopTool{}); err != nil {
		t.Fatal(err)
	}
	stdout(t, func() error { return replay([]string{"-telemetry=" + snap, path}) })
	data, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct{ Counters, Gauges map[string]int64 }
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Counters["core/events_consumed"] == 0 || doc.Gauges["shadow/chunks_allocated"] == 0 ||
		doc.Gauges["trace/events_decoded"] == 0 {
		t.Errorf("replay telemetry lacks the profiler, shadow or trace tallies:\n%s", data)
	}
}
