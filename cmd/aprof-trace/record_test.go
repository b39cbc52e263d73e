package main

import (
	"os"
	"path/filepath"
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
		interrupted, err := recordTrace(path, "mysqld", params, true, progress, stopper)
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
