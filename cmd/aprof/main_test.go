package main

import (
	"os"
	"path/filepath"
	"testing"

	"repro/aprof"
	"repro/internal/core"
	"repro/internal/trace/pipeline"
)

// TestRecordWritesAnnotatedTrace checks that -record writes a trace that
// decodes strictly, carries the recorder's stamp annotations, and so plans
// without the offline annotation pass, and that it leaves no temporary file.
func TestRecordWritesAnnotatedTrace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.trace")
	params := aprof.WorkloadParams{Threads: 3, Size: 8}
	if err := run("mysqld", "aprof", params, runOpts{record: path}); err != nil {
		t.Fatal(err)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 {
		t.Fatalf("directory holds %d entries (%v), want only run.trace", len(entries), err)
	}
	tr, err := aprof.ReadTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Annotated {
		t.Fatal("recorded trace is not annotated")
	}
	plan, err := pipeline.BuildPlan(tr, 0, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !plan.Annotated() {
		t.Error("plan of the recorded trace took the pre-scan route")
	}
}
