package main

import (
	"path/filepath"
	"testing"

	"repro/aprof"
	"repro/internal/core"
	"repro/internal/trace/pipeline"
)

// TestRecordWritesAnnotatedTrace checks that -record writes a trace that
// decodes strictly, carries the recorder's stamp annotations, and so plans
// without the offline annotation pass.
func TestRecordWritesAnnotatedTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.trace")
	params := aprof.WorkloadParams{Threads: 3, Size: 8}
	if err := run("mysqld", "aprof", params, runOpts{record: path}); err != nil {
		t.Fatal(err)
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
