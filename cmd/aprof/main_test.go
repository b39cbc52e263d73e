package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/aprof"
	"repro/internal/core"
	"repro/internal/trace/pipeline"
)

// TestRecordWritesAnnotatedTrace checks that -record writes a trace that
// decodes strictly, carries the recorder's stamp annotations, and so plans
// without the offline annotation pass, that it leaves no temporary file,
// and that the event count it prints is the decoded trace's.
func TestRecordWritesAnnotatedTrace(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.trace")
	params := aprof.WorkloadParams{Threads: 3, Size: 8}
	out, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	saved := os.Stdout
	os.Stdout = out
	err = run("mysqld", "aprof", params, runOpts{record: path})
	os.Stdout = saved
	if err != nil {
		t.Fatal(err)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 {
		t.Fatalf("directory holds %d entries (%v), want only run.trace", len(entries), err)
	}
	tr, err := aprof.ReadTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	printed, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("trace: %d events written to %s\n", tr.NumEvents(), path); !strings.Contains(string(printed), want) {
		t.Errorf("output lacks %q", want)
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
