package pipeline

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// FuzzLoadCheckpoint feeds arbitrary bytes to the checkpoint loader. The
// oracle is stronger than "no panic": a checkpoint must either be rejected
// at load, or resuming from it must export a profile byte-identical to a
// fresh run — of the unannotated trace, which is annotated offline, and of
// the annotated one alike. The seeds are checkpoints of both, canceled
// mid-run so they carry partial worker states, plus damaged variants.
func FuzzLoadCheckpoint(f *testing.F) {
	plain, plainWant := ckptTrace(f, "producer-consumer", workloads.Params{Size: 32})
	annotated, _ := streamedTrace(f, "mysqld", workloads.Params{Size: 8, Threads: 3}, 0)
	if plain.Annotated || !annotated.Annotated {
		f.Fatal("seed traces do not cover both annotation routes")
	}
	annotatedWant := analyzeExport(f, annotated, Options{TieSeed: 1, Workers: 2})

	dir := f.TempDir()
	for i, tr := range []*trace.Trace{plain, annotated} {
		path := filepath.Join(dir, strconv.Itoa(i)+".ckpt")
		// The run is canceled halfway; a fast host may finish first, which
		// still leaves a valid (complete) checkpoint.
		if _, err := runCheckpointed(f, tr, path, 0.5, nil, nil); err != nil && !errors.Is(err, context.Canceled) {
			f.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		ck, err := LoadCheckpoint(path)
		if err != nil {
			f.Fatal(err)
		}
		reg := telemetry.NewRegistry()
		if _, err := Analyze(tr, Options{TieSeed: 1, Workers: 2, Resume: ck, Telemetry: reg}); err != nil {
			f.Fatal(err)
		}
		if reg.Counter("resume/threads_restored").Load() == 0 {
			f.Fatalf("seed checkpoint %d restores no worker state", i)
		}
		f.Add(data)
		f.Add(data[:len(data)/2])
		f.Add(faultinject.FlipBits(data, int64(i), 2, 0))
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.ckpt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		ck, err := LoadCheckpoint(path)
		if err != nil {
			return
		}
		for _, c := range []struct {
			tr   *trace.Trace
			want []byte
		}{{plain, plainWant}, {annotated, annotatedWant}} {
			got := analyzeExport(t, c.tr, Options{TieSeed: 1, Workers: 2, Resume: ck})
			if !bytes.Equal(got, c.want) {
				t.Fatalf("resume from an accepted checkpoint (annotated=%v) diverges from a fresh run", c.tr.Annotated)
			}
		}
	})
}
