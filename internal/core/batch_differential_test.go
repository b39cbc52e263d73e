package core

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/guest"
	"repro/internal/workloads"
)

// These tests enforce the batched dispatch obligation: how the machine cuts
// the memory-event stream into batches must not show in the profile. A run
// on the default 256-event ring must be byte-identical to one whose ring
// flushes every two events (Config.BatchMax 2, the "unbatched" side the
// test names refer to), across real workloads (including kernel-I/O-heavy
// ones like mysqld), context-sensitive mode, and randomized multithreaded
// programs.
// Workload runs are deterministic, so the two runs see identical event
// streams and any divergence is a batching bug.

// runWorkloadExport runs one workload against a fresh profiler and returns
// the profile's canonical JSON export.
func runWorkloadExport(t *testing.T, name string, batchMax int, opts Options) ([]byte, *Profiler) {
	t.Helper()
	p := New(opts)
	if _, err := workloads.RunByName(name, workloads.Params{BatchMax: batchMax}, p); err != nil {
		t.Fatalf("%s (batchmax=%d): %v", name, batchMax, err)
	}
	out, err := p.Profile().Export()
	if err != nil {
		t.Fatalf("%s (batchmax=%d): export: %v", name, batchMax, err)
	}
	return out, p
}

// TestBatchedMatchesUnbatchedWorkloads: for every micro benchmark, the
// mysqld model (kernel-I/O heavy) and the parsec models, batched dispatch
// yields a byte-identical profile export to two-event batches.
func TestBatchedMatchesUnbatchedWorkloads(t *testing.T) {
	var names []string
	for _, s := range workloads.Suite("micro") {
		names = append(names, s.Name)
	}
	names = append(names, "mysqld", "vips", "dedup", "fluidanimate")
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			want, _ := runWorkloadExport(t, name, 2, Options{})
			got, _ := runWorkloadExport(t, name, 0, Options{})
			if !bytes.Equal(want, got) {
				t.Errorf("batched profile differs from two-event batches for %s", name)
			}
		})
	}
}

// dumpContexts renders a context tree canonically: one line per context in
// sorted path order, with each thread's activation aggregates.
func dumpContexts(tree *ContextTree) string {
	var lines []string
	tree.Walk(func(n *ContextNode) {
		var tids []guest.ThreadID
		for tid := range n.PerThread {
			tids = append(tids, tid)
		}
		sort.Slice(tids, func(i, j int) bool { return tids[i] < tids[j] })
		var b strings.Builder
		b.WriteString(n.Path())
		for _, tid := range tids {
			a := n.PerThread[tid]
			fmt.Fprintf(&b, " [t%d calls=%d cost=%d trms=%d rms=%d it=%d ie=%d]",
				tid, a.Calls, a.SumCost, a.SumTRMS, a.SumRMS, a.InducedThread, a.InducedExternal)
		}
		lines = append(lines, b.String())
	})
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// TestBatchedMatchesUnbatchedContextTree: context-sensitive profiles —
// calling context trees with per-thread aggregates — are identical under
// the default ring and two-event batches.
func TestBatchedMatchesUnbatchedContextTree(t *testing.T) {
	for _, name := range []string{"mysqld", "dedup"} {
		t.Run(name, func(t *testing.T) {
			wantExport, unb := runWorkloadExport(t, name, 2, Options{ContextSensitive: true})
			gotExport, bat := runWorkloadExport(t, name, 0, Options{ContextSensitive: true})
			if !bytes.Equal(wantExport, gotExport) {
				t.Errorf("batched profile differs from two-event batches for %s", name)
			}
			want, got := dumpContexts(unb.ContextTree()), dumpContexts(bat.ContextTree())
			if want != got {
				t.Errorf("batched context tree differs from two-event batches for %s", name)
			}
		})
	}
}

// TestBatchedMatchesUnbatchedRandomPrograms: randomized multithreaded guest
// programs with heavy kernel I/O and tiny timeslices produce identical
// profiles under both batch sizes, across option configurations
// (including aggressive renumbering, which must be able to run mid-batch).
func TestBatchedMatchesUnbatchedRandomPrograms(t *testing.T) {
	configs := []Options{
		{},
		{RMSOnly: true},
		{DisableThreadInduced: true},
		{RenumberThreshold: 101},
		{ContextSensitive: true},
	}
	for seed := int64(1); seed <= 12; seed++ {
		rp := randProgram{
			seed:      seed,
			threads:   2 + int(seed%3),
			opsPer:    300,
			cells:     24,
			timeslice: 1 + int(seed%9),
		}
		for ci, opts := range configs {
			unb := New(opts)
			rp.batchMax = 2
			rp.run(t, unb)
			bat := New(opts)
			rp.batchMax = 0
			rp.run(t, bat)
			if diffs := bat.Profile().Diff(unb.Profile()); len(diffs) > 0 {
				t.Fatalf("seed %d config %d: batched dispatch changed the profile:\n%s",
					seed, ci, joinLines(diffs, 12))
			}
			want, err := unb.Profile().Export()
			if err != nil {
				t.Fatal(err)
			}
			got, err := bat.Profile().Export()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(want, got) {
				t.Fatalf("seed %d config %d: batched export not byte-identical", seed, ci)
			}
		}
	}
}
