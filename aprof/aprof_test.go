package aprof_test

import (
	"bytes"
	"math"
	"testing"

	"repro/aprof"
)

// TestProfileProgramEndToEnd drives the whole public API the way a
// downstream user would: write a guest program, profile it, extract plots,
// fit a model.
func TestProfileProgramEndToEnd(t *testing.T) {
	var data aprof.Addr
	var setup func(m *aprof.Machine)
	setup = func(m *aprof.Machine) { data = m.Static(256) }

	cfg := aprof.Config{}
	prof := aprof.NewProfiler(aprof.Options{})
	cfg.Tools = []aprof.Tool{prof}
	m := aprof.NewMachine(cfg)
	setup(m)

	err := m.Run(func(th *aprof.Thread) {
		for n := 4; n <= 256; n *= 2 {
			th.Fn("scan", func() {
				sum := uint64(0)
				for i := 0; i < n; i++ {
					sum += th.Load(data + aprof.Addr(i))
				}
				th.Store(data, sum)
			})
		}
	})
	if err != nil {
		t.Fatal(err)
	}

	p := prof.Profile()
	rp := p.Routine("scan")
	if rp == nil {
		t.Fatalf("scan not profiled: %v", p.RoutineNames())
	}
	pts := aprof.WorstCasePlot(rp.Merged().ByTRMS)
	if len(pts) != 7 {
		t.Fatalf("plot has %d points, want 7 (n = 4..256)", len(pts))
	}
	best, err := aprof.BestFit(pts)
	if err != nil {
		t.Fatal(err)
	}
	if best.Model.Name != "O(n)" {
		t.Errorf("scan fitted as %s, want O(n)", best)
	}
	pl, err := aprof.FitPowerLaw(pts)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(pl.Exponent-1) > 0.1 {
		t.Errorf("power-law exponent %.3f, want ~1", pl.Exponent)
	}
}

func TestProfileProgramHelper(t *testing.T) {
	p, err := aprof.ProfileProgram(aprof.Options{}, aprof.Config{}, func(th *aprof.Thread) {
		buf := th.Alloc(4)
		th.Fn("f", func() {
			th.Store(buf, 1)
			th.Load(buf)
		})
		th.Free(buf)
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.Routine("f") == nil {
		t.Error("f not profiled")
	}
}

func TestWorkloadRegistryViaFacade(t *testing.T) {
	names := aprof.Workloads()
	if len(names) < 20 {
		t.Fatalf("only %d workloads registered", len(names))
	}
	if len(aprof.WorkloadSuite("omp2012")) != 12 {
		t.Errorf("omp2012 suite incomplete")
	}
	if _, err := aprof.GetWorkload("mysqld"); err != nil {
		t.Error(err)
	}
	if _, err := aprof.GetWorkload("bogus"); err == nil {
		t.Error("GetWorkload accepted unknown name")
	}
}

func TestProfileWorkloadAndMetrics(t *testing.T) {
	p, err := aprof.ProfileWorkload("producer-consumer", aprof.WorkloadParams{Size: 16}, aprof.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cons := p.Routine("consumer")
	if got := aprof.InputVolume(cons.Merged()); got < 0.9 {
		t.Errorf("consumer input volume %.2f, want > 0.9", got)
	}
	tp, ep := aprof.InducedSplit(p)
	if tp != 100 || ep != 0 {
		t.Errorf("induced split (%.1f, %.1f), want (100, 0)", tp, ep)
	}
}

func TestTraceRoundTripViaFacade(t *testing.T) {
	var buf bytes.Buffer
	rec := aprof.NewStreamRecorder(&buf)
	online := aprof.NewProfiler(aprof.Options{})
	if _, err := aprof.RunWorkload("dedup", aprof.WorkloadParams{Size: 12, Threads: 4}, rec, online); err != nil {
		t.Fatal(err)
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	tr, err := aprof.DecodeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	offline := aprof.NewProfiler(aprof.Options{})
	if err := aprof.Replay(tr, 0, offline); err != nil {
		t.Fatal(err)
	}
	if !online.Profile().Equal(offline.Profile()) {
		t.Error("replayed profile differs from online profile")
	}
}

func TestComparisonToolsViaFacade(t *testing.T) {
	mc := aprof.NewMemcheck()
	cg := aprof.NewCallgrind()
	hg := aprof.NewHelgrind()
	ng := aprof.NewNulgrind()
	if _, err := aprof.RunWorkload("350.md", aprof.WorkloadParams{Size: 12, Threads: 2}, mc, cg, hg, ng); err != nil {
		t.Fatal(err)
	}
	if hg.Races() != 0 {
		t.Errorf("md flagged racy: %v", hg.RaceReports())
	}
	if cg.Node("compute_forces") == nil {
		t.Error("callgrind missed compute_forces")
	}
	if ng.Events() == 0 {
		t.Error("nulgrind saw no events")
	}
}

func TestNaiveProfilerViaFacade(t *testing.T) {
	fast := aprof.NewProfiler(aprof.Options{})
	naive := aprof.NewNaiveProfiler(aprof.Options{})
	if _, err := aprof.RunWorkload("fluidanimate", aprof.WorkloadParams{Size: 16, Threads: 3}, fast, naive); err != nil {
		t.Fatal(err)
	}
	if diffs := fast.Profile().Diff(naive.Profile()); len(diffs) > 0 {
		t.Errorf("facade-level differential failure: %v", diffs)
	}
}

func TestISPLViaFacade(t *testing.T) {
	prog, err := aprof.CompileISPL(`
		var a[32];
		func scan(n) {
			var s = 0;
			var i = 0;
			while (i < n) { s = s + a[i]; i = i + 1; }
			return s;
		}
		func main() {
			var n = 4;
			while (n <= 32) { read(a, 0, n); print(scan(n)); n = n * 2; }
		}`)
	if err != nil {
		t.Fatal(err)
	}
	prof := aprof.NewProfiler(aprof.Options{})
	out, m, err := prog.Run(aprof.Config{}, prof)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Values) != 4 {
		t.Errorf("printed %d values, want 4", len(out.Values))
	}
	if m.BBTotal() == 0 {
		t.Error("no basic blocks executed")
	}
	rp := prof.Profile().Routine("scan")
	if rp == nil || len(rp.Merged().ByTRMS) != 4 {
		t.Errorf("scan profile: %+v", rp)
	}
	if _, err := aprof.CompileISPL("not a program"); err == nil {
		t.Error("CompileISPL accepted garbage")
	}
	if _, _, err := aprof.RunISPL("func main() { print(7); }", aprof.Config{}); err != nil {
		t.Error(err)
	}
}

func TestContextSensitiveViaFacade(t *testing.T) {
	prof := aprof.NewProfiler(aprof.Options{ContextSensitive: true})
	if _, err := aprof.RunWorkload("merge-sort", aprof.WorkloadParams{Size: 32}, prof); err != nil {
		t.Fatal(err)
	}
	tree := prof.ContextTree()
	if tree == nil || tree.NumContexts() == 0 {
		t.Fatal("no context tree")
	}
	found := false
	tree.Walk(func(n *aprof.ContextNode) {
		if n.Routine == "merge_sort" {
			found = true
		}
	})
	if !found {
		t.Error("merge_sort context missing")
	}
}
