package report

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fit"
	"repro/internal/guest"
)

// buildProfile runs a tiny two-thread workload with both induced kinds.
func buildProfile(t *testing.T) *core.Profile {
	t.Helper()
	return buildProfiler(t).Profile()
}

// buildProfiler runs buildProfile's workload under a context-sensitive
// profiler. After the threads join, the main thread scans 4, 8, 12 and 16
// cells that nothing writes, giving one routine four input sizes.
func buildProfiler(t *testing.T) *core.Profiler {
	t.Helper()
	p := core.New(core.Options{ContextSensitive: true})
	m := guest.NewMachine(guest.Config{Timeslice: 1, Tools: []guest.Tool{p}})
	cell := m.Static(1)
	buf := m.Static(2)
	arr := m.Static(16)
	dev := m.NewDevice("disk", nil)
	empty := m.NewSem("empty", 1)
	full := m.NewSem("full", 0)
	err := m.Run(func(th *guest.Thread) {
		prod := th.Spawn("p", func(c *guest.Thread) {
			c.Fn("producer", func() {
				for i := uint64(0); i < 8; i++ {
					c.P(empty)
					c.Store(cell, i)
					c.V(full)
				}
			})
		})
		cons := th.Spawn("c", func(c *guest.Thread) {
			c.Fn("consumer", func() {
				for i := 0; i < 8; i++ {
					c.P(full)
					c.Load(cell)
					c.V(empty)
				}
			})
		})
		th.Fn("reader", func() {
			for i := 0; i < 4; i++ {
				th.ReadDevice(dev, buf, 2)
				th.Load(buf)
			}
		})
		th.Join(prod)
		th.Join(cons)
		for n := 4; n <= 16; n += 4 {
			th.Fn("scan", func() {
				for i := 0; i < n; i++ {
					th.Load(arr + guest.Addr(i))
				}
			})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestWorstCaseAndWorkloadExtraction(t *testing.T) {
	m := map[uint64]*core.Point{
		1: {N: 1, Calls: 3, MinCost: 5, MaxCost: 9, SumCost: 21},
		4: {N: 4, Calls: 1, MinCost: 40, MaxCost: 40, SumCost: 40},
	}
	wc := WorstCase(m)
	if len(wc) != 2 || wc[0].N != 1 || wc[0].Cost != 9 || wc[1].Cost != 40 {
		t.Errorf("WorstCase = %v", wc)
	}
	wl := Workload(m)
	if wl[0].Cost != 3 || wl[1].Cost != 1 {
		t.Errorf("Workload = %v", wl)
	}
}

func TestRichnessAndVolumeOnRealProfile(t *testing.T) {
	p := buildProfile(t)
	cons := p.Routine("consumer")
	if cons == nil {
		t.Fatal("no consumer profile")
	}
	// consumer: one activation with trms=8, rms=1 → 1 distinct value each.
	if r := Richness(cons); r != 0 {
		t.Errorf("consumer richness = %f (|trms|=%d |rms|=%d)", r, cons.DistinctTRMS(), cons.DistinctRMS())
	}
	vol := InputVolume(cons.Merged())
	if want := 1 - 1.0/8.0; math.Abs(vol-want) > 1e-9 {
		t.Errorf("consumer input volume = %f, want %f", vol, want)
	}
	reader := p.Routine("reader")
	vol = InputVolume(reader.Merged())
	if want := 1 - 1.0/4.0; math.Abs(vol-want) > 1e-9 {
		t.Errorf("reader input volume = %f, want %f", vol, want)
	}
}

func TestInducedSplitGlobal(t *testing.T) {
	p := buildProfile(t)
	threadPct, extPct := InducedSplit(p)
	// 8 thread-induced (consumer) + 4 external (reader) = 12 induced.
	if math.Abs(threadPct-100*8.0/12) > 1e-9 || math.Abs(extPct-100*4.0/12) > 1e-9 {
		t.Errorf("induced split = (%.2f, %.2f), want (66.67, 33.33)", threadPct, extPct)
	}
}

func TestPerRoutineInduced(t *testing.T) {
	p := buildProfile(t)
	splits := PerRoutineInduced(p)
	byName := make(map[string]RoutineInducedSplit)
	for _, s := range splits {
		byName[s.Name] = s
	}
	if s := byName["consumer"]; s.ThreadPct != 100 || s.ExternalPct != 0 || s.InducedPct != 100 {
		t.Errorf("consumer split = %+v", s)
	}
	if s := byName["reader"]; s.ExternalPct != 100 || s.InducedPct != 100 {
		t.Errorf("reader split = %+v", s)
	}
	// Sorted by decreasing induced percentage.
	for i := 1; i < len(splits); i++ {
		if splits[i].InducedPct > splits[i-1].InducedPct {
			t.Errorf("splits not sorted: %v", splits)
		}
	}
}

func TestCumulativeCurve(t *testing.T) {
	curve := CumulativeCurve([]float64{10, 50, 30})
	if len(curve) != 3 {
		t.Fatalf("curve = %v", curve)
	}
	if curve[0].Value != 50 || curve[2].Value != 10 {
		t.Errorf("curve not descending: %v", curve)
	}
	if math.Abs(curve[0].PercentRoutines-100.0/3) > 1e-9 || curve[2].PercentRoutines != 100 {
		t.Errorf("percents wrong: %v", curve)
	}
	if v := ValueAtPercent(curve, 50); v != 30 {
		t.Errorf("ValueAtPercent(50) = %f, want 30", v)
	}
	if v := ValueAtPercent(curve, 100); v != 10 {
		t.Errorf("ValueAtPercent(100) = %f, want 10", v)
	}
	if CumulativeCurve(nil) != nil {
		t.Error("empty curve not nil")
	}
}

func TestCurvesOnRealProfile(t *testing.T) {
	p := buildProfile(t)
	if c := RichnessCurve(p); len(c) == 0 {
		t.Error("empty richness curve")
	}
	vc := VolumeCurve(p)
	if len(vc) == 0 || vc[0].Value < 0.8 {
		t.Errorf("volume curve top = %v, want >= 0.8 (consumer)", vc)
	}
	if c := ThreadInducedCurve(p); len(c) == 0 || c[0].Value != 100 {
		t.Errorf("thread-induced curve = %v", c)
	}
	if c := ExternalCurve(p); len(c) == 0 || c[0].Value != 100 {
		t.Errorf("external curve = %v", c)
	}
}

func TestScatterRendersPoints(t *testing.T) {
	var buf bytes.Buffer
	Scatter(&buf, "test plot", []fit.Point{{N: 1, Cost: 1}, {N: 50, Cost: 2500}, {N: 100, Cost: 10000}}, 40, 10)
	out := buf.String()
	if !strings.Contains(out, "test plot") || strings.Count(out, "*") < 2 {
		t.Errorf("scatter output:\n%s", out)
	}
	buf.Reset()
	Scatter(&buf, "empty", nil, 40, 10)
	if !strings.Contains(buf.String(), "no points") {
		t.Error("empty plot not handled")
	}
}

func TestScatterLogScale(t *testing.T) {
	var buf bytes.Buffer
	pts := []fit.Point{{N: 1, Cost: 1}, {N: 10, Cost: 100}, {N: 100, Cost: 10000}, {N: 1000, Cost: 1000000}}
	Scatter(&buf, "loglog", pts, 40, 10)
	if !strings.Contains(buf.String(), "[log x]") || !strings.Contains(buf.String(), "[log y]") {
		t.Errorf("wide-range data did not switch to log axes:\n%s", buf.String())
	}
}

func TestTableAlignment(t *testing.T) {
	var buf bytes.Buffer
	Table(&buf, []string{"name", "value"}, [][]string{{"a", "1"}, {"longer-name", "22"}})
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("table:\n%s", buf.String())
	}
	if !strings.HasPrefix(lines[3], "longer-name  22") {
		t.Errorf("alignment off: %q", lines[3])
	}
}

func TestCSVWriters(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, "n", "cost", []fit.Point{{N: 1, Cost: 2}, {N: 3, Cost: 4}}); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != "n,cost\n1,2\n3,4\n" {
		t.Errorf("csv = %q", got)
	}
}

func TestWriteFullReport(t *testing.T) {
	p := buildProfile(t)
	var buf bytes.Buffer
	if err := WriteFullReport(&buf, p, 0); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, frag := range []string{"INPUT-SENSITIVE PROFILE", "induced first-accesses",
		"routine", "consumer", "input volume", "--- scan ---", "scan — worst-case cost vs trms"} {
		if !strings.Contains(out, frag) {
			t.Errorf("report lacks %q", frag)
		}
	}
	// Routines with fewer than minPoints input sizes get no section.
	if strings.Contains(out, "--- consumer") || strings.Contains(out, "consumer — worst-case") {
		t.Errorf("one-point routine rendered a section:\n%s", out)
	}
	// top bounds the summary and the sections alike.
	buf.Reset()
	if err := WriteFullReport(&buf, p, 1); err != nil {
		t.Fatal(err)
	}
	if out := buf.String(); !strings.Contains(out, "--- scan") || strings.Contains(out, "consumer") || strings.Contains(out, "reader") {
		t.Errorf("top 1 rendered more than the heaviest routine:\n%s", out)
	}
}

// TestViewsGolden pins the routine view, the summary table and the
// context table on the fixed profile byte for byte. Regenerate with
// APROF_UPDATE_GOLDEN=1 go test -run TestViewsGolden ./internal/report
func TestViewsGolden(t *testing.T) {
	prof := buildProfiler(t)
	p := prof.Profile()
	var buf bytes.Buffer
	buf.WriteString("== WriteSummary(top 0)\n")
	WriteSummary(&buf, p, 0)
	buf.WriteString("== WriteSummary(top 2)\n")
	WriteSummary(&buf, p, 2)
	buf.WriteString("== WriteRoutine(scan)\n")
	if err := WriteRoutine(&buf, p, "scan"); err != nil {
		t.Fatal(err)
	}
	buf.WriteString("== WriteRoutine(consumer)\n")
	if err := WriteRoutine(&buf, p, "consumer"); err != nil {
		t.Fatal(err)
	}
	buf.WriteString("== WriteContexts(top 0)\n")
	WriteContexts(&buf, prof.ContextTree(), 0)
	buf.WriteString("== WriteContexts(top 2)\n")
	WriteContexts(&buf, prof.ContextTree(), 2)

	golden := filepath.Join("testdata", "views.golden")
	if os.Getenv("APROF_UPDATE_GOLDEN") != "" {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("views drifted from the golden file.\ngot:\n%s\nwant:\n%s", buf.Bytes(), want)
	}

	err = WriteRoutine(&buf, p, "nope")
	if want := `routine "nope" not profiled; profiled routines: [consumer producer reader scan]`; err == nil || err.Error() != want {
		t.Errorf("unknown routine: err = %v, want %q", err, want)
	}
}

func TestWriteHTMLReport(t *testing.T) {
	p := buildProfile(t)
	var buf bytes.Buffer
	if err := WriteHTMLReport(&buf, p, HTMLOptions{Title: "test run"}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, frag := range []string{"<!DOCTYPE html>", "test run", "<svg", "consumer",
		"input volume", "worst-case cost"} {
		if !strings.Contains(out, frag) {
			t.Errorf("HTML report lacks %q", frag)
		}
	}
	if !strings.Contains(out, "circle") {
		t.Error("no plotted points in SVG")
	}
	// Routine names must be HTML-escaped by the template; inject a nasty
	// name through a tiny synthetic profile.
	evil := core.New(core.Options{})
	m := guest.NewMachine(guest.Config{Tools: []guest.Tool{evil}})
	if err := m.Run(func(th *guest.Thread) {
		th.Fn("<script>alert(1)</script>", func() { th.Exec(1) })
	}); err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := WriteHTMLReport(&buf, evil.Profile(), HTMLOptions{}); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "<script>alert(1)</script>") {
		t.Error("routine name not escaped in HTML output")
	}
}
