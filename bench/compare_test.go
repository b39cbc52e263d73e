package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	lower := metric{Name: "profile_s", Better: "lower", Bound: 0.10}
	higher := metric{Name: "capacity", Better: "higher", Bound: 0.10}
	tight := func(v float64) stat { return stat{Value: v, Q1: v * 0.99, Q3: v * 1.01} }
	for _, tc := range []struct {
		name string
		m    metric
		a, b stat
		want string
	}{
		{"within bound", lower, tight(1.00), tight(1.05), verdictOK},
		{"better", lower, tight(1.00), tight(0.50), verdictOK},
		{"worse by more than the bound", lower, tight(1.00), tight(1.20), verdictRegressed},
		{"higher is better, dropped", higher, tight(2.00), tight(1.50), verdictRegressed},
		{"higher is better, rose", higher, tight(2.00), tight(3.00), verdictOK},
		{"baseline spread wider than the bound", lower, stat{Value: 1, Q1: 0.8, Q3: 1.2}, tight(1.30), verdictUnresolved},
		{"candidate spread wider than the bound", lower, tight(1.00), stat{Value: 1, Q1: 0.9, Q3: 1.15}, verdictUnresolved},
	} {
		if _, got := verdict(tc.m, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

// writeRun writes a results file whose workloads all report every
// end-to-end metric at value v with a tight spread.
func writeRun(t *testing.T, path string, v float64) {
	t.Helper()
	f := runFile{Workloads: make(map[string]*result)}
	for _, spec := range workloadSpecs {
		r := &result{Workload: spec.name, Metrics: make(map[string]stat)}
		for _, m := range endToEnd {
			r.Metrics[m.Name] = stat{Value: v, Unit: m.Unit, N: 20, Q1: v, Q3: v}
		}
		f.Workloads[spec.name] = r
	}
	raw, err := json.Marshal(f)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw, 0o666); err != nil {
		t.Fatal(err)
	}
}

func TestCompareMain(t *testing.T) {
	dir := t.TempDir()
	base, same, slow := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json"), filepath.Join(dir, "c.json")
	writeRun(t, base, 1)
	writeRun(t, same, 1.02)
	writeRun(t, slow, 1.5)

	var out, errOut bytes.Buffer
	if code := compareMain([]string{base, same}, &out, &errOut); code != 0 {
		t.Fatalf("compare within bounds exited %d:\n%s%s", code, out.String(), errOut.String())
	}
	if strings.Contains(out.String(), verdictRegressed) {
		t.Errorf("within-bound run reported a regression:\n%s", out.String())
	}
	out.Reset()
	if code := compareMain([]string{base, slow}, &out, &errOut); code != 1 {
		t.Fatalf("compare of a regression exited %d, want 1", code)
	}
	if got := strings.Count(out.String(), verdictRegressed); got != len(workloadSpecs)*len(endToEnd) {
		t.Errorf("%d regressed rows, want %d:\n%s", got, len(workloadSpecs)*len(endToEnd), out.String())
	}
	if code := compareMain([]string{base}, &out, &errOut); code != 2 {
		t.Errorf("compare with one file exited %d, want 2", code)
	}
}
