package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"strings"
	"testing"
)

// TestSmoke runs every workload at quick sizes for one rep, untraced and
// traced, through the oracle, so the harness cannot rot unnoticed.
func TestSmoke(t *testing.T) {
	for _, spec := range workloadSpecs {
		for _, traced := range []bool{false, true} {
			res := runWorkload(config{workload: spec.name, seed: 1, traced: traced, quick: true})
			if !res.Correct || res.Failed != 0 || res.Attempted < 2 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d errors=%v",
					spec.name, traced, res.Correct, res.Attempted, res.Failed, res.Errors)
				continue
			}
			for _, m := range metricsFor(traced) {
				if _, ok := res.Metrics[m.Name]; !ok {
					t.Errorf("%s traced=%v: metric %s missing", spec.name, traced, m.Name)
				}
			}
			if !traced {
				for _, m := range endToEnd {
					if res.Metrics[m.Name].Value <= 0 {
						t.Errorf("%s: end-to-end metric %s = %g, want > 0", spec.name, m.Name, res.Metrics[m.Name].Value)
					}
				}
				continue
			}
			if cov := res.Metrics["bench.span_coverage"].Value; cov < minCoverage {
				t.Errorf("%s: span coverage %g", spec.name, cov)
			}
			if res.Metrics["guest.events"].Value <= 0 || len(res.Spans) == 0 {
				t.Errorf("%s: traced run recorded no events or spans", spec.name)
			}
		}
	}
}

// TestTamperedExportFails checks that a rep whose export differs from the
// first, or a first export that differs from the naive reference, counts
// as a failed rep.
func TestTamperedExportFails(t *testing.T) {
	w := newLive(1, true)
	export, err := w.rep(nil, newSample())
	if err != nil {
		t.Fatal(err)
	}
	good := export[0]
	tampered := bytes.Replace(good, []byte(`"calls": `), []byte(`"calls": 9`), 1)
	if bytes.Equal(tampered, good) {
		t.Fatal("tampering changed nothing")
	}

	var res result
	res.Correct = true
	var chk checker
	res.attempt(chk.match([][]byte{good}, nil))
	res.attempt(chk.match([][]byte{tampered}, nil))
	if res.Attempted != 2 || res.Failed != 1 || res.Correct {
		t.Errorf("after a tampered rep: attempted=%d failed=%d correct=%v", res.Attempted, res.Failed, res.Correct)
	}
	if err := chk.oracle(w.reference()); err != nil {
		t.Errorf("oracle rejected the untampered export: %v", err)
	}

	bad := checker{first: tampered}
	if err := bad.oracle(w.reference()); err == nil || !strings.Contains(err.Error(), "differences") {
		t.Errorf("oracle accepted a tampered export: %v", err)
	}
}

// TestBenchmarkFileMatches keeps BENCHMARK.json, which drives external
// runs of this benchmark, in step with the metrics and workloads here.
func TestBenchmarkFileMatches(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range file.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for _, s := range workloadSpecs {
		want = append(want, s.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, want %v", names, want)
	}
	if !reflect.DeepEqual(file.EndToEnd, endToEnd) {
		t.Errorf("BENCHMARK.json end_to_end %+v, want %+v", file.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(file.PerLayer, perLayer) {
		t.Errorf("BENCHMARK.json per_layer %+v, want %+v", file.PerLayer, perLayer)
	}
}

func TestNormalizeArgs(t *testing.T) {
	got := normalizeArgs([]string{"--workload", "x", "--trace", "1", "-seed", "2", "-trace", "-quick"})
	want := []string{"--workload", "x", "--trace=1", "-seed", "2", "-trace", "-quick"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("normalizeArgs = %q, want %q", got, want)
	}
}
