package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// Verdicts of compare, per workload and end-to-end metric.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved" // run-to-run spread wider than the bound
)

// verdict judges candidate b against baseline a for metric m: unresolved
// when either side's interquartile range exceeds the bound, regressed when
// b is worse than a by more than the bound, ok otherwise.
func verdict(m metric, a, b stat) (delta float64, v string) {
	delta = ratio(b.Value-a.Value, a.Value)
	worse := delta
	if m.Better == "higher" {
		worse = -delta
	}
	switch {
	case iqrShare(a) > m.Bound || iqrShare(b) > m.Bound:
		return delta, verdictUnresolved
	case worse > m.Bound:
		return delta, verdictRegressed
	}
	return delta, verdictOK
}

func iqrShare(s stat) float64 {
	return summary{Median: s.Value, Q1: s.Q1, Q3: s.Q3}.iqrShare()
}

// compareMain implements `bench compare A.json B.json`: A is the baseline,
// B the candidate, both written by -out. It exits 1 on any regression or
// missing metric.
func compareMain(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: bench compare BASELINE.json CANDIDATE.json")
		return 2
	}
	var files [2]runFile
	for i, path := range args {
		raw, err := os.ReadFile(path)
		if err == nil {
			err = json.Unmarshal(raw, &files[i])
		}
		if err != nil {
			fmt.Fprintf(stderr, "bench compare: %s: %v\n", path, err)
			return 2
		}
	}
	status := 0
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(tw, "workload\tmetric\tbaseline\tcandidate\tdelta\tbound\tverdict\t")
	for _, spec := range workloadSpecs {
		ra, rb := files[0].Workloads[spec.name], files[1].Workloads[spec.name]
		for _, m := range endToEnd {
			var a, b stat
			okA, okB := false, false
			if ra != nil {
				a, okA = ra.Metrics[m.Name]
			}
			if rb != nil {
				b, okB = rb.Metrics[m.Name]
			}
			if !okA || !okB {
				fmt.Fprintf(tw, "%s\t%s\t\t\t\t%.0f%%\tmissing\t\n", spec.name, m.Name, 100*m.Bound)
				status = 1
				continue
			}
			delta, v := verdict(m, a, b)
			if v == verdictRegressed {
				status = 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g %s\t%.4g %s\t%+.1f%%\t%.0f%%\t%s\t\n",
				spec.name, m.Name, a.Value, m.Unit, b.Value, m.Unit, 100*delta, 100*m.Bound, v)
		}
	}
	if err := tw.Flush(); err != nil {
		return 2
	}
	return status
}
