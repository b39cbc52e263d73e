package experiments

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"
)

// TestAllExperimentsRunQuick executes every experiment in quick mode and
// sanity-checks its output.
func TestAllExperimentsRunQuick(t *testing.T) {
	wantMarkers := map[string][]string{
		"fig1":   {"fig1a", "fig1b", "routine"},
		"fig2":   {"consumer", "trms"},
		"fig3":   {"externalRead"},
		"fig4":   {"mysql_select", "power-law fit", "best model"},
		"fig5":   {"im_generate", "power-law fit"},
		"fig6":   {"buf_flush_buffered_writes", "power-law fit"},
		"fig7":   {"wbuffer_write_thread", "distinct sizes"},
		"fig8":   {"Protocol::send_eof", "workload plot"},
		"fig9":   {"mysqld", "vips", "induced share"},
		"table1": {"Table 1a", "Table 1b", "aprof-trms", "geometric mean"},
		"fig14":  {"Fig. 14a", "Fig. 14b", "threads"},
		"fig15":  {"richness", "dedup"},
		"fig16":  {"input volume", "mysqld"},
		"fig17":  {"thread-induced", "external"},
		"fig18":  {"thread-induced input"},
		"fig19":  {"external input"},
	}
	if len(IDs()) != len(wantMarkers) {
		t.Fatalf("registered experiments %v, want %d", IDs(), len(wantMarkers))
	}
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			var buf bytes.Buffer
			if err := e.Run(Config{Out: &buf, Quick: true}); err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			out := buf.String()
			if len(out) < 40 {
				t.Fatalf("%s: implausibly short output:\n%s", e.ID, out)
			}
			for _, marker := range wantMarkers[e.ID] {
				if !strings.Contains(out, marker) {
					t.Errorf("%s: output lacks %q:\n%s", e.ID, marker, out)
				}
			}
		})
	}
}

func TestGetAndIDs(t *testing.T) {
	if _, err := Get("table1"); err != nil {
		t.Error(err)
	}
	if _, err := Get("nonsense"); err == nil {
		t.Error("Get accepted unknown id")
	}
	ids := IDs()
	if ids[0] != "fig1" || ids[len(ids)-1] != "fig19" {
		t.Errorf("presentation order wrong: %v", ids)
	}
}

// TestFig4ShapeHolds verifies the headline reproduction claim numerically:
// in the fig4 output, the trms power-law exponent is near 1 while the rms
// exponent is well above it.
func TestFig4ShapeHolds(t *testing.T) {
	var buf bytes.Buffer
	if err := mustGet(t, "fig4").Run(Config{Out: &buf, Quick: true}); err != nil {
		t.Fatal(err)
	}
	exps := extractExponents(t, buf.String())
	if len(exps) != 2 {
		t.Fatalf("expected 2 power-law fits (rms, trms), got %v\n%s", exps, buf.String())
	}
	rmsExp, trmsExp := exps[0], exps[1]
	if trmsExp < 0.7 || trmsExp > 1.4 {
		t.Errorf("trms exponent = %.2f, want ~1 (linear)", trmsExp)
	}
	if rmsExp < trmsExp+0.5 {
		t.Errorf("rms exponent %.2f not clearly above trms exponent %.2f (trend inversion missing)", rmsExp, trmsExp)
	}
}

func mustGet(t *testing.T, id string) Experiment {
	t.Helper()
	e, err := Get(id)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// extractExponents pulls the n^k exponents from "power-law fit" lines.
func extractExponents(t *testing.T, out string) []float64 {
	t.Helper()
	var exps []float64
	for _, line := range strings.Split(out, "\n") {
		if !strings.Contains(line, "power-law fit") {
			continue
		}
		idx := strings.Index(line, "n^")
		if idx < 0 {
			continue
		}
		rest := line[idx+2:]
		end := strings.IndexAny(rest, " (")
		if end < 0 {
			end = len(rest)
		}
		v, err := strconv.ParseFloat(rest[:end], 64)
		if err != nil {
			t.Fatalf("cannot parse exponent from %q: %v", line, err)
		}
		exps = append(exps, v)
	}
	return exps
}

// TestFig7Monotonicity asserts the figure's defining property numerically:
// the number of distinct input sizes grows monotonically as input sources
// are added (rms-only <= external-only <= external+thread).
func TestFig7Monotonicity(t *testing.T) {
	var buf bytes.Buffer
	if err := mustGet(t, "fig7").Run(Config{Out: &buf, Quick: true}); err != nil {
		t.Fatal(err)
	}
	var counts []int
	for _, line := range strings.Split(buf.String(), "\n") {
		fields := strings.Fields(line)
		// Rows look like: "(a) rms only  <calls>  <distinct>  <share>".
		if len(fields) >= 4 && strings.HasPrefix(line, "(") {
			var v int
			if _, err := fmt.Sscanf(fields[len(fields)-2], "%d", &v); err == nil {
				counts = append(counts, v)
			}
		}
	}
	if len(counts) != 3 {
		t.Fatalf("parsed %d variant rows from:\n%s", len(counts), buf.String())
	}
	if !(counts[0] <= counts[1] && counts[1] <= counts[2]) {
		t.Errorf("distinct sizes not monotone across input sources: %v", counts)
	}
	if counts[2] <= counts[0] {
		t.Errorf("full trms (%d) not richer than rms-only (%d)", counts[2], counts[0])
	}
}
