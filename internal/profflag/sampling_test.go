package profflag

import (
	"strings"
	"testing"

	"repro/internal/core"
)

func TestSamplingFlagDefault(t *testing.T) {
	fs, p := newFlagSet()
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if got := p.Sampling(); got != core.SamplingOff {
		t.Errorf("default Sampling() = %v, want off", got)
	}
}

func TestSamplingFlagTiers(t *testing.T) {
	for _, tc := range []struct {
		arg  string
		want core.SamplingTier
	}{
		{"off", core.SamplingOff},
		{"burst", core.SamplingBurst},
	} {
		fs, p := newFlagSet()
		if err := fs.Parse([]string{"-sampling=" + tc.arg}); err != nil {
			t.Fatalf("-sampling=%s: %v", tc.arg, err)
		}
		if got := p.Sampling(); got != tc.want {
			t.Errorf("-sampling=%s: Sampling() = %v, want %v", tc.arg, got, tc.want)
		}
	}
}

func TestSamplingFlagRejectsUnknownTier(t *testing.T) {
	for _, bad := range []string{"bogus", "suppress"} {
		fs, _ := newFlagSet()
		err := fs.Parse([]string{"-sampling=" + bad})
		if err == nil {
			t.Fatalf("parsing -sampling=%s should fail", bad)
		}
		if !strings.Contains(err.Error(), bad) {
			t.Errorf("error %q does not name the bad tier", err)
		}
	}
}
