package main

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/aprof"
)

// recordSmall records a small mysqld run and returns the trace's path.
func recordSmall(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.trace")
	if _, _, err := recordTrace(path, "mysqld", aprof.WorkloadParams{Threads: 3, Size: 8}, true, nil, &stopTool{}); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestTraceArgument: every subcommand that reads a trace file takes its
// flags before the file, and an argument after it (a flag included) is an
// error naming that argument rather than being silently ignored. record
// and check take flags only, so any positional argument is such an error.
func TestTraceArgument(t *testing.T) {
	path := recordSmall(t)
	out := filepath.Join(t.TempDir(), "out.trace")
	subcommands := map[string]func([]string) error{
		"info": info, "dump": dump, "verify": verify, "replay": replay, "analyze": analyze,
		"record": record, "check": check,
	}
	for _, tc := range []struct {
		sub     string
		args    []string
		wantErr string // "" when the command must succeed
	}{
		{"info", []string{path}, ""},
		{"info", nil, "info: trace file required"},
		{"info", []string{path, "extra"}, `unexpected argument "extra"`},
		{"dump", []string{"-limit", "3", path}, ""},
		{"dump", nil, "dump: trace file required"},
		{"dump", []string{path, "-limit", "3"}, `unexpected argument "-limit"`},
		{"verify", []string{"-json", path}, ""},
		{"verify", nil, "verify: trace file required"},
		{"verify", []string{path, "-json"}, `unexpected argument "-json"`},
		{"replay", []string{"-top", "3", path}, ""},
		{"replay", nil, "replay: trace file required"},
		{"replay", []string{path, "-tieseed", "7"}, `unexpected argument "-tieseed"`},
		{"analyze", []string{"-progress=false", "-workers", "2", path}, ""},
		{"analyze", []string{"-progress=false"}, "analyze: trace file required"},
		{"analyze", []string{"-progress=false", path, "-workers", "2"}, `unexpected argument "-workers"`},
		{"analyze", []string{"-progress=false", "-workload", "mysqld", path}, "mutually exclusive (got \"" + path + "\")"},
		{"record", []string{"-progress=false", "-workload", "fig1a", "-o", out}, ""},
		{"record", []string{"-progress=false", "-workload", "fig1a", out}, `unexpected argument "` + out + `"`},
		{"record", []string{"-workload", "fig1a", "stray", "-o", out}, `unexpected argument "stray"`},
		{"check", []string{"-workload", "fig1a", "-quick", "-level", "cheap"}, ""},
		{"check", []string{"-workload", "fig1a", "stray", "-v"}, `unexpected argument "stray"`},
	} {
		var err error
		out := stdout(t, func() error {
			err = subcommands[tc.sub](tc.args)
			return nil
		})
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s %q: %v", tc.sub, tc.args, err)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%s %q: err = %v, want it to contain %s", tc.sub, tc.args, err, tc.wantErr)
		case tc.sub == "dump" && err == nil:
			if n := strings.Count(out, "\n"); n != 3 {
				t.Errorf("dump -limit 3 printed %d lines:\n%s", n, out)
			}
		}
	}
}

// TestReplayMatchesAnalyze: the sequential replayer and the parallel
// pipeline print byte-identical stdout for one recorded trace.
func TestReplayMatchesAnalyze(t *testing.T) {
	path := recordSmall(t)
	replayed := stdout(t, func() error { return replay([]string{path}) })
	for _, workers := range []string{"1", "3"} {
		analyzed := stdout(t, func() error {
			return analyze([]string{"-progress=false", "-workers", workers, path})
		})
		if analyzed != replayed {
			t.Errorf("analyze -workers %s differs from replay:\n%s\nreplay:\n%s", workers, analyzed, replayed)
		}
	}
	if !strings.Contains(replayed, "input volume") || !strings.Contains(replayed, "induced first-accesses") {
		t.Errorf("replay did not print the summary table:\n%s", replayed)
	}
}
