package profflag

import (
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func newFlagSet() (*flag.FlagSet, *Flags) {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return fs, Register(fs)
}

func TestRegisterAddsFlags(t *testing.T) {
	fs, _ := newFlagSet()
	for _, name := range []string{"cpuprofile", "memprofile", "telemetry", "exectrace"} {
		if fs.Lookup(name) == nil {
			t.Errorf("flag -%s not registered", name)
		}
	}
}

func TestNoFlagsIsNoOp(t *testing.T) {
	fs, p := newFlagSet()
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := p.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	if p.Registry() != nil {
		t.Error("Registry should be nil when -telemetry is absent")
	}
}

func TestCPUAndMemProfileFiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	fs, p := newFlagSet()
	if err := fs.Parse([]string{"-cpuprofile", cpu, "-memprofile", mem}); err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := p.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	for _, f := range []string{cpu, mem} {
		st, err := os.Stat(f)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if st.Size() == 0 {
			t.Errorf("%s is empty", f)
		}
	}
}

func TestUnwritableCPUProfilePath(t *testing.T) {
	fs, p := newFlagSet()
	bad := filepath.Join(t.TempDir(), "no", "such", "dir", "cpu.pprof")
	if err := fs.Parse([]string{"-cpuprofile", bad}); err != nil {
		t.Fatal(err)
	}
	err := p.Start()
	if err == nil {
		p.Stop()
		t.Fatal("Start should fail for an unwritable -cpuprofile path")
	}
	if !strings.Contains(err.Error(), "cpuprofile") {
		t.Errorf("error %q does not name the flag", err)
	}
}

func TestUnwritableMemProfilePath(t *testing.T) {
	fs, p := newFlagSet()
	bad := filepath.Join(t.TempDir(), "no", "such", "dir", "mem.pprof")
	if err := fs.Parse([]string{"-memprofile", bad}); err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	err := p.Stop()
	if err == nil {
		t.Fatal("Stop should fail for an unwritable -memprofile path")
	}
	if !strings.Contains(err.Error(), "memprofile") {
		t.Errorf("error %q does not name the flag", err)
	}
}

func TestBareTelemetryFlag(t *testing.T) {
	fs, p := newFlagSet()
	if err := fs.Parse([]string{"-telemetry"}); err != nil {
		t.Fatal(err)
	}
	reg := p.Registry()
	if reg == nil {
		t.Fatal("Registry should be non-nil after bare -telemetry")
	}
	if again := p.Registry(); again != reg {
		t.Error("Registry should return the same instance on every call")
	}
}

func TestTelemetryBooleanSpellings(t *testing.T) {
	for _, arg := range []string{"-telemetry=false", "-telemetry=0"} {
		fs, p := newFlagSet()
		if err := fs.Parse([]string{arg}); err != nil {
			t.Fatal(err)
		}
		if p.Registry() != nil {
			t.Errorf("%s should leave telemetry disabled", arg)
		}
	}
	for _, arg := range []string{"-telemetry=true", "-telemetry=1"} {
		fs, p := newFlagSet()
		if err := fs.Parse([]string{arg}); err != nil {
			t.Fatal(err)
		}
		if p.Registry() == nil {
			t.Errorf("%s should enable telemetry", arg)
		}
	}
}

func TestTelemetryJSONSnapshot(t *testing.T) {
	out := filepath.Join(t.TempDir(), "metrics.json")
	fs, p := newFlagSet()
	if err := fs.Parse([]string{"-telemetry=" + out}); err != nil {
		t.Fatal(err)
	}
	p.Registry().Counter("test/answer").Add(42)
	if err := p.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := p.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatalf("snapshot not written: %v", err)
	}
	var snap struct {
		Counters map[string]uint64 `json:"counters"`
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	if snap.Counters["test/answer"] != 42 {
		t.Errorf("snapshot counters = %v, want test/answer=42", snap.Counters)
	}
}

func TestTelemetryUnwritableSnapshotPath(t *testing.T) {
	bad := filepath.Join(t.TempDir(), "no", "such", "dir", "metrics.json")
	fs, p := newFlagSet()
	if err := fs.Parse([]string{"-telemetry=" + bad}); err != nil {
		t.Fatal(err)
	}
	p.Registry().Counter("test/answer").Inc()
	err := p.Stop()
	if err == nil {
		t.Fatal("Stop should fail for an unwritable -telemetry path")
	}
	if !strings.Contains(err.Error(), "telemetry") {
		t.Errorf("error %q does not name the flag", err)
	}
}

func TestExecTrace(t *testing.T) {
	out := filepath.Join(t.TempDir(), "exec.trace")
	fs, p := newFlagSet()
	if err := fs.Parse([]string{"-exectrace", out}); err != nil {
		t.Fatal(err)
	}
	if err := p.Start(); err != nil {
		t.Fatalf("Start: %v", err)
	}
	if err := p.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}
	st, err := os.Stat(out)
	if err != nil {
		t.Fatalf("execution trace not written: %v", err)
	}
	if st.Size() == 0 {
		t.Error("execution trace is empty")
	}
}

func TestUnwritableExecTracePath(t *testing.T) {
	fs, p := newFlagSet()
	bad := filepath.Join(t.TempDir(), "no", "such", "dir", "exec.trace")
	if err := fs.Parse([]string{"-exectrace", bad}); err != nil {
		t.Fatal(err)
	}
	err := p.Start()
	if err == nil {
		p.Stop()
		t.Fatal("Start should fail for an unwritable -exectrace path")
	}
	if !strings.Contains(err.Error(), "exectrace") {
		t.Errorf("error %q does not name the flag", err)
	}
}

// TestFlagsOnly: a command that takes flags only reports an argument left
// after them, naming it, rather than ignoring it with every flag after it.
func TestFlagsOnly(t *testing.T) {
	for _, tc := range []struct {
		args    []string
		wantErr string // "" when parsing must succeed
	}{
		{[]string{"-workload", "mysqld", "-threads", "4"}, ""},
		{[]string{"-workload", "mysqld", "stray", "-threads", "4"}, `unexpected argument "stray" (aprof takes flags only)`},
		{[]string{"mysqld"}, `unexpected argument "mysqld"`},
	} {
		fs := flag.NewFlagSet("aprof", flag.ContinueOnError)
		fs.String("workload", "", "")
		threads := fs.Int("threads", 0, "")
		err := FlagsOnly(fs, tc.args)
		switch {
		case tc.wantErr == "" && (err != nil || *threads != 4):
			t.Errorf("%q: err = %v, -threads = %d", tc.args, err, *threads)
		case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
			t.Errorf("%q: err = %v, want it to contain %s", tc.args, err, tc.wantErr)
		}
	}

	// aprof-experiments' command line: a second id given apart from -run
	// is named, and -out after it is not silently dropped.
	fs := flag.NewFlagSet("/usr/local/bin/aprof-experiments", flag.ContinueOnError)
	fs.String("run", "", "")
	fs.Bool("quick", false, "")
	fs.String("out", "", "")
	err := FlagsOnly(fs, []string{"-run", "fig1", "-quick", "fig2", "-out", "x.txt"})
	if want := `unexpected argument "fig2" (aprof-experiments takes flags only)`; err == nil || err.Error() != want {
		t.Errorf("err = %v, want %s", err, want)
	}
}
