// Package profflag provides the standard -cpuprofile/-memprofile flags for
// the repository's command-line tools, so any run of the recorder, the
// replayer, or the experiment driver can be inspected with go tool pprof,
// and FlagsOnly, the argument rule of every command that takes flags only.
package profflag

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"

	"repro/internal/obs"
	"repro/internal/shadow"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// FlagsOnly parses args into fs for a command that takes flags only.
// Parsing stops at the first positional argument, so one left over is an
// error naming it, rather than ignored with every flag after it.
func FlagsOnly(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q (%s takes flags only)", fs.Arg(0), filepath.Base(fs.Name()))
	}
	return nil
}

// Flags holds the profiling and telemetry destinations parsed from a
// flag set.
type Flags struct {
	cpu       string
	mem       string
	exectrace string
	tele      telemetryValue
	httpAddr  string

	cpuFile   *os.File
	traceFile *os.File
	reg       *telemetry.Registry
	obsSrv    *obs.Server
}

// Register adds -cpuprofile, -memprofile, -telemetry, -exectrace
// and -http to fs and returns the handle that starts and stops
// collection.
func Register(fs *flag.FlagSet) *Flags {
	p := &Flags{}
	fs.StringVar(&p.cpu, "cpuprofile", "", "write a CPU profile to `file`")
	fs.StringVar(&p.mem, "memprofile", "", "write a heap profile to `file`")
	p.registerTelemetry(fs)
	p.registerObs(fs)
	return p
}

// Start begins the observability server, CPU profiling and execution
// tracing if -http, -cpuprofile or -exectrace were given. It must be
// called after the flag set is parsed.
func (p *Flags) Start() error {
	if err := p.startObs(); err != nil {
		return err
	}
	if err := p.startTrace(); err != nil {
		return err
	}
	if p.cpu == "" {
		return nil
	}
	f, err := os.Create(p.cpu)
	if err != nil {
		return fmt.Errorf("cpuprofile: %w", err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return fmt.Errorf("cpuprofile: %w", err)
	}
	p.cpuFile = f
	return nil
}

// Stop copies the process-wide shadow-memory and trace-I/O tallies into
// the registry, shuts down the observability server, finishes the CPU
// profile, flushes the telemetry snapshot and the execution trace, and, if
// -memprofile was given, writes a heap profile after a final garbage
// collection. It is safe to call even if Start failed or none of the
// outputs were requested.
func (p *Flags) Stop() error {
	shadow.PublishTelemetry(p.Registry())
	trace.PublishTelemetry(p.Registry())
	if err := p.stopObs(); err != nil {
		return err
	}
	if err := p.stopTelemetry(); err != nil {
		return err
	}
	if p.cpuFile != nil {
		pprof.StopCPUProfile()
		if err := p.cpuFile.Close(); err != nil {
			return fmt.Errorf("cpuprofile: %w", err)
		}
		p.cpuFile = nil
	}
	if p.mem == "" {
		return nil
	}
	f, err := os.Create(p.mem)
	if err != nil {
		return fmt.Errorf("memprofile: %w", err)
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		return fmt.Errorf("memprofile: %w", err)
	}
	return nil
}
