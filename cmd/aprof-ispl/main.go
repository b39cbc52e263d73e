// Command aprof-ispl compiles and runs an ISPL program (the Input-Sensitive
// Profiling Language) under the profiler, the analog of running a binary
// under the original Valgrind tool.
//
// Usage:
//
//	aprof-ispl prog.ispl                 run under aprof, print the summary
//	aprof-ispl -plot scan prog.ispl      a routine's worst-case plots and fits
//	aprof-ispl -disasm prog.ispl         show the compiled bytecode
//	aprof-ispl -run-only prog.ispl       just run; print program output
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/aprof"
	"repro/internal/ispl"
	"repro/internal/profflag"
	"repro/internal/report"
)

func main() {
	var (
		plot      = flag.String("plot", "", "show worst-case cost plots and fitted models for this routine")
		disasm    = flag.Bool("disasm", false, "print the compiled bytecode and exit")
		runOnly   = flag.Bool("run-only", false, "run without profiling; print program output")
		contexts  = flag.Bool("contexts", false, "profile by calling context")
		timeslice = flag.Int("timeslice", 0, "scheduler quantum in guest operations")
		top       = flag.Int("top", 15, "routines in the summary table")
	)
	prof := profflag.Register(flag.CommandLine)
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: aprof-ispl [flags] program.ispl")
		flag.Usage()
		os.Exit(2)
	}

	if err := prof.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "aprof-ispl:", err)
		os.Exit(1)
	}
	reg := prof.Registry()
	if err := runFile(flag.Arg(0), *plot, *disasm, *runOnly, *contexts, *timeslice, *top, reg); err != nil {
		fmt.Fprintln(os.Stderr, "aprof-ispl:", err)
		os.Exit(1)
	}
	if err := prof.Stop(); err != nil {
		fmt.Fprintln(os.Stderr, "aprof-ispl:", err)
		os.Exit(1)
	}
}

func runFile(path, plot string, disasm, runOnly, contexts bool, timeslice, top int, reg *aprof.TelemetryRegistry) error {
	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	prog, err := ispl.Compile(string(src))
	if err != nil {
		return err
	}

	if disasm {
		for _, fn := range prog.Functions() {
			fmt.Print(prog.Disassemble(fn))
		}
		return nil
	}

	cfg := aprof.Config{Timeslice: timeslice, Telemetry: reg}
	if runOnly {
		out, m, err := prog.Run(cfg)
		if err != nil {
			return err
		}
		for _, v := range out.Values {
			fmt.Println(v)
		}
		fmt.Printf("(%d basic blocks, %d threads)\n", m.BBTotal(), m.NumThreads())
		return nil
	}

	prof := aprof.NewProfiler(aprof.Options{ContextSensitive: contexts, Telemetry: reg})
	out, m, err := prog.Run(cfg, prof)
	if err != nil {
		return err
	}
	fmt.Printf("program output: %v\n", out.Values)
	fmt.Printf("%d basic blocks, %d threads\n\n", m.BBTotal(), m.NumThreads())

	switch {
	case contexts:
		report.WriteContexts(os.Stdout, prof.ContextTree(), top)
	case plot != "":
		return report.WriteRoutine(os.Stdout, prof.Profile(), plot)
	default:
		report.WriteSummary(os.Stdout, prof.Profile(), top)
	}
	return nil
}
