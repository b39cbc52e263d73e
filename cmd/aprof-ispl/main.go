// Command aprof-ispl compiles and runs an ISPL program (the Input-Sensitive
// Profiling Language) under the profiler, the analog of running a binary
// under the original Valgrind tool.
//
// Usage:
//
//	aprof-ispl prog.ispl                 run under aprof, print the summary
//	aprof-ispl -fit quicksort prog.ispl  fit a routine's cost function
//	aprof-ispl -plot scan prog.ispl      worst-case plots for a routine
//	aprof-ispl -disasm prog.ispl         show the compiled bytecode
//	aprof-ispl -run-only prog.ispl       just run; print program output
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/aprof"
	"repro/internal/ispl"
	"repro/internal/profflag"
	"repro/internal/report"
)

func main() {
	var (
		fitR      = flag.String("fit", "", "fit complexity models for this routine")
		plot      = flag.String("plot", "", "show worst-case cost plots for this routine")
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
	if err := runFile(flag.Arg(0), *fitR, *plot, *disasm, *runOnly, *contexts, *timeslice, *top, reg); err != nil {
		fmt.Fprintln(os.Stderr, "aprof-ispl:", err)
		os.Exit(1)
	}
	if err := prof.Stop(); err != nil {
		fmt.Fprintln(os.Stderr, "aprof-ispl:", err)
		os.Exit(1)
	}
}

func runFile(path, fitR, plot string, disasm, runOnly, contexts bool, timeslice, top int, reg *aprof.TelemetryRegistry) error {
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

	p := prof.Profile()
	switch {
	case contexts:
		return contextSummary(prof.ContextTree(), top)
	case fitR != "":
		return fitRoutine(p, fitR)
	case plot != "":
		return plotRoutine(p, plot)
	default:
		return summary(p, top)
	}
}

func contextSummary(tree *aprof.ContextTree, top int) error {
	type row struct {
		node *aprof.ContextNode
		a    *aprof.Activations
	}
	var rows []row
	tree.Walk(func(n *aprof.ContextNode) { rows = append(rows, row{n, n.Merged()}) })
	sort.Slice(rows, func(i, j int) bool { return rows[i].a.SumCost > rows[j].a.SumCost })
	if top > 0 && len(rows) > top {
		rows = rows[:top]
	}
	var table [][]string
	for _, r := range rows {
		table = append(table, []string{r.node.Path(), fmt.Sprint(r.a.Calls),
			fmt.Sprint(r.a.SumCost), fmt.Sprint(r.a.SumTRMS)})
	}
	fmt.Printf("%d distinct calling contexts\n\n", tree.NumContexts())
	report.Table(os.Stdout, []string{"calling context", "calls", "cost(BB)", "trms"}, table)
	return nil
}

func summary(p *aprof.Profile, top int) error {
	type row struct {
		name string
		a    *aprof.Activations
	}
	var rows []row
	for _, name := range p.RoutineNames() {
		rows = append(rows, row{name, p.Routines[name].Merged()})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].a.SumCost > rows[j].a.SumCost })
	if top > 0 && len(rows) > top {
		rows = rows[:top]
	}
	var table [][]string
	for _, r := range rows {
		table = append(table, []string{r.name, fmt.Sprint(r.a.Calls), fmt.Sprint(r.a.SumCost),
			fmt.Sprint(r.a.SumTRMS), fmt.Sprint(r.a.SumRMS),
			fmt.Sprint(r.a.InducedThread), fmt.Sprint(r.a.InducedExternal)})
	}
	report.Table(os.Stdout,
		[]string{"routine", "calls", "cost(BB)", "trms", "rms", "thread-induced", "external"}, table)
	return nil
}

func fitRoutine(p *aprof.Profile, name string) error {
	rp := p.Routine(name)
	if rp == nil {
		return fmt.Errorf("routine %q not profiled; have %v", name, p.RoutineNames())
	}
	pts := aprof.WorstCasePlot(rp.Merged().ByTRMS)
	fmt.Printf("%s: %d distinct input sizes\n", name, len(pts))
	if best, err := aprof.BestFit(pts); err == nil {
		fmt.Printf("  best model: %s\n", best)
	} else {
		fmt.Printf("  best model: %v\n", err)
	}
	if pl, err := aprof.FitPowerLaw(pts); err == nil {
		fmt.Printf("  power law:  %s\n", pl)
	}
	return nil
}

func plotRoutine(p *aprof.Profile, name string) error {
	rp := p.Routine(name)
	if rp == nil {
		return fmt.Errorf("routine %q not profiled; have %v", name, p.RoutineNames())
	}
	merged := rp.Merged()
	report.Scatter(os.Stdout, name+" — worst-case cost vs trms",
		aprof.WorstCasePlot(merged.ByTRMS), 72, 16)
	report.Scatter(os.Stdout, name+" — worst-case cost vs rms",
		aprof.WorstCasePlot(merged.ByRMS), 72, 16)
	return nil
}
