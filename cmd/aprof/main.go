// Command aprof runs a built-in workload under the input-sensitive profiler
// (or one of the comparison tools) and reports per-routine profiles, cost
// plots and asymptotic fits (-plot).
//
// Usage:
//
//	aprof -list
//	aprof -workload mysqld [-threads 8] [-size 12] [-top 10]
//	aprof -workload vips -plot im_generate
//	aprof -workload dedup -induced
//	aprof -workload 350.md -tool helgrind
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/aprof"
	"repro/internal/obs"
	"repro/internal/profflag"
	"repro/internal/report"
	"repro/internal/trace"
)

func main() {
	var (
		list      = flag.Bool("list", false, "list the built-in workloads and exit")
		workload  = flag.String("workload", "", "workload to run (see -list)")
		tool      = flag.String("tool", "aprof", "tool to attach: aprof, aprof-rms, nulgrind, memcheck, callgrind, helgrind")
		threads   = flag.Int("threads", 0, "worker threads (0: workload default)")
		size      = flag.Int("size", 0, "problem size (0: workload default)")
		seed      = flag.Int64("seed", 0, "workload data seed")
		timeslice = flag.Int("timeslice", 0, "scheduler quantum in guest operations (0: default)")
		top       = flag.Int("top", 15, "routines to show in the summary table")
		plot      = flag.String("plot", "", "show worst-case cost plots and fitted models for this routine")
		induced   = flag.Bool("induced", false, "show the per-routine induced-input table")
		perThread = flag.String("per-thread", "", "show this routine's thread-sensitive profiles")
		contexts  = flag.Bool("contexts", false, "profile by calling context and show the top contexts")
		full      = flag.Bool("report", false, "print the full report (plots, fits, induced breakdowns)")
		jsonOut   = flag.String("json", "", "dump the profile as JSON to this file")
		htmlOut   = flag.String("html", "", "write a self-contained HTML report (SVG plots) to this file")
		csvOut    = flag.String("csv", "", "with -plot: also write the worst-case points as CSV to this file")
		record    = flag.String("record", "", "record the execution trace to this file")
	)
	prof := profflag.Register(flag.CommandLine)
	if err := profflag.FlagsOnly(flag.CommandLine, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "aprof:", err)
		flag.Usage()
		os.Exit(2)
	}

	if *list {
		listWorkloads()
		return
	}
	if *workload == "" {
		fmt.Fprintln(os.Stderr, "aprof: -workload is required (try -list)")
		flag.Usage()
		os.Exit(2)
	}

	if err := prof.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "aprof:", err)
		os.Exit(1)
	}
	reg := prof.Registry()
	params := aprof.WorkloadParams{Threads: *threads, Size: *size, Seed: *seed,
		Timeslice: *timeslice, Telemetry: reg}
	opts := runOpts{top: *top, plot: *plot, induced: *induced,
		perThread: *perThread, csvOut: *csvOut,
		contexts: *contexts, jsonOut: *jsonOut, htmlOut: *htmlOut, record: *record, full: *full,
		reg: reg, obsSrv: prof.ObsServer()}
	if err := run(*workload, *tool, params, opts); err != nil {
		fmt.Fprintln(os.Stderr, "aprof:", err)
		os.Exit(1)
	}
	if err := prof.Stop(); err != nil {
		fmt.Fprintln(os.Stderr, "aprof:", err)
		os.Exit(1)
	}
}

func listWorkloads() {
	var rows [][]string
	for _, suite := range []string{"omp2012", "parsec", "mysql", "micro", "seq", "ispl"} {
		for _, s := range aprof.WorkloadSuite(suite) {
			rows = append(rows, []string{s.Name, s.Suite, s.Description})
		}
	}
	report.Table(os.Stdout, []string{"workload", "suite", "description"}, rows)
}

// runOpts carries the reporting flags.
type runOpts struct {
	top       int
	plot      string
	induced   bool
	perThread string
	csvOut    string
	contexts  bool
	full      bool
	jsonOut   string
	htmlOut   string
	record    string
	reg       *aprof.TelemetryRegistry
	obsSrv    *obs.Server
}

func run(workload, tool string, params aprof.WorkloadParams, o runOpts) error {
	top := o.top
	var tls []aprof.Tool
	var prof *aprof.Profiler
	// With -http, /profile is served straight from the inline profiler's
	// on-demand snapshots: a request triggers one export at the next batch
	// boundary and the resulting document lands in the feed.
	var feed *obs.ProfileFeed
	var onSnap func(*aprof.LiveSnapshot)
	if o.obsSrv != nil {
		feed = obs.NewProfileFeed()
		onSnap = func(s *aprof.LiveSnapshot) {
			if data, err := json.MarshalIndent(s, "", "  "); err == nil {
				feed.Deliver(append(data, '\n'))
			}
		}
	}
	switch tool {
	case "aprof":
		prof = aprof.NewProfiler(aprof.Options{ContextSensitive: o.contexts, Telemetry: o.reg,
			OnSnapshot: onSnap})
		tls = append(tls, prof)
	case "aprof-rms":
		prof = aprof.NewProfiler(aprof.Options{RMSOnly: true, ContextSensitive: o.contexts, Telemetry: o.reg,
			OnSnapshot: onSnap})
		tls = append(tls, prof)
	case "nulgrind":
		tls = append(tls, aprof.NewNulgrind())
	case "memcheck":
		mc := aprof.NewMemcheck()
		tls = append(tls, mc)
		defer func() { reportMemcheck(mc) }()
	case "callgrind":
		cg := aprof.NewCallgrind()
		tls = append(tls, cg)
		defer func() { reportCallgrind(cg, top) }()
	case "helgrind":
		hg := aprof.NewHelgrind()
		tls = append(tls, hg)
		defer func() { reportHelgrind(hg) }()
	default:
		return fmt.Errorf("unknown tool %q", tool)
	}

	if prof != nil && feed != nil {
		// A single snapshot request publishes one document (the capture at
		// the next batch boundary).
		feed.SetRequester(prof.RequestSnapshot, 1)
		o.obsSrv.SetProfileFeed(feed)
	}

	var m *aprof.Machine
	var rec *aprof.StreamTraceRecorder
	var err error
	if o.record == "" {
		m, err = aprof.RunWorkload(workload, params, tls...)
	} else {
		// -record streams annotated segments into the temporary file of an
		// atomic write, renamed over the target once the run ends.
		err = trace.AtomicWrite(o.record, func(w io.Writer) error {
			rec = aprof.NewStreamRecorder(w)
			var runErr error
			if m, runErr = aprof.RunWorkload(workload, params, append(tls, rec)...); runErr != nil {
				return runErr
			}
			return rec.Close()
		})
	}
	if err != nil {
		return err
	}
	fmt.Printf("workload %s: %d threads, %d basic blocks, %d guest operations\n\n",
		workload, m.NumThreads(), m.BBTotal(), m.Ops())

	if rec != nil {
		fmt.Printf("trace: %d events written to %s\n\n", rec.Events(), o.record)
	}

	if prof == nil {
		return nil
	}
	p := prof.Profile()
	if feed != nil {
		// Publish the finished profile so post-run /profile requests are
		// served immediately, without waiting on captures that cannot come.
		if data, err := json.MarshalIndent(&aprof.LiveSnapshot{Events: m.Ops(), Profile: p.Dump()}, "", "  "); err == nil {
			feed.Final(append(data, '\n'))
		} else {
			feed.Finish()
		}
	}

	if o.jsonOut != "" {
		f, err := os.Create(o.jsonOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := aprof.WriteProfileJSON(p, f); err != nil {
			return err
		}
		fmt.Printf("profile written to %s\n\n", o.jsonOut)
	}
	if o.htmlOut != "" {
		f, err := os.Create(o.htmlOut)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := report.WriteHTMLReport(f, p, report.HTMLOptions{Title: "aprof: " + workload, Top: top}); err != nil {
			return err
		}
		fmt.Printf("HTML report written to %s\n\n", o.htmlOut)
	}

	switch {
	case o.full:
		return report.WriteFullReport(os.Stdout, p, top)
	case o.contexts:
		report.WriteContexts(os.Stdout, prof.ContextTree(), top)
	case o.plot != "":
		if o.csvOut != "" {
			if err := writePlotCSV(p, o.plot, o.csvOut); err != nil {
				return err
			}
		}
		return report.WriteRoutine(os.Stdout, p, o.plot)
	case o.induced:
		inducedTable(p)
	case o.perThread != "":
		return perThreadTable(p, o.perThread)
	default:
		report.WriteSummary(os.Stdout, p, top)
	}
	return nil
}

// perThreadTable shows a routine's thread-sensitive profiles — the paper
// keeps profiles of different threads distinct; this is that raw view.
func perThreadTable(p *aprof.Profile, name string) error {
	rp, err := routineOrErr(p, name)
	if err != nil {
		return err
	}
	var rows [][]string
	for _, tid := range rp.ThreadIDs() {
		a := rp.PerThread[tid]
		rows = append(rows, []string{fmt.Sprint(tid), fmt.Sprint(a.Calls),
			fmt.Sprint(a.SumCost), fmt.Sprint(a.SumTRMS), fmt.Sprint(a.SumRMS),
			fmt.Sprint(len(a.ByTRMS)),
			fmt.Sprint(a.InducedThread), fmt.Sprint(a.InducedExternal)})
	}
	fmt.Printf("%s across %d threads:\n", name, len(rows))
	report.Table(os.Stdout,
		[]string{"thread", "calls", "cost(BB)", "trms", "rms", "|trms|", "thread-induced", "external"}, rows)
	return nil
}

func routineOrErr(p *aprof.Profile, name string) (*aprof.RoutineProfile, error) {
	rp := p.Routine(name)
	if rp == nil {
		return nil, fmt.Errorf("routine %q not profiled; profiled routines: %v", name, p.RoutineNames())
	}
	return rp, nil
}

// writePlotCSV exports a routine's worst-case points (both metrics) as CSV.
func writePlotCSV(p *aprof.Profile, name, path string) error {
	rp, err := routineOrErr(p, name)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	merged := rp.Merged()
	fmt.Fprintln(f, "# worst-case cost vs trms")
	if err := report.WriteCSV(f, "trms", "cost", aprof.WorstCasePlot(merged.ByTRMS)); err != nil {
		return err
	}
	fmt.Fprintln(f, "# worst-case cost vs rms")
	if err := report.WriteCSV(f, "rms", "cost", aprof.WorstCasePlot(merged.ByRMS)); err != nil {
		return err
	}
	fmt.Printf("plot data written to %s\n\n", path)
	return nil
}

func inducedTable(p *aprof.Profile) {
	var table [][]string
	for _, name := range p.RoutineNames() {
		a := p.Routines[name].Merged()
		ind := a.InducedThread + a.InducedExternal
		if ind == 0 {
			continue
		}
		table = append(table, []string{name,
			fmt.Sprint(a.SumTRMS),
			fmt.Sprint(a.InducedThread),
			fmt.Sprint(a.InducedExternal),
			fmt.Sprintf("%.1f%%", 100*float64(ind)/float64(a.SumTRMS))})
	}
	report.Table(os.Stdout, []string{"routine", "trms", "thread-induced", "external", "induced share"}, table)
}

func reportMemcheck(mc *aprof.Memcheck) {
	blocks, cells := mc.Leaks()
	fmt.Printf("memcheck: %d uninitialized reads, %d use-after-free, %d invalid frees, %d leaked blocks (%d cells)\n",
		mc.UninitReads(), mc.UseAfterFrees(), mc.InvalidFrees(), blocks, cells)
	for _, e := range mc.Errors() {
		fmt.Println("  ", e)
	}
}

func reportCallgrind(cg *aprof.Callgrind, top int) {
	var rows [][]string
	nodes := cg.Nodes()
	if top > 0 && len(nodes) > top {
		nodes = nodes[:top]
	}
	for _, n := range nodes {
		rows = append(rows, []string{n.Name, fmt.Sprint(n.Calls), fmt.Sprint(n.Inclusive), fmt.Sprint(n.Exclusive)})
	}
	report.Table(os.Stdout, []string{"routine", "calls", "inclusive(BB)", "exclusive(BB)"}, rows)
}

func reportHelgrind(hg *aprof.Helgrind) {
	fmt.Printf("helgrind: %d racy accesses detected\n", hg.Races())
	for _, r := range hg.RaceReports() {
		fmt.Println("  ", r)
	}
}
