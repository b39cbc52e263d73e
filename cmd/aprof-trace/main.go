// Command aprof-trace records, inspects, verifies and replays execution
// traces.
//
// Usage:
//
//	aprof-trace record -workload mysqld -o run.trace [-threads 8 -size 12 -stream]
//	aprof-trace info run.trace
//	aprof-trace dump run.trace [-limit 50]
//	aprof-trace verify run.trace [-json]
//	aprof-trace replay run.trace [-tieseed 7]
//	aprof-trace analyze run.trace [-workers 4 -tieseed 7 -recover -json -max-events N -timeout 30s -export prof.json]
//	aprof-trace analyze run.trace -snapshot live.json [-snapshot-interval 10s]
//	aprof-trace analyze -workload mysqld [-threads 8 -size 12]
//	aprof-trace stats run.trace
//	aprof-trace check [-workload mysqld | -suite micro] [-level deep -renumber 64 -quick -v]
//
// replay and analyze compute the same profile; replay drives the inline
// profiler through the merged event stream sequentially, while analyze uses
// the parallel pipeline (plan from stamp annotations, computed offline
// when the trace carries none; per-thread shadow analysis on -workers
// goroutines; deterministic merge).
//
// record writes the trace atomically (temp file + rename); with -stream it
// instead streams checksummed segments straight to the target file as the
// run progresses, so even a killed recording leaves salvageable data.
// verify walks a trace's checksums and exits non-zero if any block is
// damaged; analyze -recover salvages what it can from a damaged trace
// before profiling it.
//
// Every subcommand that does real work shares the -telemetry[=file.json],
// -exectrace, -cpuprofile and -memprofile flags (see internal/profflag and
// docs/OBSERVABILITY.md). analyze and streamed record draw a live progress
// line on stderr when it is a terminal (-progress=false disables it).
// analyze -workload records the workload in-process and analyzes the
// resulting trace in one run, cross-checking the pipeline profile against
// the inline profiler's.
//
// check runs the metamorphic invariant suite (docs/CORRECTNESS.md): each
// workload is profiled under deep invariant checking and re-derived under
// perturbed don't-care parameters, which must not change the profile.
//
// analyze -snapshot writes a live profile JSON mid-run, on a timer
// (-snapshot-interval) or on SIGUSR1. analyze and streamed record trap
// SIGINT/SIGTERM: the run stops promptly, in-flight state is flushed
// (final snapshot / trace footer), and the process exits non-zero. A
// killed analysis is simply re-run: the trace file is still there, and
// re-analyzing it gives the same byte-identical profile.
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync/atomic"
	"syscall"

	"repro/aprof"
	"repro/internal/obs"
	"repro/internal/profflag"
	"repro/internal/report"
	"repro/internal/shadow"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// stderrIsTTY reports whether stderr is a terminal; it gates the default
// for the -progress flags so piped runs stay clean.
func stderrIsTTY() bool {
	st, err := os.Stderr.Stat()
	return err == nil && st.Mode()&os.ModeCharDevice != 0
}

// publishLayers copies the process-wide shadow-memory and trace-I/O
// tallies into reg so a -telemetry snapshot covers every layer, not just
// the ones with per-run registries. Safe with a nil registry.
func publishLayers(reg *telemetry.Registry) {
	shadow.PublishTelemetry(reg)
	trace.PublishTelemetry(reg)
}

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "record":
		err = record(os.Args[2:])
	case "info":
		err = info(os.Args[2:])
	case "dump":
		err = dump(os.Args[2:])
	case "verify":
		err = verify(os.Args[2:])
	case "replay":
		err = replay(os.Args[2:])
	case "analyze":
		err = analyze(os.Args[2:])
	case "stats":
		err = stats(os.Args[2:])
	case "check":
		err = check(os.Args[2:])
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "aprof-trace:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: aprof-trace record|info|dump|verify|replay|analyze|stats|check ...")
	os.Exit(2)
}

// stopSentinel is the panic value stopTool uses to unwind the guest run;
// the machine recovers it into its abort error, which record recognizes by
// this substring.
const stopSentinel = "interrupted by signal"

// stopTool aborts a guest run from a signal handler: once stop is set, the
// next observed event panics a sentinel that the machine recovers into a
// clean abort, unwinding every guest thread so the recorder can flush its
// in-flight segment and footer.
type stopTool struct {
	aprof.BaseTool
	stop atomic.Bool
}

// Call implements the Tool hook; it aborts the run once stop is set.
func (s *stopTool) Call(aprof.ThreadID, aprof.RoutineID, uint64) {
	if s.stop.Load() {
		panic(stopSentinel)
	}
}

// MemBatch implements the Tool hook; it aborts the run once stop is set.
func (s *stopTool) MemBatch(aprof.ThreadID, uint64, []aprof.MemEvent) {
	if s.stop.Load() {
		panic(stopSentinel)
	}
}

func record(args []string) error {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	workload := fs.String("workload", "", "workload to record")
	out := fs.String("o", "run.trace", "output trace file")
	threads := fs.Int("threads", 0, "worker threads")
	size := fs.Int("size", 0, "problem size")
	seed := fs.Int64("seed", 0, "workload seed")
	stream := fs.Bool("stream", false, "stream checksummed segments to the file during the run (crash-safe)")
	annotate := fs.Bool("annotate", true, "record per-segment stamp annotations so analysis needs no offline annotation pass")
	showProgress := fs.Bool("progress", stderrIsTTY(), "draw a live progress line on stderr (streamed recording only)")
	prof := profflag.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *workload == "" {
		return fmt.Errorf("record: -workload is required")
	}
	if err := prof.Start(); err != nil {
		return err
	}
	reg := prof.Registry()
	params := aprof.WorkloadParams{Threads: *threads, Size: *size, Seed: *seed, Telemetry: reg}
	events := 0
	if *stream {
		// Crash-safe path: segments hit the file as they complete, so a
		// killed run still leaves recoverable data at the target path.
		f, err := os.Create(*out)
		if err != nil {
			return err
		}
		rec := aprof.NewStreamRecorder(f)
		rec.SetAnnotations(*annotate)
		rec.SetTelemetry(reg)
		// The stderr line and the obs server's /progress stream share one
		// estimator; with -http but no terminal the estimator still runs so
		// the SSE stream has numbers.
		srv := prof.ObsServer()
		var pl *telemetry.Progress
		var est *telemetry.RateEstimator
		if *showProgress {
			pl = telemetry.NewProgress(os.Stderr, "record", 0)
			est = pl.Estimator()
		} else if srv != nil {
			est = telemetry.NewRateEstimator(0)
		}
		if est != nil {
			est.SetPhase("record")
			srv.SetEstimator(est)
			rec.SetProgress(func(events, segments int, bytes int64) {
				if pl != nil {
					pl.SetNote(fmt.Sprintf("%d segments, %d bytes", segments, bytes))
					pl.Update(uint64(events))
				} else {
					est.Update(uint64(events))
				}
			})
		}
		// SIGINT/SIGTERM stop the run at the next guest event; the recorder
		// then flushes its in-flight segment and footer, so the partial
		// trace on disk is well-formed up to the interruption point.
		stopper := &stopTool{}
		sigc := make(chan os.Signal, 1)
		signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
		go func() {
			for range sigc {
				stopper.stop.Store(true)
			}
		}()
		_, runErr := aprof.RunWorkload(*workload, params, rec, stopper)
		signal.Stop(sigc)
		interrupted := runErr != nil && strings.Contains(runErr.Error(), stopSentinel)
		if runErr != nil && !interrupted {
			f.Close()
			return runErr
		}
		if err := rec.Close(); err != nil {
			f.Close()
			return fmt.Errorf("record: writing %s: %w", *out, err)
		}
		pl.Done()
		est.Finish()
		if err := f.Close(); err != nil {
			return err
		}
		if interrupted {
			publishLayers(reg)
			if err := prof.Stop(); err != nil {
				fmt.Fprintln(os.Stderr, "record:", err)
			}
			fmt.Fprintf(os.Stderr, "record: interrupted; partial trace flushed to %s (it decodes cleanly up to the interruption)\n", *out)
			return fmt.Errorf("record: %s", stopSentinel)
		}
		tr, err := aprof.ReadTraceFile(*out)
		if err != nil {
			return fmt.Errorf("record: re-reading %s: %w", *out, err)
		}
		events = tr.NumEvents()
		if tr.Annotated {
			fmt.Printf("trace is analysis-ready (stamp annotations recorded)\n")
		}
	} else {
		// Default path: record through the annotating stream recorder into
		// memory, then write atomically so the target never holds a
		// half-written trace. The result carries the same stamp
		// annotations as a streamed recording.
		var buf bytes.Buffer
		rec := aprof.NewStreamRecorder(&buf)
		rec.SetAnnotations(*annotate)
		rec.SetTelemetry(reg)
		if _, err := aprof.RunWorkload(*workload, params, rec); err != nil {
			return err
		}
		if err := rec.Close(); err != nil {
			return err
		}
		tr, err := aprof.DecodeTrace(bytes.NewReader(buf.Bytes()))
		if err != nil {
			return fmt.Errorf("record: re-reading recording: %w", err)
		}
		if _, err := aprof.WriteTraceFile(*out, tr); err != nil {
			return err
		}
		events = tr.NumEvents()
		if tr.Annotated {
			fmt.Printf("trace is analysis-ready (stamp annotations recorded)\n")
		}
	}
	fmt.Printf("recorded %d events from %s to %s\n", events, *workload, *out)
	publishLayers(reg)
	return prof.Stop()
}

// verify walks the trace's blocks, reports per-block diagnostics, and exits
// non-zero if any checksum fails, the footer is missing, or the file is
// truncated. With -json the report is printed as machine-readable JSON on
// stdout instead of a table; the exit code is unchanged.
func verify(args []string) error {
	fs := flag.NewFlagSet("verify", flag.ExitOnError)
	jsonOut := fs.Bool("json", false, "print the verify report as JSON on stdout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() < 1 {
		return fmt.Errorf("verify: trace file required")
	}
	path := fs.Arg(0)
	vr, err := aprof.VerifyTraceFile(path)
	if err != nil {
		return err
	}
	if *jsonOut {
		if err := vr.WriteJSON(os.Stdout); err != nil {
			return err
		}
		return verifyVerdict(vr, path)
	}
	var rows [][]string
	for _, blk := range vr.Blocks {
		status := "ok"
		if blk.Err != nil {
			status = blk.Err.Error()
		}
		detail := ""
		switch {
		case blk.Runs > 0 || blk.Stamps > 0:
			detail = fmt.Sprintf("thread %d, %d runs, %d stamps", blk.Thread, blk.Runs, blk.Stamps)
		case blk.HasThread:
			detail = fmt.Sprintf("thread %d, %d events", blk.Thread, blk.Events)
		case blk.Names > 0:
			detail = fmt.Sprintf("%d names", blk.Names)
		}
		rows = append(rows, []string{fmt.Sprint(blk.Offset), string(blk.Kind),
			fmt.Sprint(blk.PayloadLen), detail, status})
	}
	report.Table(os.Stdout, []string{"offset", "kind", "payload", "contents", "status"}, rows)
	fmt.Printf("\n%s: %d events in %d segments across %d threads\n", path, vr.Events, vr.Segments, vr.Threads)
	if vr.Annotations > 0 {
		fmt.Printf("%d stamp-annotation block(s): analysis needs no offline annotation pass\n", vr.Annotations)
	}
	if vr.OK() {
		fmt.Println("all checksums verify; footer present")
	}
	return verifyVerdict(vr, path)
}

// verifyVerdict maps a verify report to the subcommand's exit status: nil
// when the trace is intact, a descriptive error otherwise. Shared by the
// table and -json output modes so both exit identically.
func verifyVerdict(vr *aprof.TraceVerifyReport, path string) error {
	if vr.OK() {
		return nil
	}
	switch {
	case vr.Bad > 0 && vr.Truncated:
		return fmt.Errorf("verify: %s: %d corrupt block(s) and truncated", path, vr.Bad)
	case vr.Bad > 0:
		return fmt.Errorf("verify: %s: %d corrupt block(s)", path, vr.Bad)
	default:
		return fmt.Errorf("verify: %s: truncated (no valid footer)", path)
	}
}

func load(path string) (*aprof.Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return aprof.DecodeTrace(f)
}

func info(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("info: trace file required")
	}
	tr, err := load(args[0])
	if err != nil {
		return err
	}
	ann := ""
	if tr.Annotated {
		ann = ", stamp-annotated"
	}
	fmt.Printf("trace %s: %d threads, %d events, %d routines, %d sync objects%s\n",
		args[0], len(tr.Threads), tr.NumEvents(), len(tr.Routines), len(tr.Syncs), ann)
	var rows [][]string
	for i := range tr.Threads {
		tt := &tr.Threads[i]
		first, last := uint64(0), uint64(0)
		if len(tt.Events) > 0 {
			first, last = tt.Events[0].TS, tt.Events[len(tt.Events)-1].TS
		}
		rows = append(rows, []string{fmt.Sprint(tt.ID), fmt.Sprint(len(tt.Events)),
			fmt.Sprint(first), fmt.Sprint(last)})
	}
	report.Table(os.Stdout, []string{"thread", "events", "first ts", "last ts"}, rows)
	return nil
}

func dump(args []string) error {
	fs := flag.NewFlagSet("dump", flag.ExitOnError)
	limit := fs.Int("limit", 50, "events to print (0: all)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() < 1 {
		return fmt.Errorf("dump: trace file required")
	}
	tr, err := load(fs.Arg(0))
	if err != nil {
		return err
	}
	// Print the merged order as Merge builds it, synthesized thread
	// switches included, without materializing it.
	printed := 0
	emit := func(e trace.Event) {
		if *limit <= 0 || printed < *limit {
			fmt.Println(e)
			printed++
		}
	}
	var last *trace.Event
	trace.Walk(tr, 0, func(_, _ int, e *trace.Event) {
		if last != nil && last.Thread != e.Thread {
			emit(trace.Event{TS: e.TS, Thread: last.Thread, Kind: trace.KindSwitch, Arg: uint64(uint32(e.Thread))})
		}
		emit(*e)
		last = e
	})
	return nil
}

func stats(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("stats: trace file required")
	}
	tr, err := load(args[0])
	if err != nil {
		return err
	}
	st := trace.ComputeStats(tr)
	fmt.Printf("%d events, %d threads, timestamp span %d\n\n", st.Events, st.Threads, st.Span)
	var kindRows [][]string
	for k := trace.Kind(0); int(k) < 16; k++ {
		if n := st.ByKind[k]; n > 0 {
			kindRows = append(kindRows, []string{k.String(), fmt.Sprint(n)})
		}
	}
	report.Table(os.Stdout, []string{"event kind", "count"}, kindRows)
	fmt.Println()
	var thRows [][]string
	for _, ts := range st.PerThread {
		thRows = append(thRows, []string{fmt.Sprint(ts.ID), fmt.Sprint(ts.Events),
			fmt.Sprint(ts.Reads), fmt.Sprint(ts.Writes), fmt.Sprint(ts.KernelIO), fmt.Sprint(ts.Calls)})
	}
	report.Table(os.Stdout, []string{"thread", "events", "reads", "writes", "kernel I/O", "calls"}, thRows)
	return nil
}

func replay(args []string) error {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	tieSeed := fs.Int64("tieseed", 0, "tie-breaking seed for the merge")
	top := fs.Int("top", 15, "routines to show")
	prof := profflag.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() < 1 {
		return fmt.Errorf("replay: trace file required")
	}
	tr, err := load(fs.Arg(0))
	if err != nil {
		return err
	}
	if err := prof.Start(); err != nil {
		return err
	}
	p, err := aprof.ProfileTrace(tr, *tieSeed, aprof.Options{})
	if err != nil {
		return err
	}
	printProfile(p, *top)
	return prof.Stop()
}

// analyze computes the trace's profile with the parallel pipeline; the
// output is identical to replay's. With -recover, a damaged trace is first
// salvaged and the recovery summary printed before profiling what survived
// (-json renders that summary as JSON on stderr; the exit code is
// unchanged). With -workload the trace is recorded in-process immediately
// before analysis — one command exercising recording, encoding, decoding
// and the pipeline — and the pipeline profile is cross-checked against the
// inline profiler's.
func analyze(args []string) error {
	fs := flag.NewFlagSet("analyze", flag.ExitOnError)
	tieSeed := fs.Int64("tieseed", 0, "tie-breaking seed for the merge")
	workers := fs.Int("workers", 0, "analysis goroutines (0: GOMAXPROCS)")
	top := fs.Int("top", 15, "routines to show")
	rescue := fs.Bool("recover", false, "salvage intact segments from a damaged trace instead of failing")
	jsonOut := fs.Bool("json", false, "with -recover, print the recovery report as JSON on stderr")
	maxEvents := fs.Int("max-events", 0, "refuse traces with more events (0: unlimited)")
	timeout := fs.Duration("timeout", 0, "abort the analysis after this long (0: no limit)")
	snapPath := fs.String("snapshot", "", "write a live profile JSON here mid-run (on SIGUSR1 or -snapshot-interval)")
	snapInterval := fs.Duration("snapshot-interval", 0, "write the -snapshot file periodically (0: on SIGUSR1 only)")
	showProgress := fs.Bool("progress", stderrIsTTY(), "draw a live progress line on stderr")
	exportPath := fs.String("export", "", "write the canonical profile JSON (Profile.Export) to `file`")
	workload := fs.String("workload", "", "record this workload in-process and analyze it (no trace file argument)")
	threads := fs.Int("threads", 0, "worker threads (with -workload)")
	size := fs.Int("size", 0, "problem size (with -workload)")
	seed := fs.Int64("seed", 0, "workload seed (with -workload)")
	prof := profflag.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := prof.Start(); err != nil {
		return err
	}
	// SIGINT/SIGTERM cancel the analysis cleanly: workers stop at the next
	// safepoint, the final snapshot is written, and we exit non-zero
	// instead of dying with work unrecorded. Registered before the trace
	// load so a signal during loading is honored too.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	reg := prof.Registry()
	srv := prof.ObsServer()
	var tr *aprof.Trace
	var inline *aprof.Profile
	var err error
	switch {
	case *workload != "":
		if fs.NArg() > 0 {
			return fmt.Errorf("analyze: -workload and a trace file are mutually exclusive")
		}
		params := aprof.WorkloadParams{Threads: *threads, Size: *size, Seed: *seed, Telemetry: reg}
		// With -http, the in-process recording phase reports its own
		// progress; the analyze estimator replaces it afterwards, which the
		// /progress stream surfaces as a phase-change event.
		var recProgress func(events, segments int, bytes int64)
		if srv != nil {
			recEst := telemetry.NewRateEstimator(0)
			recEst.SetPhase("record")
			srv.SetEstimator(recEst)
			recProgress = func(events, _ int, _ int64) { recEst.Update(uint64(events)) }
		}
		tr, inline, err = recordInProcess(*workload, params, reg, recProgress)
		if err != nil {
			return err
		}
	case fs.NArg() < 1:
		return fmt.Errorf("analyze: trace file required")
	case *rescue:
		var rep *aprof.TraceRecoveryReport
		tr, rep, err = aprof.RecoverTraceFile(fs.Arg(0))
		if err != nil {
			return err
		}
		rep.Publish(reg)
		if *jsonOut {
			if err := rep.WriteJSON(os.Stderr); err != nil {
				return err
			}
		} else if !rep.Complete() {
			fmt.Fprintln(os.Stderr, rep)
		}
	default:
		tr, err = load(fs.Arg(0))
		if err != nil {
			return err
		}
	}
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	opts := aprof.AnalyzeOptions{
		TieSeed: *tieSeed, Workers: *workers, MaxEvents: *maxEvents,
		Telemetry: reg,
	}
	if *snapPath != "" {
		opts.Snapshot = &aprof.SnapshotOptions{
			Path:     *snapPath,
			Interval: *snapInterval,
			Trigger:  aprof.NewSnapshotTrigger(),
		}
		defer notifyLiveSnapshot(opts.Snapshot.Trigger)()
	}
	var feed *obs.ProfileFeed
	if srv != nil {
		// Serve /profile from live snapshots: workers capture only when a
		// request pulls the trigger, so idle cost is the safepoint poll.
		if opts.Snapshot == nil {
			opts.Snapshot = &aprof.SnapshotOptions{Trigger: aprof.NewSnapshotTrigger()}
		}
		feed = obs.NewProfileFeed()
		opts.Snapshot.Sink = feed.Deliver
		// A trigger request publishes twice: the latest known states
		// immediately, then the fresh post-capture document.
		feed.SetRequester(opts.Snapshot.Trigger.Request, 2)
		srv.SetProfileFeed(feed)
	}
	if tr.Annotated {
		fmt.Fprintln(os.Stderr, "analyze: annotated trace — plan assembled from recorded stamps")
	} else {
		fmt.Fprintln(os.Stderr, "analyze: unannotated trace — stamps annotated offline, then plan assembled")
	}
	// As in record: one estimator behind both the stderr line and /progress.
	var pl *telemetry.Progress
	var est *telemetry.RateEstimator
	if *showProgress {
		pl = telemetry.NewProgress(os.Stderr, "analyze", uint64(tr.NumEvents()))
		est = pl.Estimator()
		opts.Progress = func(done, total uint64) { pl.Update(done) }
	} else if srv != nil {
		est = telemetry.NewRateEstimator(uint64(tr.NumEvents()))
		opts.Progress = func(done, total uint64) { est.Update(done) }
	}
	est.SetPhase("analyze")
	srv.SetEstimator(est)
	p, err := aprof.AnalyzeTraceOptions(ctx, tr, opts)
	pl.Done()
	est.Finish()
	// The manager published its final snapshot before AnalyzeTraceOptions
	// returned; later /profile requests should serve it without waiting.
	feed.Finish()
	if err != nil {
		// An aborted analysis still surfaces its partial telemetry, and —
		// with -snapshot — leaves its partial profile behind.
		publishLayers(reg)
		if stopErr := prof.Stop(); stopErr != nil {
			fmt.Fprintln(os.Stderr, "analyze:", stopErr)
		}
		return err
	}
	if *exportPath != "" {
		// The canonical export is the cross-tool equality currency: aprofd's
		// rolling profile and check's metamorphic axes compare these bytes.
		export, err := p.Export()
		if err != nil {
			return err
		}
		if _, err := trace.AtomicWriteFile(*exportPath, export); err != nil {
			return fmt.Errorf("analyze: -export: %w", err)
		}
	}
	// The inline profile must match the pipeline's byte for byte.
	if inline != nil && !p.Equal(inline) {
		return fmt.Errorf("analyze: pipeline profile differs from the inline profiler's (%d differences)",
			len(p.Diff(inline)))
	}
	printProfile(p, *top)
	publishLayers(reg)
	return prof.Stop()
}

// recordInProcess runs the workload with a streaming recorder and an inline
// profiler attached, then strictly decodes the recorded bytes: the returned
// trace has passed the same checksum walk a file round-trip would, and the
// inline profile lets analyze cross-check the pipeline result. progress,
// when non-nil, receives the recorder's event/segment/byte tallies as the
// run advances.
func recordInProcess(name string, params aprof.WorkloadParams, reg *aprof.TelemetryRegistry, progress func(events, segments int, bytes int64)) (*aprof.Trace, *aprof.Profile, error) {
	var buf bytes.Buffer
	rec := aprof.NewStreamRecorder(&buf)
	rec.SetTelemetry(reg)
	if progress != nil {
		rec.SetProgress(progress)
	}
	inline := aprof.NewProfiler(aprof.Options{Telemetry: reg})
	if _, err := aprof.RunWorkload(name, params, rec, inline); err != nil {
		return nil, nil, err
	}
	if err := rec.Close(); err != nil {
		return nil, nil, fmt.Errorf("analyze: encoding %s: %w", name, err)
	}
	tr, err := aprof.DecodeTrace(bytes.NewReader(buf.Bytes()))
	if err != nil {
		return nil, nil, fmt.Errorf("analyze: decoding %s: %w", name, err)
	}
	return tr, inline.Profile(), nil
}

// printProfile renders a profile as a per-routine summary table, heaviest
// routines (by cumulative cost) first.
func printProfile(p *aprof.Profile, top int) {
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
		table = append(table, []string{r.name, fmt.Sprint(r.a.Calls),
			fmt.Sprint(r.a.SumCost), fmt.Sprint(r.a.SumTRMS), fmt.Sprint(r.a.SumRMS)})
	}
	report.Table(os.Stdout, []string{"routine", "calls", "cost(BB)", "trms", "rms"}, table)
}

// check runs the metamorphic invariant suite: each selected workload is
// profiled once under deep invariant checking, then re-derived under
// perturbed don't-care parameters (analysis route, worker count, tie seed,
// renumbering cadence, trace segment size, event batching, scheduler
// timeslice); the derivations must agree and no paper-level invariant may
// fire. Exits non-zero on any disagreement or violation.
func check(args []string) error {
	fs := flag.NewFlagSet("check", flag.ExitOnError)
	workload := fs.String("workload", "", "check a single workload (default: all registered)")
	suite := fs.String("suite", "", "check one workload suite (micro, parsec, mysql, omp2012, seq, ispl)")
	level := fs.String("level", "deep", "invariant check level for the checked runs: cheap or deep")
	renumber := fs.Uint("renumber", 64, "RenumberThreshold of the forced-renumbering variants")
	threads := fs.Int("threads", 0, "worker threads (0: workload default)")
	size := fs.Int("size", 0, "problem size (0: workload default)")
	seed := fs.Int64("seed", 0, "workload seed")
	quick := fs.Bool("quick", false, "trim each perturbation axis to a single value")
	verbose := fs.Bool("v", false, "print every variant, not only failures")
	prof := profflag.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	lv, err := aprof.ParseCheckLevel(*level)
	if err != nil || lv == aprof.CheckOff {
		return fmt.Errorf("check: -level must be cheap or deep")
	}

	var names []string
	switch {
	case *workload != "" && *suite != "":
		return fmt.Errorf("check: -workload and -suite are mutually exclusive")
	case *workload != "":
		names = []string{*workload}
	case *suite != "":
		for _, s := range aprof.WorkloadSuite(*suite) {
			names = append(names, s.Name)
		}
		if len(names) == 0 {
			return fmt.Errorf("check: suite %q has no workloads", *suite)
		}
	default:
		names = aprof.Workloads()
	}

	if err := prof.Start(); err != nil {
		return err
	}
	failed := 0
	for _, name := range names {
		res, err := aprof.RunMetamorph(aprof.MetamorphConfig{
			Workload:          name,
			Params:            aprof.WorkloadParams{Threads: *threads, Size: *size, Seed: *seed},
			Level:             lv,
			RenumberThreshold: uint32(*renumber),
			Quick:             *quick,
		})
		if err != nil {
			return fmt.Errorf("check: %s: %w", name, err)
		}
		if res.OK() {
			if *verbose {
				fmt.Println(res)
			} else {
				fmt.Printf("%-20s ok (%d variants, %d events, %d threads)\n",
					name, len(res.Variants), res.Events, res.Threads)
			}
			continue
		}
		failed++
		fmt.Println(res)
	}
	if err := prof.Stop(); err != nil {
		return err
	}
	if failed > 0 {
		return fmt.Errorf("check: %d of %d workloads failed", failed, len(names))
	}
	fmt.Printf("check: %d workloads ok\n", len(names))
	return nil
}
