// Package aprof is the public API of the input-sensitive profiler: a Go
// reproduction of "Input-Sensitive Profiling" (Coppa, Demetrescu, Finocchi,
// PLDI 2012) and its multithreaded extension introducing the threaded read
// memory size (trms) metric.
//
// Input-sensitive profiling estimates, for every routine activation, the
// size of the input it processed — automatically, from the memory accesses
// the activation performs — and correlates it with the activation's cost, so
// that a single profiling run yields an empirical cost *function* per
// routine instead of a single number. The trms extension attributes input
// arriving from other threads (through shared memory) and from the operating
// system (through kernel-filled buffers) to the routines that consume it.
//
// # Programming model
//
// Programs to be profiled are guest programs: they run on a deterministic
// virtual machine that serializes threads under a fair scheduler, the same
// execution model Valgrind gives the original profiler. A guest program is
// an ordinary Go function operating on virtual memory through a Thread:
//
//	m := aprof.NewMachine(aprof.Config{Tools: []aprof.Tool{profiler}})
//	data := m.Static(64)
//	err := m.Run(func(th *aprof.Thread) {
//	    th.Fn("sum", func() {
//	        total := uint64(0)
//	        for i := 0; i < 64; i++ {
//	            total += th.Load(data + aprof.Addr(i))
//	        }
//	        th.Store(data, total)
//	    })
//	})
//
// Attaching a Profiler yields, per routine and thread, a histogram of
// activations over input sizes with cost statistics; the report and fitting
// helpers turn those into worst-case plots and asymptotic estimates.
//
// # Layout
//
// The facade re-exports the pieces a downstream user needs: the guest
// machine (threads, synchronization, devices), the profiler (trms/rms), the
// comparison tools (nulgrind/memcheck/callgrind/helgrind analogs), trace
// recording and replay, the workload library of the paper's evaluation, and
// the plotting/fitting helpers.
package aprof

import (
	"context"
	"io"

	"repro/internal/core"
	"repro/internal/fit"
	"repro/internal/guest"
	"repro/internal/invariant"
	"repro/internal/ispl"
	"repro/internal/report"
	"repro/internal/telemetry"
	"repro/internal/tools"
	"repro/internal/trace"
	"repro/internal/trace/pipeline"
	"repro/internal/workloads"
)

// Guest machine types.
type (
	// Machine is the deterministic virtual machine guest programs run on.
	Machine = guest.Machine
	// Config parameterizes a Machine (scheduler timeslice, attached tools).
	Config = guest.Config
	// Thread is a guest thread; all guest-visible actions go through it.
	Thread = guest.Thread
	// Addr is a guest virtual memory address (one cell = one word).
	Addr = guest.Addr
	// ThreadID identifies a guest thread (main is 1).
	ThreadID = guest.ThreadID
	// RoutineID is an interned routine name.
	RoutineID = guest.RoutineID
	// SyncID identifies a synchronization object.
	SyncID = guest.SyncID
	// SyncKind classifies sync events (acquire/release).
	SyncKind = guest.SyncKind
	// Tool observes the guest event stream (the Valgrind-tool interface).
	Tool = guest.Tool
	// BaseTool is a no-op Tool for embedding.
	BaseTool = guest.BaseTool
	// Env resolves interned names for tools, online or during replay.
	Env = guest.Env
	// MemEvent is one packed memory access of a batch (address + kind).
	MemEvent = guest.MemEvent
	// Sem, Mutex, Cond, Barrier and Queue are guest synchronization
	// primitives; Device models an external data source/sink.
	Sem     = guest.Sem
	Mutex   = guest.Mutex
	Cond    = guest.Cond
	Barrier = guest.Barrier
	RWLock  = guest.RWLock
	Queue   = guest.Queue
	Device  = guest.Device
)

// Profiler types.
type (
	// Options configures the profiler; the zero value tracks everything.
	Options = core.Options
	// Profiler computes trms/rms input-sensitive profiles (a Tool).
	Profiler = core.Profiler
	// NaiveProfiler is the reference implementation of the metrics, used
	// for validation; it computes identical profiles much more slowly.
	NaiveProfiler = core.Naive
	// Profile is a complete input-sensitive profile.
	Profile = core.Profile
	// RoutineProfile holds one routine's thread-sensitive profiles.
	RoutineProfile = core.RoutineProfile
	// Activations aggregates a routine's activations for one thread.
	Activations = core.Activations
	// Point is one input-size bucket of a routine's cost histogram.
	Point = core.Point
	// ContextTree is a calling context tree (Options.ContextSensitive).
	ContextTree = core.ContextTree
	// ContextNode is one calling context within a ContextTree.
	ContextNode = core.ContextNode
	// LiveSnapshot is a consistent mid-run export of a running profiler's
	// state (Options.OnSnapshot / Profiler.RequestSnapshot).
	LiveSnapshot = core.LiveSnapshot
)

// Invariant-checking types (Options.CheckLevel and internal/invariant).
type (
	// CheckLevel selects how much invariant checking the profiler runs.
	CheckLevel = core.CheckLevel
	// Violation is one detected invariant violation.
	Violation = core.Violation
	// InvariantReport aggregates invariant violations from any source.
	InvariantReport = invariant.Report
	// MetamorphConfig configures one metamorphic differential run.
	MetamorphConfig = invariant.Config
	// MetamorphResult is the outcome of one metamorphic run.
	MetamorphResult = invariant.Result
	// MetamorphVariant is one perturbed re-derivation's outcome.
	MetamorphVariant = invariant.Variant
)

// The profiler's checking levels: none, per-activation (cheap), plus
// renumbering and shadow-memory verification (deep).
const (
	CheckOff   = core.CheckOff
	CheckCheap = core.CheckCheap
	CheckDeep  = core.CheckDeep
)

// ParseCheckLevel parses "off", "cheap" or "deep".
func ParseCheckLevel(s string) (CheckLevel, error) { return core.ParseCheckLevel(s) }

// RunMetamorph executes the metamorphic differential suite for one
// workload: the profile is re-derived under perturbed don't-care
// parameters and all derivations must agree.
func RunMetamorph(cfg MetamorphConfig) (*MetamorphResult, error) { return invariant.Run(cfg) }

// Trace types.
type (
	// TraceRecorder records executions in memory for offline analysis (a
	// Tool): a StreamTraceRecorder whose output is strictly decoded when
	// the run finishes. Like it, it refuses a memory access at or above
	// 2^39, the top of the shadowed address space, and an alloc or free
	// running past it: Err and Close report the error, and Trace returns
	// nil.
	TraceRecorder = trace.Recorder
	// StreamTraceRecorder records straight to an io.Writer in checksummed
	// segments, so a killed run leaves a partially recoverable file (a Tool).
	StreamTraceRecorder = trace.StreamRecorder
	// Trace is a recorded execution.
	Trace = trace.Trace
	// TraceEvent is one trace operation.
	TraceEvent = trace.Event
	// TraceRecoveryReport describes what RecoverTraceFile salvaged from a
	// damaged trace and what it dropped, block by block.
	TraceRecoveryReport = trace.RecoveryReport
	// TraceVerifyReport is the per-block result of a VerifyTraceFile
	// checksum walk.
	TraceVerifyReport = trace.VerifyReport
	// AnalyzeOptions configures the parallel trace-analysis pipeline
	// (workers, tie seed, event limit, telemetry, progress callback).
	AnalyzeOptions = pipeline.Options
	// SnapshotOptions enables live profile snapshots of a running
	// analysis (AnalyzeOptions.Snapshot); see docs/ARCHITECTURE.md
	// "Live snapshots".
	SnapshotOptions = pipeline.SnapshotOptions
	// SnapshotTrigger requests a live profile snapshot from a running
	// analysis, safely from any goroutine (e.g. a signal handler).
	SnapshotTrigger = pipeline.SnapshotTrigger
)

// Observability types.
type (
	// TelemetryRegistry collects the toolkit's runtime metrics. A nil
	// registry is accepted everywhere one is taken and disables
	// collection at near-zero cost.
	TelemetryRegistry = telemetry.Registry
	// TelemetrySnapshot is a point-in-time copy of a registry's metrics.
	TelemetrySnapshot = telemetry.Snapshot
)

// Comparison tools.
type (
	// Nulgrind measures bare event-dispatch overhead.
	Nulgrind = tools.Nulgrind
	// Memcheck detects memory errors over shadow state bits.
	Memcheck = tools.Memcheck
	// Callgrind builds a call graph with inclusive/exclusive costs.
	Callgrind = tools.Callgrind
	// Helgrind detects data races via vector clocks.
	Helgrind = tools.Helgrind
)

// Analysis types.
type (
	// PlotPoint is one (input size, cost) point of a cost plot.
	PlotPoint = fit.Point
	// Fit is a fitted complexity model.
	Fit = fit.Fit
	// PowerLaw is a free-exponent power-law fit.
	PowerLaw = fit.PowerLaw
	// PowerLawCI is a power-law fit with a jackknife confidence interval on
	// the exponent, as the regression diff reports it.
	PowerLawCI = fit.PowerLawCI
	// CumulativePoint is one point of an "x% of routines ≥ y" curve.
	CumulativePoint = report.CumulativePoint
	// WorkloadSpec describes a benchmark from the built-in library.
	WorkloadSpec = workloads.Spec
	// WorkloadParams scales a built-in benchmark.
	WorkloadParams = workloads.Params
)

// DefaultTimeslice is the default scheduler quantum in guest operations.
const DefaultTimeslice = guest.DefaultTimeslice

// NewMachine returns a machine ready to run a guest program.
func NewMachine(cfg Config) *Machine { return guest.NewMachine(cfg) }

// NewProfiler returns a trms/rms profiler with the given options.
func NewProfiler(opts Options) *Profiler { return core.New(opts) }

// NewNaiveProfiler returns the naive reference profiler.
func NewNaiveProfiler(opts Options) *NaiveProfiler { return core.NewNaive(opts) }

// NewRecorder returns a trace recorder.
func NewRecorder() *TraceRecorder { return trace.NewRecorder() }

// NewNulgrind, NewMemcheck, NewCallgrind and NewHelgrind construct the
// comparison tools.
func NewNulgrind() *Nulgrind   { return tools.NewNulgrind() }
func NewMemcheck() *Memcheck   { return tools.NewMemcheck() }
func NewCallgrind() *Callgrind { return tools.NewCallgrind() }
func NewHelgrind() *Helgrind   { return tools.NewHelgrind() }

// ProfileProgram runs body as a guest program under a fresh machine with an
// attached profiler and returns the collected profile.
func ProfileProgram(opts Options, cfg Config, body func(*Thread)) (*Profile, error) {
	p := core.New(opts)
	cfg.Tools = append(cfg.Tools, p)
	m := guest.NewMachine(cfg)
	if err := m.Run(body); err != nil {
		return nil, err
	}
	return p.Profile(), nil
}

// Workloads returns the names of the built-in benchmark workloads.
func Workloads() []string { return workloads.Names() }

// WorkloadSuite returns the specs of one suite ("omp2012", "parsec",
// "mysql", "micro", "seq", "ispl").
func WorkloadSuite(suite string) []WorkloadSpec { return workloads.Suite(suite) }

// GetWorkload looks up a built-in workload by name.
func GetWorkload(name string) (WorkloadSpec, error) { return workloads.Get(name) }

// RunWorkload executes a built-in workload with the given tools attached and
// returns the machine (for cost/footprint queries).
func RunWorkload(name string, p WorkloadParams, tls ...Tool) (*Machine, error) {
	return workloads.RunByName(name, p, tls...)
}

// ProfileWorkload runs a built-in workload under a profiler.
func ProfileWorkload(name string, p WorkloadParams, opts Options) (*Profile, error) {
	prof := core.New(opts)
	if _, err := workloads.RunByName(name, p, prof); err != nil {
		return nil, err
	}
	return prof.Profile(), nil
}

// Replay drives tools through a recorded trace (after merging it with the
// given tie-breaking seed), producing the same results as online profiling.
func Replay(tr *Trace, tieSeed int64, tls ...Tool) error {
	return trace.Replay(tr, tieSeed, tls...)
}

// ProfileTrace computes a recorded execution's input-sensitive profile by
// sequential replay: the trace is merged with the tie-breaking seed and
// driven through an inline profiler. Online and replayed profiles are
// identical.
func ProfileTrace(tr *Trace, tieSeed int64, opts Options) (*Profile, error) {
	return core.FromTrace(tr, tieSeed, opts)
}

// AnalyzeTraceOptions computes the same profile with the parallel analysis
// pipeline: the trace's stamp annotations (computed by one sequential pass
// when the trace was recorded without them) shard it at thread-switch
// boundaries, per-thread analyzers run on up to opts.Workers goroutines (0
// selects GOMAXPROCS), and the partial profiles are merged
// deterministically. The result is byte-identical (Profile.Export) to
// ProfileTrace's for every worker count. The analysis stops promptly when
// ctx is canceled; opts also carries the max-events guard, a telemetry
// registry (the pipeline publishes pipeline/* metrics into it), a progress
// callback and live snapshots.
func AnalyzeTraceOptions(ctx context.Context, tr *Trace, opts AnalyzeOptions) (*Profile, error) {
	return pipeline.AnalyzeContext(ctx, tr, opts)
}

// NewTelemetryRegistry returns an empty metrics registry. A zero
// TelemetryRegistry has no maps to hold metrics, so this is how a caller
// builds the registry AnalyzeOptions.Telemetry takes.
func NewTelemetryRegistry() *TelemetryRegistry { return telemetry.NewRegistry() }

// NewSnapshotTrigger returns a trigger for on-demand live profile
// snapshots (SnapshotOptions.Trigger).
func NewSnapshotTrigger() *SnapshotTrigger { return pipeline.NewSnapshotTrigger() }

// DecodeTrace reads a binary trace (the segmented, checksummed v3 format
// a StreamTraceRecorder writes; see docs/TRACE_FORMAT.md), strictly: every
// checksum must verify and the footer must be present. Use
// RecoverTraceFile for damaged files.
func DecodeTrace(r io.Reader) (*Trace, error) { return trace.Decode(r) }

// ReadTraceFile strictly decodes the trace stored at path.
func ReadTraceFile(path string) (*Trace, error) { return trace.ReadFile(path) }

// RecoverTraceFile salvages what it can from the trace stored at path.
func RecoverTraceFile(path string) (*Trace, *TraceRecoveryReport, error) {
	return trace.RecoverFile(path)
}

// VerifyTraceFile runs a checksum walk over the trace stored at path.
func VerifyTraceFile(path string) (*TraceVerifyReport, error) { return trace.VerifyFile(path) }

// NewStreamRecorder returns a recorder that streams checksummed segments to w
// as the run progresses, bounding data loss on a crash to the unflushed
// segment tails. Close (or the machine's end-of-run Finish) completes the
// file with a footer.
func NewStreamRecorder(w io.Writer) *StreamTraceRecorder { return trace.NewStreamRecorder(w) }

// WorstCasePlot extracts a routine's worst-case running time plot from its
// input-size histogram (Activations.ByTRMS or ByRMS).
func WorstCasePlot(hist map[uint64]*Point) []PlotPoint { return report.WorstCase(hist) }

// BestFit selects the complexity model that best explains a cost plot.
func BestFit(pts []PlotPoint) (Fit, error) { return fit.Best(pts) }

// FitPowerLaw fits cost = c * n^k by log-log regression.
func FitPowerLaw(pts []PlotPoint) (PowerLaw, error) { return fit.FitPowerLaw(pts) }

// FitPowerLawCI fits a power law and estimates a jackknife standard error
// on the exponent (the regression diff's exponent intervals).
func FitPowerLawCI(pts []PlotPoint) (PowerLawCI, error) { return fit.FitPowerLawCI(pts) }

// Richness computes the routine profile richness metric (the relative gain
// in distinct input-size values of trms over rms).
func Richness(rp *RoutineProfile) float64 { return report.Richness(rp) }

// InputVolume computes 1 - sum(rms)/sum(trms) over the given activations.
func InputVolume(a *Activations) float64 { return report.InputVolume(a) }

// InducedSplit returns the execution-global percentages of thread-induced
// and external induced first-accesses.
func InducedSplit(p *Profile) (threadPct, externalPct float64) { return report.InducedSplit(p) }

// ISPL types: the Input-Sensitive Profiling Language, a small concurrent
// language compiled to bytecode and executed on the guest machine, so whole
// programs can be profiled the way Valgrind profiles binaries.
type (
	// ISPLProgram is a compiled ISPL program.
	ISPLProgram = ispl.Program
	// ISPLOutput collects an ISPL program's print() values.
	ISPLOutput = ispl.Output
)

// CompileISPL compiles ISPL source to a program ready to Run or Build.
func CompileISPL(src string) (*ISPLProgram, error) { return ispl.Compile(src) }

// RunISPL compiles and runs ISPL source on a fresh machine with the tools.
func RunISPL(src string, cfg Config, tls ...Tool) (*ISPLOutput, *Machine, error) {
	return ispl.RunSource(src, cfg, tls...)
}

// WriteProfileJSON serializes a profile as JSON; ReadProfileJSON restores it.
func WriteProfileJSON(p *Profile, w io.Writer) error { return p.WriteJSON(w) }

// ReadProfileJSON reads a profile written by WriteProfileJSON.
func ReadProfileJSON(r io.Reader) (*Profile, error) { return core.ReadJSON(r) }
