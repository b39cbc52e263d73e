// Package invariant is the profiler's correctness net: static checkers
// that validate paper-level properties of traces, profiles and telemetry
// after the fact, and (in metamorph.go) a metamorphic differential runner
// that re-analyzes one workload under perturbed don't-care parameters and
// requires the results to agree.
//
// The invariants checked here are stated directly in Coppa, Demetrescu,
// Finocchi (PLDI 2012) and its multithreaded extension:
//
//   - Definition 1 makes the read memory size (rms) the cardinality of a
//     set, so it is never negative; the threaded rms extends it with
//     induced first-accesses only, so trms >= rms and the excess is
//     bounded by the induced accesses actually recorded.
//   - The timestamping algorithm (Fig. 11) relies on event timestamps
//     increasing monotonically along each thread's trace.
//   - Counter-overflow renumbering (Fig. 13) must preserve every order
//     relation the algorithm consults — checked live by the profiler under
//     core.CheckDeep; this package's metamorphic runner additionally
//     proves a tiny RenumberThreshold leaves profiles byte-identical.
//   - Conservation: every event the guest machine emits must be consumed
//     by the profiler, cross-checked through the telemetry counters both
//     layers already publish.
//
// The checkers deliver core.Violation values, the same currency the inline
// profiler's CheckLevel machinery uses, so callers aggregate both sources
// into one Report.
package invariant

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/guest"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Report aggregates invariant violations from any mix of sources: the
// static checkers below, a Profiler's CheckLevel machinery (wire
// Report.Add as core.Options.OnViolation), and the metamorphic runner.
type Report struct {
	// Violations lists what was found, in detection order.
	Violations []core.Violation
}

// Add appends one violation; it has the signature of
// core.Options.OnViolation so a Report can collect a profiler's live
// check results directly.
func (r *Report) Add(v core.Violation) { r.Violations = append(r.Violations, v) }

// addf formats and appends one violation.
func (r *Report) addf(check string, t guest.ThreadID, routine, format string, args ...any) {
	r.Add(core.Violation{Check: check, Thread: t, Routine: routine, Detail: fmt.Sprintf(format, args...)})
}

// OK reports whether no violation was recorded.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

// Merge appends another report's violations.
func (r *Report) Merge(o *Report) { r.Violations = append(r.Violations, o.Violations...) }

// String renders the violations one per line ("no violations" when clean).
func (r *Report) String() string {
	if r.OK() {
		return "no violations"
	}
	var sb strings.Builder
	for i, v := range r.Violations {
		if i > 0 {
			sb.WriteByte('\n')
		}
		sb.WriteString(v.String())
	}
	return sb.String()
}

// CheckTrace validates the structural invariants every well-formed trace
// satisfies: per-thread timestamps strictly increase (the merge order and
// the Fig. 11 algorithm both depend on it), and returns match pending
// calls. Pending activations at the end of a thread trace are legal — a
// crash-truncated, recovered trace ends mid-call chain.
func CheckTrace(tr *trace.Trace) *Report {
	rep := &Report{}
	for i := range tr.Threads {
		tt := &tr.Threads[i]
		var lastTS uint64
		var stack []guest.RoutineID
		for j := range tt.Events {
			e := &tt.Events[j]
			if j > 0 && e.TS <= lastTS {
				rep.addf("trace/ts-monotone", tt.ID, "",
					"event %d timestamp %d not above predecessor's %d", j, e.TS, lastTS)
			}
			lastTS = e.TS
			switch e.Kind {
			case trace.KindCall:
				stack = append(stack, guest.RoutineID(e.Arg))
			case trace.KindReturn:
				if len(stack) == 0 {
					rep.addf("trace/unbalanced-return", tt.ID, tr.RoutineName(guest.RoutineID(e.Arg)),
						"event %d returns with no pending activation", j)
					continue
				}
				top := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				if top != guest.RoutineID(e.Arg) {
					rep.addf("trace/return-mismatch", tt.ID, tr.RoutineName(top),
						"event %d returns from %s but %s is on top", j,
						tr.RoutineName(guest.RoutineID(e.Arg)), tr.RoutineName(top))
				}
			case trace.KindThreadExit:
				stack = stack[:0]
			}
		}
	}
	return rep
}

// CheckProfile validates a materialized profile's well-formedness: for
// every routine and thread, trms >= rms with the excess covered by
// recorded induced input (Definition 1 plus the induced-first-access
// extension), and the input-size histograms internally consistent with
// the aggregate totals they were built from.
func CheckProfile(p *core.Profile) *Report {
	rep := &Report{}
	var routineInducedThread, routineInducedExternal uint64
	for _, name := range p.RoutineNames() {
		rp := p.Routines[name]
		for _, tid := range rp.ThreadIDs() {
			a := rp.PerThread[tid]
			checkActivations(rep, name, tid, a)
			routineInducedThread += a.InducedThread
			routineInducedExternal += a.InducedExternal
		}
	}
	// Per-routine induced counts are subsets (with multiplicity up the
	// call chain) of the execution-global induced events, so any nonzero
	// per-routine tally needs a nonzero global one.
	if p.InducedThread == 0 && routineInducedThread > 0 {
		rep.addf("profile/induced-global", 0, "",
			"routines record %d thread-induced accesses but the global count is 0", routineInducedThread)
	}
	if p.InducedExternal == 0 && routineInducedExternal > 0 {
		rep.addf("profile/induced-global", 0, "",
			"routines record %d external accesses but the global count is 0", routineInducedExternal)
	}
	return rep
}

// checkActivations validates one (routine, thread) aggregate.
func checkActivations(rep *Report, name string, tid guest.ThreadID, a *core.Activations) {
	if a.SumTRMS < a.SumRMS {
		rep.addf("profile/trms-ge-rms", tid, name,
			"sum trms %d < sum rms %d", a.SumTRMS, a.SumRMS)
	}
	if a.SumTRMS > a.SumRMS+a.InducedThread+a.InducedExternal {
		rep.addf("profile/trms-bound", tid, name,
			"sum trms %d exceeds sum rms %d + induced %d+%d",
			a.SumTRMS, a.SumRMS, a.InducedThread, a.InducedExternal)
	}
	checkHistogram(rep, name, tid, "trms", a.ByTRMS, a.Calls, a.SumTRMS, a.SumCost)
	checkHistogram(rep, name, tid, "rms", a.ByRMS, a.Calls, a.SumRMS, a.SumCost)
}

// checkHistogram validates one input-size histogram against the aggregate's
// totals: bucket calls sum to the activation count, N-weighted calls sum
// to the metric total, bucket costs sum to the cost total, and each bucket
// is internally consistent (calls > 0, min <= max, cost between the
// bounds implied by its extremes).
func checkHistogram(rep *Report, name string, tid guest.ThreadID, metric string, h map[uint64]*core.Point, calls, sumMetric, sumCost uint64) {
	var gotCalls, gotMetric, gotCost uint64
	ns := make([]uint64, 0, len(h))
	for n := range h {
		ns = append(ns, n)
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	for _, n := range ns {
		pt := h[n]
		gotCalls += pt.Calls
		gotMetric += n * pt.Calls
		gotCost += pt.SumCost
		if pt.Calls == 0 {
			rep.addf("profile/histogram", tid, name, "%s bucket %d holds zero calls", metric, n)
			continue
		}
		if pt.MinCost > pt.MaxCost || pt.SumCost < pt.Calls*pt.MinCost || pt.SumCost > pt.Calls*pt.MaxCost {
			rep.addf("profile/histogram", tid, name,
				"%s bucket %d cost bounds inconsistent: calls=%d min=%d max=%d sum=%d",
				metric, n, pt.Calls, pt.MinCost, pt.MaxCost, pt.SumCost)
		}
	}
	if gotCalls != calls {
		rep.addf("profile/histogram", tid, name,
			"%s buckets hold %d calls, aggregate says %d", metric, gotCalls, calls)
	}
	if gotMetric != sumMetric {
		rep.addf("profile/histogram", tid, name,
			"%s buckets sum to %d, aggregate says %d", metric, gotMetric, sumMetric)
	}
	if gotCost != sumCost {
		rep.addf("profile/histogram", tid, name,
			"%s bucket costs sum to %d, aggregate says %d", metric, gotCost, sumCost)
	}
}

// CheckConservation cross-checks the guest machine's published event
// tallies against the profiler's consumed-event counter: every event the
// machine dispatches to its tools must reach the profiler. The registry
// must hold the telemetry of exactly one machine run observed by exactly
// one inline profiler (the layout workloads.Run with a core.Profiler tool
// produces). The expected identity counts the profiler-visible events:
// memory events (including kernel I/O), thread switches, calls, returns,
// and two lifecycle events per started thread; Sync/Alloc/Free events are
// dispatched but deliberately not consumed (no-op hooks).
func CheckConservation(reg *telemetry.Registry) *Report {
	rep := &Report{}
	if reg == nil {
		return rep
	}
	consumed := reg.Counter("core/events_consumed").Load()
	mem := reg.Counter("guest/mem_events").Load()
	switches := reg.Counter("guest/thread_switches").Load()
	calls := reg.Counter("guest/calls").Load()
	returns := reg.Counter("guest/returns").Load()
	started := reg.Counter("guest/threads_started").Load()
	expected := mem + switches + calls + returns + 2*started
	if consumed != expected {
		rep.addf("conservation/events", 0, "",
			"profiler consumed %d events, guest emitted %d (mem %d + switches %d + calls %d + returns %d + 2*threads %d); %d lost",
			consumed, expected, mem, switches, calls, returns, started, int64(expected)-int64(consumed))
	}
	return rep
}
