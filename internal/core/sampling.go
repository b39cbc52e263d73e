// Adaptive instrumentation: the Options.Sampling tiers. The exact profiler
// pays a shadow-memory probe for every memory access. The burst tier trades
// accuracy for speed: once a routine has been observed SamplingHotThreshold
// times, most of its later activations run with shadow instrumentation
// disabled entirely, with periodic full-instrumentation bursts keeping the
// cost curves populated. Sampled-out activations are still counted (Calls
// and SumCost stay exact; observers cannot change what the guest executes)
// but contribute no metric or histogram data, and the profile records them
// per (routine, thread) in Activations.SampledOut so reports can mark
// sampled routines and bound the error instead of trusting the counts.
package core

import (
	"fmt"

	"repro/internal/guest"
	"repro/internal/shadow"
	"repro/internal/telemetry"
)

// SamplingTier selects the adaptive-instrumentation tier (Options.Sampling).
type SamplingTier uint8

// The sampling tiers. SamplingOff (the zero value) runs the exact profiler.
// SamplingBurst samples hot routines: after a routine's first
// SamplingHotThreshold activations (which always run fully instrumented),
// only SamplingBurstLen out of every SamplingInterval activations are
// measured; the rest execute with no shadow updates at all and are recorded
// as sampled-out. Kernel writes stay exact in every tier — external-input
// provenance is global state other threads' measurements depend on.
const (
	SamplingOff SamplingTier = iota
	SamplingBurst
)

// String returns the tier's flag spelling: off or burst.
func (s SamplingTier) String() string {
	switch s {
	case SamplingOff:
		return "off"
	case SamplingBurst:
		return "burst"
	}
	return fmt.Sprintf("SamplingTier(%d)", uint8(s))
}

// ParseSamplingTier parses the flag spellings accepted by String.
func ParseSamplingTier(s string) (SamplingTier, error) {
	switch s {
	case "off", "":
		return SamplingOff, nil
	case "burst":
		return SamplingBurst, nil
	}
	return SamplingOff, fmt.Errorf("unknown sampling tier %q (want off or burst)", s)
}

// Burst-sampling schedule. A routine's first SamplingHotThreshold activations
// are always fully measured: rare routines stay exact, and every routine
// seeds its cost curves with exact points before sampling starts. Past the
// threshold the schedule cycles: the first SamplingBurstLen activations of
// each SamplingInterval-long window are measured (a burst), the remaining
// ones are sampled out. The threshold sits far below the activation counts
// of the hot loops (mysqld's buf_pool_fetch runs ~1.7k activations at the
// default size; the OMP2012 kernels' inner routines run hundreds) but above
// the whole-run call counts of the small PARSEC models (dedup peaks at one
// call per routine), so at default workload sizes only genuinely hot
// routines are ever sampled.
const (
	// SamplingHotThreshold is the per-routine activation count after which
	// burst sampling engages.
	SamplingHotThreshold = 12
	// SamplingInterval is the length of one sampling window, in activations
	// of the hot routine.
	SamplingInterval = 32
	// SamplingBurstLen is how many activations at the start of each window
	// are fully measured.
	SamplingBurstLen = 2
)

// samplingStats tallies the sampling tier's work in plain fields on the hot
// path (no atomics, no registry traffic); publishSampling pushes them to the
// telemetry registry once, at Finish.
type samplingStats struct {
	skippedEvents uint64 // memory events dropped inside sampled-out subtrees
	burstWindows  uint64 // full-instrumentation bursts started on hot routines
	sampledOut    uint64 // activations recorded without measurement
}

// burstCall advances routine r's activation count and decides whether the
// activation just pushed starts a sampled-out subtree. Counting is exact even
// inside a subtree that is already sampled out — Calls must match the exact
// profiler — but a new skip window only starts at top level: nested
// activations inherit the enclosing skip.
func (p *Profiler) burstCall(tv *threadView, r guest.RoutineID) {
	ri := int(r)
	for len(p.rtnCalls) <= ri {
		p.rtnCalls = append(p.rtnCalls, 0)
	}
	c := p.rtnCalls[ri]
	p.rtnCalls[ri] = c + 1
	if tv.skipRoot != 0 || c < SamplingHotThreshold {
		return
	}
	phase := (c - SamplingHotThreshold) % SamplingInterval
	if phase == 0 {
		p.sstats.burstWindows++
	}
	if phase >= SamplingBurstLen {
		// Sample this activation out: the whole subtree runs without
		// shadow updates until the matching return pops this frame.
		tv.skipRoot = int32(len(tv.stack))
	}
}

// memBatchSkip consumes a batch inside a sampled-out subtree: every thread
// read and write is dropped — no shadow probe, no stamp — while kernel
// writes stay exact (counter bump plus global stamp with kernel provenance),
// because external-input provenance is global state that other threads'
// measured reads consult. Dropped thread writes are the burst tier's
// documented drift source: a later measured reader on another thread may
// miss a thread-induced first-access the exact profiler would count.
//
// A branch-free OR over the batch decides whether any kernel-mediated event
// is present at all; compute-bound workloads (the Table-1 suite) have none,
// so their skipped batches cost one pass of pure loads and a counter add.
func (p *Profiler) memBatchSkip(events []guest.MemEvent) {
	var or guest.MemEvent
	for _, e := range events {
		or |= e
	}
	if !or.IsKernel() {
		p.sstats.skippedEvents += uint64(len(events))
		return
	}
	var skipped uint64
	for _, e := range events {
		if e.IsWrite() && e.IsKernel() {
			a := e.Addr()
			ts := p.bump()
			p.gcur.Chunk(a)[a&(shadow.ChunkSize-1)] = uint64(ts)<<32 | uint64(kernelWriter)
			continue
		}
		skipped++
	}
	p.sstats.skippedEvents += skipped
}

// publishSampling pushes the sampling tallies into the telemetry registry.
// Nil-receiver safe end to end: a nil registry is a no-op (Options.Sampling
// must work without telemetry attached), and the Counter/Gauge handles are
// themselves nil-safe.
func (p *Profiler) publishSampling(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	reg.Counter("core/sampling_skipped_events").Add(p.sstats.skippedEvents)
	reg.Counter("core/sampling_burst_windows").Add(p.sstats.burstWindows)
	reg.Counter("core/sampling_sampled_out").Add(p.sstats.sampledOut)
	exact, sampled := p.routineTiers()
	reg.Gauge("core/sampling_routines_exact").SetMax(exact)
	reg.Gauge("core/sampling_routines_sampled").SetMax(sampled)
}

// routineTiers counts, across live and retired thread views, how many
// distinct routines stayed fully measured and how many had at least one
// activation sampled out — the per-tier routine counts of the telemetry
// snapshot and the honesty marker behind Sampled().
func (p *Profiler) routineTiers() (exact, sampled int64) {
	var seen, samp []bool
	mark := func(tv *threadView) {
		for rtn, a := range tv.acts {
			if a == nil {
				continue
			}
			for len(seen) <= rtn {
				seen = append(seen, false)
				samp = append(samp, false)
			}
			seen[rtn] = true
			if a.SampledOut != 0 {
				samp[rtn] = true
			}
		}
	}
	for _, tv := range p.retired {
		mark(tv)
	}
	for _, tv := range p.threads {
		mark(tv)
	}
	for i, s := range seen {
		if !s {
			continue
		}
		if samp[i] {
			sampled++
		} else {
			exact++
		}
	}
	return exact, sampled
}
