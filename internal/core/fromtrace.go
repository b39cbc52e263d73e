package core

import (
	"repro/internal/trace"
)

// FromTrace computes the input-sensitive profile of a recorded execution by
// sequential replay: trace.Replay drives a fresh Profiler through the
// trace's merged order for the given tie-breaking seed exactly as a live
// machine would, so the result is identical to profiling the run inline.
// It is the reference analysis path the parallel pipeline
// (internal/trace/pipeline) is validated against.
func FromTrace(tr *trace.Trace, tieSeed int64, opts Options) (*Profile, error) {
	p := New(opts)
	if err := trace.Replay(tr, tieSeed, p); err != nil {
		return nil, err
	}
	return p.Profile(), nil
}
