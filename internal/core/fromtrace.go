package core

import (
	"repro/internal/trace"
)

// FromTrace computes the input-sensitive profile of a recorded execution by
// sequential replay: the trace is merged with the given tie-breaking seed
// and fed run by run through an Incremental, which drives a fresh Profiler
// exactly as a live machine would, so the result is identical to profiling
// the run inline. It is the reference analysis path the parallel pipeline
// (internal/trace/pipeline) is validated against.
func FromTrace(tr *trace.Trace, tieSeed int64, opts Options) (*Profile, error) {
	in := NewIncremental(opts)
	if err := in.FeedTrace(tr, tieSeed); err != nil {
		return nil, err
	}
	in.Finish()
	return in.prof.Profile(), nil
}
