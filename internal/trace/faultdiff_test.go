package trace_test

// Fault-injection differential tests: for every registered workload, the
// profile computed from a crash-truncated-and-recovered trace must equal the
// inline profiler's result on the same event prefix, and randomly bit-flipped
// traces must recover and analyze without ever panicking.

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/faultinject"
	"repro/internal/trace"
	"repro/internal/trace/pipeline"
	"repro/internal/workloads"
)

// prefixTrace rebuilds the event prefix that a recovery report claims was
// salvaged, using the pristine recording as the source of truth.
func prefixTrace(t *testing.T, orig *trace.Trace, rep *trace.RecoveryReport) *trace.Trace {
	t.Helper()
	events := threadEvents(orig)
	out := &trace.Trace{Routines: orig.Routines, Syncs: orig.Syncs}
	for _, th := range rep.PerThread {
		ref := events[int32(th.ID)]
		if th.Events > len(ref) {
			t.Fatalf("report claims %d events for thread %d, recording has %d", th.Events, th.ID, len(ref))
		}
		out.Threads = append(out.Threads, trace.ThreadTrace{ID: th.ID, Events: ref[:th.Events]})
	}
	return out
}

func TestFaultInjectionDifferential(t *testing.T) {
	const tieSeed = 17
	for i, name := range workloads.Names() {
		name := name
		rng := rand.New(rand.NewSource(int64(i) + 1))
		t.Run(name, func(t *testing.T) {
			var buf bytes.Buffer
			rec, sr := trace.NewRecorder(), trace.NewStreamRecorder(&buf)
			sr.SetAnnotations(false)
			if _, err := workloads.RunByName(name, workloads.Params{Size: 12, Threads: 3, Seed: 7}, rec, sr); err != nil {
				t.Fatal(err)
			}
			if err := sr.Close(); err != nil {
				t.Fatal(err)
			}
			orig, data := rec.Trace(), buf.Bytes()

			// Truncation: the salvaged prefix must profile identically to the
			// inline profiler on the same prefix.
			for trial := 0; trial < 4; trial++ {
				off := 9 + rng.Intn(len(data)-9+1)
				rtr, rep, err := trace.Recover(bytes.NewReader(data[:off]))
				if err != nil {
					t.Fatalf("offset %d: Recover: %v", off, err)
				}
				want, err := core.FromTrace(prefixTrace(t, orig, rep), tieSeed, core.Options{})
				if err != nil {
					t.Fatalf("offset %d: inline profile of the prefix: %v", off, err)
				}
				got, err := pipeline.Analyze(rtr, pipeline.Options{TieSeed: tieSeed})
				if err != nil {
					t.Fatalf("offset %d: pipeline on recovered trace: %v", off, err)
				}
				if !got.Equal(want) {
					t.Fatalf("offset %d: recovered-trace profile differs from inline prefix profile:\n%v",
						off, got.Diff(want))
				}
			}

			// Bit flips: recovery and analysis must stay panic-free and
			// self-consistent, whatever was salvaged.
			for trial := 0; trial < 3; trial++ {
				mut := faultinject.FlipBits(data, rng.Int63(), 1+trial, 9)
				rtr, rep, err := trace.Recover(bytes.NewReader(mut))
				if err != nil {
					t.Fatalf("bit-flip trial %d: Recover: %v", trial, err)
				}
				if rep == nil {
					t.Fatalf("bit-flip trial %d: nil report", trial)
				}
				got, err := pipeline.Analyze(rtr, pipeline.Options{TieSeed: tieSeed})
				if err != nil {
					t.Fatalf("bit-flip trial %d: pipeline on recovered trace: %v", trial, err)
				}
				want, err := core.FromTrace(rtr, tieSeed, core.Options{})
				if err != nil {
					t.Fatalf("bit-flip trial %d: inline profiler on recovered trace: %v", trial, err)
				}
				if !got.Equal(want) {
					t.Fatalf("bit-flip trial %d: pipeline and inline profiles diverge on the salvaged trace:\n%v",
						trial, got.Diff(want))
				}
			}
		})
	}
}
