package core

import (
	"bytes"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/workloads"
)

// These tests enforce the adaptive-instrumentation obligations. The burst
// tier must keep Calls and SumCost
// exact for every (routine, thread) aggregate — observing less cannot change
// what the guest executes — and must mark every unmeasured activation in
// SampledOut, so the bounded-error reporting downstream never lies about
// which counts are trustworthy.

func TestSamplingTierParse(t *testing.T) {
	for _, tier := range []SamplingTier{SamplingOff, SamplingBurst} {
		got, err := ParseSamplingTier(tier.String())
		if err != nil || got != tier {
			t.Errorf("ParseSamplingTier(%q) = %v, %v", tier.String(), got, err)
		}
	}
	if got, err := ParseSamplingTier(""); err != nil || got != SamplingOff {
		t.Errorf("ParseSamplingTier(\"\") = %v, %v; want off", got, err)
	}
	for _, bad := range []string{"bogus", "suppress"} {
		if _, err := ParseSamplingTier(bad); err == nil {
			t.Errorf("ParseSamplingTier(%q) did not fail", bad)
		}
	}
}

// TestBurstKeepsCallsAndCost: under burst sampling of the mysqld model,
// every (routine, thread) aggregate keeps Calls and SumCost exactly equal to
// the exact profiler's, the hot routines are marked sampled, and each
// histogram's bucket calls sum to the measured-call count.
func TestBurstKeepsCallsAndCost(t *testing.T) {
	_, exact := runWorkloadExport(t, "mysqld", false, Options{})
	_, burst := runWorkloadExport(t, "mysqld", false, Options{Sampling: SamplingBurst})
	ep, bp := exact.Profile(), burst.Profile()

	var sampledRoutines int
	for _, name := range ep.RoutineNames() {
		erp, brp := ep.Routine(name), bp.Routine(name)
		if brp == nil {
			t.Fatalf("%s: missing from burst profile", name)
		}
		if brp.Sampled() {
			sampledRoutines++
		}
		for tid, ea := range erp.PerThread {
			ba := brp.PerThread[tid]
			if ba == nil {
				t.Fatalf("%s t%d: missing from burst profile", name, tid)
			}
			if ba.Calls != ea.Calls || ba.SumCost != ea.SumCost {
				t.Errorf("%s t%d: calls/cost drifted: %d/%d vs exact %d/%d",
					name, tid, ba.Calls, ba.SumCost, ea.Calls, ea.SumCost)
			}
			if ba.SumTRMS > ea.SumTRMS {
				t.Errorf("%s t%d: burst SumTRMS %d exceeds exact %d (measured subset cannot overcount the total)",
					name, tid, ba.SumTRMS, ea.SumTRMS)
			}
			var bucketCalls uint64
			for _, pt := range ba.ByTRMS {
				bucketCalls += pt.Calls
			}
			if bucketCalls != ba.MeasuredCalls() {
				t.Errorf("%s t%d: trms buckets sum to %d calls, want measured %d",
					name, tid, bucketCalls, ba.MeasuredCalls())
			}
			if ea.SampledOut != 0 {
				t.Errorf("%s t%d: exact profile has SampledOut = %d", name, tid, ea.SampledOut)
			}
		}
	}
	if sampledRoutines == 0 {
		t.Error("burst sampling never engaged on mysqld (no routine marked sampled)")
	}
	// The hot loop must be sampled, and every sampled routine must be
	// honestly marked. (Whether any mysqld routine stays entirely clean
	// depends on phase alignment of the skip windows with the nesting
	// structure; the cold-routine guarantee is asserted for real in
	// TestBurstColdWorkloadIdentical, where no threshold is ever crossed.)
	if hot := bp.Routine("buf_pool_fetch"); hot == nil || !hot.Sampled() {
		t.Error("buf_pool_fetch (the hot loop) is not marked sampled")
	}
}

// TestBurstColdWorkloadIdentical: a workload whose routines never reach
// SamplingHotThreshold activations is byte-identical under burst sampling —
// the schedule's warm-up keeps rare routines exact by construction.
func TestBurstColdWorkloadIdentical(t *testing.T) {
	want, _ := runWorkloadExport(t, "dedup", false, Options{})
	got, p := runWorkloadExport(t, "dedup", false, Options{Sampling: SamplingBurst})
	if !bytes.Equal(want, got) {
		t.Error("burst profile differs from exact on a workload with no hot routines")
	}
	if p.sstats.sampledOut != 0 {
		t.Errorf("sampled out %d activations on a cold workload", p.sstats.sampledOut)
	}
}

// TestSamplingDumpRoundTrip: sampled-out counts survive the canonical JSON
// dump, and exact profiles' exports carry no sampling fields at all (the
// omitempty contract that keeps pre-sampling exports byte-stable).
func TestSamplingDumpRoundTrip(t *testing.T) {
	got, p := runWorkloadExport(t, "mysqld", false, Options{Sampling: SamplingBurst})
	if !bytes.Contains(got, []byte("sampled_out")) {
		t.Fatal("burst export carries no sampled_out field")
	}
	restored, err := ReadJSON(bytes.NewReader(got))
	if err != nil {
		t.Fatal(err)
	}
	if diffs := restored.Diff(p.Profile()); len(diffs) > 0 {
		t.Fatalf("dump round-trip changed the profile:\n%s", joinLines(diffs, 12))
	}
	exact, _ := runWorkloadExport(t, "mysqld", false, Options{})
	if bytes.Contains(exact, []byte("sampled_out")) {
		t.Error("exact export leaks sampled_out fields")
	}
}

// TestSamplingTelemetry: the sampling counters reach an attached registry —
// skipped events and sampled-out activations plus a nonzero sampled-routine
// tier under burst — and a nil registry is safe (the nil-safety obligation
// for Options.Sampling without telemetry).
func TestSamplingTelemetry(t *testing.T) {
	reg := telemetry.NewRegistry()
	p := New(Options{Sampling: SamplingBurst, Telemetry: reg})
	if _, err := workloads.RunByName("mysqld", workloads.Params{}, p); err != nil {
		t.Fatal(err)
	}
	for _, c := range []string{"core/sampling_skipped_events", "core/sampling_burst_windows", "core/sampling_sampled_out"} {
		if n := reg.Counter(c).Load(); n == 0 {
			t.Errorf("burst tier left %s at zero on mysqld", c)
		}
	}
	if n := reg.Gauge("core/sampling_routines_sampled").Load(); n == 0 {
		t.Error("burst tier reported no sampled routines on mysqld")
	}
	if n := reg.Gauge("core/sampling_routines_exact").Load(); n == 0 {
		t.Error("burst tier reported no exact routines on mysqld")
	}

	// Nil registry: the whole run, including publication at Finish, must be
	// a no-op rather than a panic.
	p = New(Options{Sampling: SamplingBurst})
	if _, err := workloads.RunByName("mysqld", workloads.Params{}, p); err != nil {
		t.Fatal(err)
	}
	p.publishSampling(nil)
}

// TestSamplingRMSOnlyForcedOff: RMSOnly is the exact Table-1 baseline;
// Options.Sampling is documented to be ignored there.
func TestSamplingRMSOnlyForcedOff(t *testing.T) {
	p := New(Options{RMSOnly: true, Sampling: SamplingBurst})
	if p.sampling != SamplingOff {
		t.Errorf("sampling = %v under RMSOnly, want off", p.sampling)
	}
}
