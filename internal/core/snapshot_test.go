package core_test

import (
	"bytes"
	"testing"

	"repro/aprof"
	"repro/internal/core"
	"repro/internal/guest"
)

// runDedup drives the dedup workload under an inline profiler built from
// opts and returns the final profile export. request, when non-nil,
// receives the profiler before the run starts.
func runDedup(t *testing.T, opts core.Options, request func(*core.Profiler)) []byte {
	t.Helper()
	prof := core.New(opts)
	if request != nil {
		request(prof)
	}
	if _, err := aprof.RunWorkload("dedup", aprof.WorkloadParams{Threads: 3, Size: 12, Seed: 7}, prof); err != nil {
		t.Fatal(err)
	}
	prof.Finish()
	out, err := prof.Profile().Export()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestLiveSnapshotRequest: RequestSnapshot triggers exactly one snapshot at
// the next batch boundary.
func TestLiveSnapshotRequest(t *testing.T) {
	var snaps []*core.LiveSnapshot
	prof := core.New(core.Options{
		OnSnapshot: func(ls *core.LiveSnapshot) { snaps = append(snaps, ls) },
	})
	prof.ThreadStart(1, 0)
	prof.Call(1, 0, 0)
	prof.MemBatch(1, 0, []guest.MemEvent{guest.WriteEvent(64)})
	prof.RequestSnapshot()
	prof.SwitchThread(1, 1) // batch boundary: the request is honored here
	if len(snaps) != 1 {
		t.Fatalf("got %d snapshots after request, want 1", len(snaps))
	}
	prof.SwitchThread(1, 1)
	if len(snaps) != 1 {
		t.Fatalf("spurious snapshot without a request: %d", len(snaps))
	}
	if snaps[0].LiveThreads != 1 {
		t.Fatalf("snapshot reports %d live threads, want 1", snaps[0].LiveThreads)
	}
}

// TestLiveSnapshotsDoNotPerturb: a run that takes a snapshot at every batch
// boundary delivers partial snapshots with non-decreasing event tallies
// whose profiles restore, and its final profile is byte-identical to a
// snapshot-free run's.
func TestLiveSnapshotsDoNotPerturb(t *testing.T) {
	base := runDedup(t, core.Options{}, nil)

	var prof *core.Profiler
	var snaps []*core.LiveSnapshot
	out := runDedup(t, core.Options{
		OnSnapshot: func(ls *core.LiveSnapshot) {
			snaps = append(snaps, ls)
			prof.RequestSnapshot() // ask again for the next boundary
		},
	}, func(p *core.Profiler) {
		prof = p
		p.RequestSnapshot()
	})

	if len(snaps) < 2 {
		t.Fatalf("%d snapshots delivered, want one per batch boundary", len(snaps))
	}
	for i, ls := range snaps {
		if !ls.Partial || ls.Profile == nil {
			t.Fatalf("snapshot %d: partial=%v, profile=%v", i, ls.Partial, ls.Profile != nil)
		}
		if i > 0 && ls.Events < snaps[i-1].Events {
			t.Fatalf("snapshot %d events %d fall below %d", i, ls.Events, snaps[i-1].Events)
		}
		if _, err := ls.Profile.Restore(); err != nil {
			t.Fatalf("snapshot %d profile does not restore: %v", i, err)
		}
	}
	if !bytes.Equal(out, base) {
		t.Fatal("taking snapshots changed the final profile")
	}
}
