package core

import (
	"bytes"
	"testing"

	"repro/internal/guest"
)

// violated asserts the profiler recorded exactly the named checks, in order.
func violated(t *testing.T, p *Profiler, want ...string) {
	t.Helper()
	got := p.Violations()
	if len(got) != len(want) {
		t.Fatalf("recorded %d violations %v, want %v", len(got), got, want)
	}
	for i, v := range got {
		if v.Check != want[i] {
			t.Fatalf("violation %d is %s (%s), want %s", i, v.Check, v.Detail, want[i])
		}
	}
	if p.ViolationCount() != uint64(len(want)) {
		t.Fatalf("ViolationCount %d, want %d", p.ViolationCount(), len(want))
	}
}

// seeded builds a checked profiler with one thread and one pending
// activation, ready for state corruption.
func seeded(level CheckLevel) (*Profiler, *threadView) {
	p := New(Options{CheckLevel: level})
	p.ThreadStart(1, 0)
	p.Call(1, 0, 0)
	return p, p.threads[1]
}

// TestCheckCatchesSeededViolations corrupts profiler state one invariant at
// a time and asserts the precise check fires. The clean control at the top
// proves the corruption, not the driving, is what trips each check.
func TestCheckCatchesSeededViolations(t *testing.T) {
	t.Run("clean control", func(t *testing.T) {
		p, _ := seeded(CheckDeep)
		p.MemBatch(1, 0, []guest.MemEvent{guest.WriteEvent(4), guest.ReadEvent(4)})
		p.Return(1, 0, 3)
		p.Finish()
		violated(t, p)
	})

	t.Run("counter/bound", func(t *testing.T) {
		p, tv := seeded(CheckCheap)
		tv.stack[0].TS = 0 // an activation predating the counter's origin
		p.checkCall(tv)
		violated(t, p, "counter/bound")
	})

	t.Run("counter/bound above count", func(t *testing.T) {
		p, tv := seeded(CheckCheap)
		tv.stack[0].TS = p.count + 100
		p.checkCall(tv)
		violated(t, p, "counter/bound")
	})

	t.Run("counter/monotone", func(t *testing.T) {
		p, tv := seeded(CheckCheap)
		tv.stack[0].TS = p.count + 100 // parent now claims a later call time
		p.Call(1, 1, 0)
		violated(t, p, "counter/monotone")
	})

	t.Run("activation/rms-nonneg", func(t *testing.T) {
		p, tv := seeded(CheckCheap)
		tv.stack[0].RMS = -3
		tv.stack[0].TRMS = -3
		p.Return(1, 0, 1)
		violated(t, p, "activation/rms-nonneg")
	})

	t.Run("activation/trms-ge-rms", func(t *testing.T) {
		p, tv := seeded(CheckCheap)
		tv.stack[0].RMS = 5
		tv.stack[0].TRMS = 4
		p.Return(1, 0, 1)
		violated(t, p, "activation/trms-ge-rms")
	})

	t.Run("activation/trms-bound", func(t *testing.T) {
		p, tv := seeded(CheckCheap)
		tv.stack[0].RMS = 2
		tv.stack[0].TRMS = 4 // claims 2 induced accesses; none recorded
		p.Return(1, 0, 1)
		violated(t, p, "activation/trms-bound")
	})

	t.Run("shadow/ts-bound", func(t *testing.T) {
		p, tv := seeded(CheckDeep)
		tc := tv.ts.Cursor()
		*tc.Slot(8) = p.count + 50
		p.checkFinish()
		violated(t, p, "shadow/ts-bound")
	})

	t.Run("shadow/wts-bound", func(t *testing.T) {
		p, _ := seeded(CheckDeep)
		gc := p.global.Cursor()
		*gc.Slot(8) = uint64(p.count+50)<<32 | 2
		p.checkFinish()
		violated(t, p, "shadow/wts-bound")
	})

	t.Run("shadow/writer-missing", func(t *testing.T) {
		p, _ := seeded(CheckDeep)
		gc := p.global.Cursor()
		*gc.Slot(8) = uint64(p.count) << 32 // timestamp without provenance
		p.checkFinish()
		violated(t, p, "shadow/writer-missing")
	})

	t.Run("renumber/order", func(t *testing.T) {
		// Duplicate a pending activation timestamp: renumbering maps both
		// frames to the same rank, so their remapped timestamps collide
		// and the deep verifier must flag the stack as no longer strictly
		// increasing.
		p := New(Options{CheckLevel: CheckDeep, RenumberThreshold: 40})
		p.ThreadStart(1, 0)
		p.Call(1, 0, 0)
		p.Call(1, 1, 0)
		tv := p.threads[1]
		tv.stack[1].TS = tv.stack[0].TS
		for p.Renumbers() == 0 {
			p.Call(1, 2, 0)
			p.Return(1, 2, 1)
		}
		if p.ViolationCount() == 0 {
			t.Fatal("deep renumber verification missed the duplicated activation timestamp")
		}
	})
}

// TestCheckViolationDelivery: OnViolation streams instead of collecting,
// and the recording cap bounds memory while the count keeps going.
func TestCheckViolationDelivery(t *testing.T) {
	var seen []Violation
	p := New(Options{CheckLevel: CheckCheap, OnViolation: func(v Violation) { seen = append(seen, v) }})
	p.ThreadStart(1, 0)
	p.Call(1, 0, 0)
	p.threads[1].stack[0].RMS = -1
	p.threads[1].stack[0].TRMS = -1
	p.Return(1, 0, 1)
	if len(seen) != 1 || seen[0].Check != "activation/rms-nonneg" {
		t.Fatalf("OnViolation delivery: %v", seen)
	}
	if p.Violations() != nil {
		t.Fatal("violations collected despite OnViolation")
	}

	p2, _ := seeded(CheckCheap)
	for i := 0; i < maxRecordedViolations+50; i++ {
		p2.violatef("test/flood", 1, "", "n=%d", i)
	}
	if len(p2.Violations()) != maxRecordedViolations {
		t.Fatalf("recorded %d violations, cap is %d", len(p2.Violations()), maxRecordedViolations)
	}
	if p2.ViolationCount() != uint64(maxRecordedViolations+50) {
		t.Fatalf("ViolationCount %d stopped at the cap", p2.ViolationCount())
	}
}

// TestParseCheckLevel covers the flag round-trip.
func TestParseCheckLevel(t *testing.T) {
	for _, l := range []CheckLevel{CheckOff, CheckCheap, CheckDeep} {
		got, err := ParseCheckLevel(l.String())
		if err != nil || got != l {
			t.Fatalf("round-trip of %v: got %v, %v", l, got, err)
		}
	}
	if _, err := ParseCheckLevel("paranoid"); err == nil {
		t.Fatal("bad level accepted")
	}
	if l, err := ParseCheckLevel(""); err != nil || l != CheckOff {
		t.Fatalf("empty level: %v, %v", l, err)
	}
}

// TestRenumberPathologicalThresholds is the regression test for the
// renumbering trigger: thresholds as low as 1 must not wedge or panic
// (the profiler raises its cadence just enough to make progress), must
// force many passes, and must leave the profile byte-identical to the
// un-renumbered run.
func TestRenumberPathologicalThresholds(t *testing.T) {
	run := func(threshold uint32, level CheckLevel) (*Profiler, []byte) {
		t.Helper()
		p := New(Options{RenumberThreshold: threshold, CheckLevel: level})
		m := guest.NewMachine(guest.Config{Tools: []guest.Tool{p}})
		data := m.Static(64)
		err := m.Run(func(th *guest.Thread) {
			for i := 0; i < 150; i++ {
				th.Fn("work", func() {
					for j := 0; j < 8; j++ {
						th.Store(data+guest.Addr(j), uint64(j))
						th.Load(data + guest.Addr(j))
					}
				})
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		b, err := p.Profile().Export()
		if err != nil {
			t.Fatal(err)
		}
		return p, b
	}

	_, want := run(0, CheckOff) // effectively never renumbers
	for _, threshold := range []uint32{1, 2, 48} {
		for _, level := range []CheckLevel{CheckOff, CheckDeep} {
			p, got := run(threshold, level)
			if p.Renumbers() < 3 {
				t.Fatalf("threshold %d: only %d renumbering passes, want >= 3", threshold, p.Renumbers())
			}
			if p.ViolationCount() != 0 {
				t.Fatalf("threshold %d level %v: %d violations: %v",
					threshold, level, p.ViolationCount(), p.Violations())
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("threshold %d level %v: profile differs from un-renumbered run", threshold, level)
			}
		}
	}
}
