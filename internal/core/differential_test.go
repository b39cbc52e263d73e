package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/guest"
)

// randProgram builds a randomized multithreaded guest program from a seed:
// several threads executing random sequences of nested calls, loads, stores
// and kernel I/O over a small shared address pool, so that cross-thread and
// kernel-induced accesses are frequent. It is the workload generator for the
// differential tests below.
type randProgram struct {
	seed      int64
	threads   int
	opsPer    int
	cells     int
	timeslice int
	batchMax  int // guest.Config.BatchMax: 0 the full ring, 2 the smallest batches
}

func (rp randProgram) run(t *testing.T, tools ...guest.Tool) {
	t.Helper()
	m := guest.NewMachine(guest.Config{Timeslice: rp.timeslice, Tools: tools, BatchMax: rp.batchMax})
	pool := m.Static(rp.cells)
	dev := m.NewDevice("dev", nil)
	err := m.Run(func(th *guest.Thread) {
		var kids []*guest.Thread
		for w := 0; w < rp.threads; w++ {
			rng := rand.New(rand.NewSource(rp.seed + int64(w)*7919))
			kids = append(kids, th.Spawn(fmt.Sprintf("w%d", w), func(c *guest.Thread) {
				c.Fn("root", func() {
					depth := 1
					for op := 0; op < rp.opsPer; op++ {
						cell := pool + guest.Addr(rng.Intn(rp.cells))
						switch r := rng.Intn(100); {
						case r < 15 && depth < 6:
							c.Call(fmt.Sprintf("f%d", rng.Intn(5)))
							depth++
						case r < 30 && depth > 1:
							c.Return()
							depth--
						case r < 60:
							c.Load(cell)
						case r < 85:
							c.Store(cell, uint64(r))
						case r < 92:
							n := 1 + rng.Intn(3)
							if int(cell-pool)+n > rp.cells {
								n = 1
							}
							c.ReadDevice(dev, cell, n)
						case r < 97:
							n := 1 + rng.Intn(3)
							if int(cell-pool)+n > rp.cells {
								n = 1
							}
							c.WriteDevice(dev, cell, n)
						default:
							c.Exec(1 + rng.Intn(4))
						}
					}
					for depth > 1 {
						c.Return()
						depth--
					}
				})
			}))
		}
		for _, k := range kids {
			th.Join(k)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDifferentialVsNaive checks that the read/write timestamping algorithm
// produces exactly the same profiles — trms and rms histograms, costs, and
// induced-input splits — as the naive set-based reference, across many
// randomized multithreaded programs and option configurations, under both
// the default batch ring and two-event batches. RMSOnly keeps no global
// shadow; its reference is the naive profiler with every induced input
// disabled.
func TestDifferentialVsNaive(t *testing.T) {
	noInduced := Options{DisableThreadInduced: true, DisableExternal: true}
	configs := []struct{ fast, naive Options }{
		{Options{}, Options{}},
		{Options{DisableThreadInduced: true}, Options{DisableThreadInduced: true}},
		{Options{DisableExternal: true}, Options{DisableExternal: true}},
		{noInduced, noInduced},
		{Options{RMSOnly: true}, noInduced},
	}
	for seed := int64(1); seed <= 25; seed++ {
		for ci, c := range configs {
			for _, batchMax := range []int{0, 2} {
				fast := New(c.fast)
				naive := NewNaive(c.naive)
				rp := randProgram{
					seed:      seed,
					threads:   2 + int(seed%3),
					opsPer:    300,
					cells:     24,
					timeslice: 1 + int(seed%9),
					batchMax:  batchMax,
				}
				rp.run(t, fast, naive)
				if diffs := fast.Profile().Diff(naive.Profile()); len(diffs) > 0 {
					t.Fatalf("seed %d config %d batchmax=%d: timestamping disagrees with naive reference:\n%s",
						seed, ci, batchMax, joinLines(diffs, 12))
				}
			}
		}
	}
}

// TestDifferentialWithRenumbering re-runs the differential comparison with a
// tiny renumbering threshold, so the Fig. 13 overflow pass runs many times
// mid-execution and must not change any profile.
func TestDifferentialWithRenumbering(t *testing.T) {
	for seed := int64(1); seed <= 15; seed++ {
		fast := New(Options{RenumberThreshold: 101})
		naive := NewNaive(Options{})
		rp := randProgram{
			seed:      seed,
			threads:   3,
			opsPer:    250,
			cells:     16,
			timeslice: 2,
		}
		rp.run(t, fast, naive)
		if fast.Renumbers() == 0 {
			t.Fatalf("seed %d: renumbering never triggered; threshold ineffective", seed)
		}
		if diffs := fast.Profile().Diff(naive.Profile()); len(diffs) > 0 {
			t.Fatalf("seed %d: renumbering changed profiles (%d renumber passes):\n%s",
				seed, fast.Renumbers(), joinLines(diffs, 12))
		}
	}
}

// TestRenumberingInvariance compares two timestamping profilers on the same
// execution, one renumbering aggressively and one never, which exercises the
// renumbering pass against the algorithm itself rather than the reference.
func TestRenumberingInvariance(t *testing.T) {
	for seed := int64(30); seed <= 40; seed++ {
		often := New(Options{RenumberThreshold: 150})
		never := New(Options{})
		rp := randProgram{seed: seed, threads: 4, opsPer: 400, cells: 32, timeslice: 3}
		rp.run(t, often, never)
		if often.Renumbers() < 5 {
			t.Fatalf("seed %d: only %d renumber passes; test not exercising overflow", seed, often.Renumbers())
		}
		if diffs := often.Profile().Diff(never.Profile()); len(diffs) > 0 {
			t.Fatalf("seed %d: aggressive renumbering changed the profile:\n%s", seed, joinLines(diffs, 12))
		}
	}
}

// TestDeepStacksDifferential stresses the O(log d) ancestor adjustment with
// deep call stacks and repeated re-reads across activation boundaries.
func TestDeepStacksDifferential(t *testing.T) {
	fast := New(Options{})
	naive := NewNaive(Options{})
	m := guest.NewMachine(guest.Config{Tools: []guest.Tool{fast, naive}})
	cells := m.Static(8)
	err := m.Run(func(th *guest.Thread) {
		var rec func(d int)
		rec = func(d int) {
			th.Fn(fmt.Sprintf("depth%d", d), func() {
				th.Load(cells + guest.Addr(d%8))
				if d < 40 {
					rec(d + 1)
					if d < 6 {
						rec(d + 1) // sibling re-descend: re-reads everywhere
					}
				}
				th.Load(cells + guest.Addr((d+3)%8))
			})
		}
		rec(0)
	})
	if err != nil {
		t.Fatal(err)
	}
	if diffs := fast.Profile().Diff(naive.Profile()); len(diffs) > 0 {
		t.Fatalf("deep-stack disagreement:\n%s", joinLines(diffs, 12))
	}
}

func joinLines(lines []string, limit int) string {
	if len(lines) > limit {
		lines = append(lines[:limit:limit], fmt.Sprintf("... and %d more", len(lines)-limit))
	}
	out := ""
	for _, l := range lines {
		out += l + "\n"
	}
	return out
}

// TestDifferentialUnderRandomScheduling re-runs the fast-vs-naive comparison
// under seeded random scheduling: the algorithms must agree on every legal
// interleaving, not just round-robin ones.
func TestDifferentialUnderRandomScheduling(t *testing.T) {
	for seed := int64(50); seed <= 60; seed++ {
		fast := New(Options{})
		naive := NewNaive(Options{})
		m := guest.NewMachine(guest.Config{Timeslice: 2, SchedSeed: seed, Tools: []guest.Tool{fast, naive}})
		pool := m.Static(16)
		dev := m.NewDevice("dev", nil)
		err := m.Run(func(th *guest.Thread) {
			var kids []*guest.Thread
			for w := 0; w < 3; w++ {
				w := w
				kids = append(kids, th.Spawn(fmt.Sprintf("w%d", w), func(c *guest.Thread) {
					c.Fn("work", func() {
						for i := 0; i < 120; i++ {
							cell := pool + guest.Addr((i*7+w*3)%16)
							switch i % 4 {
							case 0:
								c.Load(cell)
							case 1:
								c.Store(cell, uint64(i))
							case 2:
								c.ReadDevice(dev, cell, 1)
								c.Load(cell)
							default:
								c.Fn("inner", func() { c.Load(cell) })
							}
						}
					})
				}))
			}
			for _, k := range kids {
				th.Join(k)
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if diffs := fast.Profile().Diff(naive.Profile()); len(diffs) > 0 {
			t.Fatalf("seed %d: disagreement under random scheduling:\n%s", seed, joinLines(diffs, 10))
		}
	}
}

// TestTRMSInvariantUnderScheduling: for the semaphore producer-consumer, the
// consumer's trms equals n under EVERY interleaving — the handoffs are fully
// synchronized, so scheduling cannot change what counts as input.
func TestTRMSInvariantUnderScheduling(t *testing.T) {
	const n = 24
	for seed := int64(0); seed <= 12; seed++ {
		p := New(Options{})
		m := guest.NewMachine(guest.Config{Timeslice: 1, SchedSeed: seed, Tools: []guest.Tool{p}})
		x := m.Static(1)
		empty := m.NewSem("empty", 1)
		full := m.NewSem("full", 0)
		err := m.Run(func(th *guest.Thread) {
			prod := th.Spawn("producer", func(pr *guest.Thread) {
				pr.Fn("producer", func() {
					for i := uint64(1); i <= n; i++ {
						pr.P(empty)
						pr.Store(x, i)
						pr.V(full)
					}
				})
			})
			cons := th.Spawn("consumer", func(c *guest.Thread) {
				c.Fn("consumer", func() {
					for i := 0; i < n; i++ {
						c.P(full)
						c.Load(x)
						c.V(empty)
					}
				})
			})
			th.Join(prod)
			th.Join(cons)
		})
		if err != nil {
			t.Fatal(err)
		}
		cons := p.Profile().Routine("consumer").Merged()
		if cons.SumTRMS != n || cons.SumRMS != 1 {
			t.Errorf("seed %d: trms=%d rms=%d, want %d and 1 (invariant broken by scheduling)",
				seed, cons.SumTRMS, cons.SumRMS, n)
		}
	}
}
