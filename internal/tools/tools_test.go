package tools

import (
	"strings"
	"testing"

	"repro/internal/guest"
)

func run(t *testing.T, cfg guest.Config, body func(*guest.Thread)) *guest.Machine {
	t.Helper()
	m := guest.NewMachine(cfg)
	if err := m.Run(body); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestMemcheckCleanProgram(t *testing.T) {
	mc := NewMemcheck()
	run(t, guest.Config{Tools: []guest.Tool{mc}}, func(th *guest.Thread) {
		b := th.Alloc(8)
		for i := 0; i < 8; i++ {
			th.Store(b+guest.Addr(i), uint64(i))
		}
		for i := 0; i < 8; i++ {
			th.Load(b + guest.Addr(i))
		}
		th.Free(b)
	})
	if mc.UninitReads() != 0 || mc.UseAfterFrees() != 0 || mc.InvalidFrees() != 0 {
		t.Errorf("clean program flagged: %v", mc.Errors())
	}
	if blocks, _ := mc.Leaks(); blocks != 0 {
		t.Errorf("clean program leaked %d blocks", blocks)
	}
}

func TestMemcheckUninitRead(t *testing.T) {
	mc := NewMemcheck()
	run(t, guest.Config{Tools: []guest.Tool{mc}}, func(th *guest.Thread) {
		b := th.Alloc(4)
		th.Store(b, 1)
		th.Load(b)     // defined
		th.Load(b + 1) // undefined!
		th.Free(b)
	})
	if mc.UninitReads() != 1 {
		t.Errorf("uninit reads = %d, want 1: %v", mc.UninitReads(), mc.Errors())
	}
}

func TestMemcheckUseAfterFreeAndLeak(t *testing.T) {
	mc := NewMemcheck()
	run(t, guest.Config{Tools: []guest.Tool{mc}}, func(th *guest.Thread) {
		b := th.Alloc(4)
		th.Store(b, 1)
		th.Free(b)
		th.Load(b)     // use after free
		th.Store(b, 2) // write after free
		leak := th.Alloc(16)
		th.Store(leak, 3)
	})
	if mc.UseAfterFrees() != 2 {
		t.Errorf("use-after-frees = %d, want 2", mc.UseAfterFrees())
	}
	blocks, cells := mc.Leaks()
	if blocks != 1 || cells != 16 {
		t.Errorf("leaks = %d blocks / %d cells, want 1/16", blocks, cells)
	}
}

func TestMemcheckKernelWriteDefines(t *testing.T) {
	mc := NewMemcheck()
	m := guest.NewMachine(guest.Config{Tools: []guest.Tool{mc}})
	dev := m.NewDevice("disk", nil)
	if err := m.Run(func(th *guest.Thread) {
		b := th.Alloc(4)
		th.ReadDevice(dev, b, 4)
		for i := 0; i < 4; i++ {
			th.Load(b + guest.Addr(i))
		}
		th.Free(b)
	}); err != nil {
		t.Fatal(err)
	}
	if mc.UninitReads() != 0 {
		t.Errorf("kernel-filled buffer flagged undefined: %v", mc.Errors())
	}
}

func TestCallgrindCosts(t *testing.T) {
	cg := NewCallgrind()
	run(t, guest.Config{Tools: []guest.Tool{cg}}, func(th *guest.Thread) {
		th.Fn("main", func() {
			for i := 0; i < 3; i++ {
				th.Fn("worker", func() {
					th.Exec(100)
					th.Fn("leaf", func() { th.Exec(10) })
				})
			}
			th.Exec(5)
		})
	})
	mainN := cg.Node("main")
	workerN := cg.Node("worker")
	leafN := cg.Node("leaf")
	if mainN == nil || workerN == nil || leafN == nil {
		t.Fatalf("missing nodes: %v", cg.Nodes())
	}
	if workerN.Calls != 3 || leafN.Calls != 3 || mainN.Calls != 1 {
		t.Errorf("calls main=%d worker=%d leaf=%d", mainN.Calls, workerN.Calls, leafN.Calls)
	}
	if mainN.Inclusive <= workerN.Inclusive {
		t.Errorf("main inclusive %d not greater than worker %d", mainN.Inclusive, workerN.Inclusive)
	}
	if workerN.Exclusive >= workerN.Inclusive {
		t.Errorf("worker exclusive %d not less than inclusive %d", workerN.Exclusive, workerN.Inclusive)
	}
	// Exclusive costs must sum to total inclusive cost of the root.
	sum := mainN.Exclusive + workerN.Exclusive + leafN.Exclusive
	if sum != mainN.Inclusive {
		t.Errorf("exclusive sum %d != root inclusive %d", sum, mainN.Inclusive)
	}
	edges := cg.Edges()
	if len(edges) != 2 {
		t.Fatalf("edges = %d, want 2 (main->worker, worker->leaf)", len(edges))
	}
	for _, e := range edges {
		if e.Calls != 3 {
			t.Errorf("edge %s->%s calls = %d, want 3", e.Caller, e.Callee, e.Calls)
		}
	}
}

func TestHelgrindDetectsRace(t *testing.T) {
	hg := NewHelgrind()
	m := guest.NewMachine(guest.Config{Timeslice: 1, Tools: []guest.Tool{hg}})
	shared := m.Static(1)
	if err := m.Run(func(th *guest.Thread) {
		a := th.Spawn("a", func(c *guest.Thread) {
			c.Store(shared, 1) // unsynchronized
		})
		b := th.Spawn("b", func(c *guest.Thread) {
			c.Store(shared, 2) // racy write
			c.Load(shared)
		})
		th.Join(a)
		th.Join(b)
	}); err != nil {
		t.Fatal(err)
	}
	if hg.Races() == 0 {
		t.Error("unsynchronized concurrent writes not detected as a race")
	}
	if len(hg.RaceReports()) == 0 || !strings.Contains(hg.RaceReports()[0], "race") {
		t.Errorf("race reports: %v", hg.RaceReports())
	}
}

func TestHelgrindNoFalsePositiveWithMutex(t *testing.T) {
	hg := NewHelgrind()
	m := guest.NewMachine(guest.Config{Timeslice: 1, Tools: []guest.Tool{hg}})
	shared := m.Static(1)
	mu := m.NewMutex("mu")
	if err := m.Run(func(th *guest.Thread) {
		var kids []*guest.Thread
		for i := 0; i < 4; i++ {
			kids = append(kids, th.Spawn("w", func(c *guest.Thread) {
				for j := 0; j < 10; j++ {
					c.WithLock(mu, func() {
						c.Store(shared, c.Load(shared)+1)
					})
				}
			}))
		}
		for _, k := range kids {
			th.Join(k)
		}
		th.Load(shared) // after joins: ordered
	}); err != nil {
		t.Fatal(err)
	}
	if hg.Races() != 0 {
		t.Errorf("mutex-protected counter flagged: %v", hg.RaceReports())
	}
}

func TestHelgrindNoFalsePositiveWithSemaphores(t *testing.T) {
	hg := NewHelgrind()
	m := guest.NewMachine(guest.Config{Timeslice: 1, Tools: []guest.Tool{hg}})
	cell := m.Static(1)
	empty := m.NewSem("empty", 1)
	full := m.NewSem("full", 0)
	if err := m.Run(func(th *guest.Thread) {
		p := th.Spawn("prod", func(c *guest.Thread) {
			for i := uint64(0); i < 20; i++ {
				c.P(empty)
				c.Store(cell, i)
				c.V(full)
			}
		})
		co := th.Spawn("cons", func(c *guest.Thread) {
			for i := 0; i < 20; i++ {
				c.P(full)
				c.Load(cell)
				c.V(empty)
			}
		})
		th.Join(p)
		th.Join(co)
	}); err != nil {
		t.Fatal(err)
	}
	if hg.Races() != 0 {
		t.Errorf("semaphore producer-consumer flagged: %v", hg.RaceReports())
	}
}

func TestHelgrindForkJoinOrdering(t *testing.T) {
	hg := NewHelgrind()
	m := guest.NewMachine(guest.Config{Timeslice: 1, Tools: []guest.Tool{hg}})
	data := m.Static(8)
	if err := m.Run(func(th *guest.Thread) {
		for i := 0; i < 8; i++ {
			th.Store(data+guest.Addr(i), uint64(i)) // before fork: ordered
		}
		c := th.Spawn("reader", func(c *guest.Thread) {
			for i := 0; i < 8; i++ {
				c.Load(data + guest.Addr(i))
			}
		})
		th.Join(c)
		for i := 0; i < 8; i++ {
			th.Store(data+guest.Addr(i), 0) // after join: ordered
		}
	}); err != nil {
		t.Fatal(err)
	}
	if hg.Races() != 0 {
		t.Errorf("fork/join ordered accesses flagged: %v", hg.RaceReports())
	}
}

func TestHelgrindReadSharedThenRacyWrite(t *testing.T) {
	hg := NewHelgrind()
	m := guest.NewMachine(guest.Config{Timeslice: 1, Tools: []guest.Tool{hg}})
	cell := m.Static(1)
	if err := m.Run(func(th *guest.Thread) {
		th.Store(cell, 42)
		r1 := th.Spawn("r1", func(c *guest.Thread) { c.Load(cell) })
		r2 := th.Spawn("r2", func(c *guest.Thread) { c.Load(cell) })
		w := th.Spawn("w", func(c *guest.Thread) { c.Store(cell, 0) }) // races with readers
		th.Join(r1)
		th.Join(r2)
		th.Join(w)
	}); err != nil {
		t.Fatal(err)
	}
	if hg.Races() == 0 {
		t.Error("write racing with concurrent readers not detected")
	}
}

func TestNulgrindCountsEvents(t *testing.T) {
	ng := NewNulgrind()
	run(t, guest.Config{Tools: []guest.Tool{ng}}, func(th *guest.Thread) {
		th.Fn("f", func() {
			th.Store(1, 1)
			th.Load(1)
		})
	})
	if ng.Events() != 4 { // call + store + load + return
		t.Errorf("events = %d, want 4", ng.Events())
	}
}

func TestHelgrindRWLockNoFalsePositive(t *testing.T) {
	hg := NewHelgrind()
	m := guest.NewMachine(guest.Config{Timeslice: 1, Tools: []guest.Tool{hg}})
	rw := m.NewRWLock("shared")
	data := m.Static(4)
	if err := m.Run(func(th *guest.Thread) {
		var kids []*guest.Thread
		for r := 0; r < 3; r++ {
			kids = append(kids, th.Spawn("reader", func(c *guest.Thread) {
				for i := 0; i < 8; i++ {
					c.RLock(rw)
					c.Load(data)
					c.RUnlock(rw)
				}
			}))
		}
		kids = append(kids, th.Spawn("writer", func(c *guest.Thread) {
			for i := 0; i < 8; i++ {
				c.WLock(rw)
				c.Store(data, uint64(i))
				c.WUnlock(rw)
			}
		}))
		for _, k := range kids {
			th.Join(k)
		}
	}); err != nil {
		t.Fatal(err)
	}
	if hg.Races() != 0 {
		t.Errorf("rwlock-protected accesses flagged: %v", hg.RaceReports())
	}
}
