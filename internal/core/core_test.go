package core

import (
	"testing"

	"repro/internal/guest"
)

// activations fetches the single-thread activation record of a routine,
// failing the test if it is missing or ambiguous.
func activations(t *testing.T, p *Profile, routine string) *Activations {
	t.Helper()
	rp := p.Routine(routine)
	if rp == nil {
		t.Fatalf("routine %q not profiled; have %v", routine, p.RoutineNames())
	}
	ids := rp.ThreadIDs()
	if len(ids) != 1 {
		t.Fatalf("routine %q profiled for threads %v, want exactly one", routine, ids)
	}
	return rp.PerThread[ids[0]]
}

// handshake lets one thread wait for another to complete a step, forcing a
// precise interleaving of memory operations across threads.
type handshake struct {
	ready, ack *guest.Sem
}

func newHandshake(m *guest.Machine, name string) *handshake {
	return &handshake{ready: m.NewSem(name+"-ready", 0), ack: m.NewSem(name+"-ack", 0)}
}

// TestFigure1a reproduces the paper's Figure 1a: routine f in T1 reads x,
// routine g in T2 overwrites x, f reads x again. rms_f = 1 but trms_f = 2:
// the second read is an induced first-access.
func TestFigure1a(t *testing.T) {
	p := New(Options{})
	m := guest.NewMachine(guest.Config{Tools: []guest.Tool{p}})
	x := m.Static(1)
	hs := newHandshake(m, "h")
	err := m.Run(func(th *guest.Thread) {
		t2 := th.Spawn("T2", func(g *guest.Thread) {
			g.Fn("g", func() {
				g.P(hs.ready)
				g.Store(x, 99)
				g.V(hs.ack)
			})
		})
		th.Fn("f", func() {
			th.Load(x)
			th.V(hs.ready)
			th.P(hs.ack)
			th.Load(x)
		})
		th.Join(t2)
	})
	if err != nil {
		t.Fatal(err)
	}
	f := activations(t, p.Profile(), "f")
	if f.SumTRMS != 2 {
		t.Errorf("trms_f = %d, want 2", f.SumTRMS)
	}
	if f.SumRMS != 1 {
		t.Errorf("rms_f = %d, want 1", f.SumRMS)
	}
	if f.InducedThread != 1 || f.InducedExternal != 0 {
		t.Errorf("induced split = (%d thread, %d external), want (1, 0)", f.InducedThread, f.InducedExternal)
	}
}

// TestFigure1b reproduces Figure 1b: f reads x, T2 overwrites x, f's
// subroutine h reads x (induced for both h and f), then f reads x a third
// time — not induced, because f already accessed x through h after the
// foreign write. trms_f = 2, trms_h = 1, rms_f = rms_h = 1.
func TestFigure1b(t *testing.T) {
	p := New(Options{})
	m := guest.NewMachine(guest.Config{Tools: []guest.Tool{p}})
	x := m.Static(1)
	hs := newHandshake(m, "h")
	err := m.Run(func(th *guest.Thread) {
		t2 := th.Spawn("T2", func(g *guest.Thread) {
			g.Fn("g", func() {
				g.P(hs.ready)
				g.Store(x, 99)
				g.V(hs.ack)
			})
		})
		th.Fn("f", func() {
			th.Load(x)
			th.V(hs.ready)
			th.P(hs.ack)
			th.Fn("h", func() {
				th.Load(x)
			})
			th.Load(x)
		})
		th.Join(t2)
	})
	if err != nil {
		t.Fatal(err)
	}
	f := activations(t, p.Profile(), "f")
	h := activations(t, p.Profile(), "h")
	if f.SumTRMS != 2 || h.SumTRMS != 1 {
		t.Errorf("trms: f=%d h=%d, want f=2 h=1", f.SumTRMS, h.SumTRMS)
	}
	if f.SumRMS != 1 || h.SumRMS != 1 {
		t.Errorf("rms: f=%d h=%d, want f=1 h=1", f.SumRMS, h.SumRMS)
	}
	// The induced access by h is induced input of f as well (a routine's
	// induced input includes its descendants').
	if f.InducedThread != 1 || h.InducedThread != 1 {
		t.Errorf("induced-thread: f=%d h=%d, want 1, 1", f.InducedThread, h.InducedThread)
	}
}

// TestFigure2ProducerConsumer reproduces Figure 2: with the semaphore-based
// producer–consumer pattern over a single cell, rms_consumer = 1 while
// trms_consumer = n after n produced values.
func TestFigure2ProducerConsumer(t *testing.T) {
	const n = 10
	p := New(Options{})
	m := guest.NewMachine(guest.Config{Tools: []guest.Tool{p}})
	x := m.Static(1)
	empty := m.NewSem("empty", 1)
	full := m.NewSem("full", 0)
	err := m.Run(func(th *guest.Thread) {
		prod := th.Spawn("producer", func(pr *guest.Thread) {
			pr.Fn("producer", func() {
				for i := uint64(1); i <= n; i++ {
					pr.P(empty)
					pr.Fn("produceData", func() { pr.Store(x, i) })
					pr.V(full)
				}
			})
		})
		cons := th.Spawn("consumer", func(c *guest.Thread) {
			c.Fn("consumer", func() {
				for i := 0; i < n; i++ {
					c.P(full)
					c.Fn("consumeData", func() { c.Load(x) })
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
	cons := activations(t, p.Profile(), "consumer")
	if cons.SumTRMS != n {
		t.Errorf("trms_consumer = %d, want %d", cons.SumTRMS, n)
	}
	if cons.SumRMS != 1 {
		t.Errorf("rms_consumer = %d, want 1", cons.SumRMS)
	}
	if cons.InducedThread != n {
		t.Errorf("induced-thread of consumer = %d, want %d", cons.InducedThread, n)
	}
	// Every consumeData activation has trms exactly 1 (one induced read).
	cd := activations(t, p.Profile(), "consumeData")
	if cd.Calls != n || len(cd.ByTRMS) != 1 || cd.ByTRMS[1] == nil || cd.ByTRMS[1].Calls != n {
		t.Errorf("consumeData: calls=%d ByTRMS=%v, want %d activations all with trms 1", cd.Calls, cd.ByTRMS, n)
	}
}

// TestFigure3ExternalRead reproduces Figure 3: a routine repeatedly loads
// two words from an external device into the same buffer but reads only the
// first one. After n iterations rms = 1 and trms = n, all external input.
func TestFigure3ExternalRead(t *testing.T) {
	const n = 8
	p := New(Options{})
	m := guest.NewMachine(guest.Config{Tools: []guest.Tool{p}})
	buf := m.Static(2)
	dev := m.NewDevice("disk", nil)
	err := m.Run(func(th *guest.Thread) {
		th.Fn("externalRead", func() {
			for i := 0; i < n; i++ {
				th.ReadDevice(dev, buf, 2)
				th.Load(buf) // process b[0] only
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	er := activations(t, p.Profile(), "externalRead")
	if er.SumTRMS != n {
		t.Errorf("trms_externalRead = %d, want %d", er.SumTRMS, n)
	}
	if er.SumRMS != 1 {
		t.Errorf("rms_externalRead = %d, want 1", er.SumRMS)
	}
	if er.InducedExternal != n-1 {
		// The first load is a plain first access (also classified
		// induced in the paper's convention — see below); subsequent
		// ones are all external. Our implementation classifies the
		// first read as induced too, since the kernel wrote the cell.
		t.Logf("induced-external = %d (first access classified induced)", er.InducedExternal)
	}
	if er.InducedExternal != n {
		t.Errorf("induced-external = %d, want %d (kernel wrote the cell before every read)", er.InducedExternal, n)
	}
	if p.Profile().InducedExternal != n || p.Profile().InducedThread != 0 {
		t.Errorf("global induced = (%d thread, %d external), want (0, %d)",
			p.Profile().InducedThread, p.Profile().InducedExternal, n)
	}
}

// TestSection3Scenario reproduces the synthetic scenario of Section 3: n
// activations r_1..r_n where activation r_i performs ceil(i/2) fresh first
// accesses and floor(i/2) induced re-reads, so trms_{r_i} = i while
// rms_{r_i} = ceil(i/2).
func TestSection3Scenario(t *testing.T) {
	const n = 9
	p := New(Options{})
	m := guest.NewMachine(guest.Config{Tools: []guest.Tool{p}})
	fresh := m.Static(n * n) // enough never-touched cells
	shared := m.Static(n)    // cells rewritten by T2 mid-activation
	hs := newHandshake(m, "h")
	err := m.Run(func(th *guest.Thread) {
		writer := th.Spawn("writer", func(w *guest.Thread) {
			w.Fn("writerLoop", func() {
				for {
					w.P(hs.ready)
					idx := w.Load(shared + n - 1) // control cell: which cell to rewrite, n-1 slot
					if idx == ^uint64(0) {
						w.V(hs.ack)
						return
					}
					w.Store(shared+guest.Addr(idx), idx+1)
					w.V(hs.ack)
				}
			})
		})
		next := 0
		for i := 1; i <= n; i++ {
			th.Fn("r", func() {
				for k := 0; k < (i+1)/2; k++ {
					th.Load(fresh + guest.Addr(next))
					next++
				}
				for k := 0; k < i/2; k++ {
					cell := shared + guest.Addr(k)
					th.Load(cell) // ensure accessed within r_i first
					// ask T2 to rewrite, then re-read: induced.
					th.Store(shared+n-1, uint64(k))
					th.V(hs.ready)
					th.P(hs.ack)
					th.Load(cell)
				}
			})
		}
		th.Store(shared+n-1, ^uint64(0))
		th.V(hs.ready)
		th.P(hs.ack)
		th.Join(writer)
	})
	if err != nil {
		t.Fatal(err)
	}
	r := activations(t, p.Profile(), "r")
	if r.Calls != n {
		t.Fatalf("r activations = %d, want %d", r.Calls, n)
	}
	for i := 1; i <= n; i++ {
		// Activation r_i reads floor(i/2) shared cells once before the
		// rewrite: those are first accesses for r_i too. Its trms is
		// ceil(i/2) fresh + floor(i/2) first-touch shared + floor(i/2)
		// induced = i + floor(i/2); its rms = ceil(i/2) + floor(i/2).
		// The control-cell store is a write, contributing nothing.
		wantTRMS := uint64(i + i/2)
		wantRMS := uint64(i)
		if pt := r.ByTRMS[wantTRMS]; pt == nil {
			t.Errorf("no activation with trms=%d (i=%d); histogram %v", wantTRMS, i, keys(r.ByTRMS))
		}
		if pt := r.ByRMS[wantRMS]; pt == nil {
			t.Errorf("no activation with rms=%d (i=%d); histogram %v", wantRMS, i, keys(r.ByRMS))
		}
	}
}

func keys(m map[uint64]*Point) []uint64 {
	var ks []uint64
	for k := range m {
		ks = append(ks, k)
	}
	return ks
}

// TestDisableThreadInduced checks the Fig. 7b configuration: with
// thread-induced tracking off, the producer–consumer consumer degenerates to
// rms-like behaviour.
func TestDisableThreadInduced(t *testing.T) {
	const n = 6
	p := New(Options{DisableThreadInduced: true})
	m := guest.NewMachine(guest.Config{Tools: []guest.Tool{p}})
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
	cons := activations(t, p.Profile(), "consumer")
	if cons.SumTRMS != 1 {
		t.Errorf("trms_consumer with thread-induced disabled = %d, want 1", cons.SumTRMS)
	}
	if cons.InducedThread != 0 {
		t.Errorf("induced-thread = %d, want 0", cons.InducedThread)
	}
}

// TestDisableExternal checks that kernel-loaded data stops counting as
// induced input when external tracking is off.
func TestDisableExternal(t *testing.T) {
	const n = 5
	p := New(Options{DisableExternal: true})
	m := guest.NewMachine(guest.Config{Tools: []guest.Tool{p}})
	buf := m.Static(2)
	dev := m.NewDevice("disk", nil)
	err := m.Run(func(th *guest.Thread) {
		th.Fn("externalRead", func() {
			for i := 0; i < n; i++ {
				th.ReadDevice(dev, buf, 2)
				th.Load(buf)
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	er := activations(t, p.Profile(), "externalRead")
	if er.SumTRMS != 1 {
		t.Errorf("trms with external disabled = %d, want 1", er.SumTRMS)
	}
	if er.InducedExternal != 0 {
		t.Errorf("induced-external = %d, want 0", er.InducedExternal)
	}
}

// TestKernelReadCountsAsRead checks Fig. 12's kernelRead rule: sending a
// buffer to a device reads it on the thread's behalf.
func TestKernelReadCountsAsRead(t *testing.T) {
	p := New(Options{})
	m := guest.NewMachine(guest.Config{Tools: []guest.Tool{p}})
	buf := m.Static(4)
	m.Preload(buf, []uint64{1, 2, 3, 4})
	dev := m.NewDevice("net", nil)
	err := m.Run(func(th *guest.Thread) {
		th.Fn("send", func() {
			th.WriteDevice(dev, buf, 4)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	send := activations(t, p.Profile(), "send")
	if send.SumTRMS != 4 || send.SumRMS != 4 {
		t.Errorf("send metrics trms=%d rms=%d, want 4, 4 (kernel reads are thread input)", send.SumTRMS, send.SumRMS)
	}
}

// TestCostIsCumulative verifies that an activation's recorded cost includes
// its descendants (cumulative basic blocks).
func TestCostIsCumulative(t *testing.T) {
	p := New(Options{})
	m := guest.NewMachine(guest.Config{Tools: []guest.Tool{p}})
	err := m.Run(func(th *guest.Thread) {
		th.Fn("parent", func() {
			th.Fn("child", func() {
				th.Exec(100)
			})
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	parent := activations(t, p.Profile(), "parent")
	child := activations(t, p.Profile(), "child")
	if parent.SumCost <= child.SumCost {
		t.Errorf("parent cost %d not greater than child cost %d", parent.SumCost, child.SumCost)
	}
	if child.SumCost < 100 {
		t.Errorf("child cost %d, want >= 100", child.SumCost)
	}
}

// TestWriteSuppressesOwnInput checks the defining property of rms: a value a
// routine wrote itself is not input when read back.
func TestWriteSuppressesOwnInput(t *testing.T) {
	p := New(Options{})
	m := guest.NewMachine(guest.Config{Tools: []guest.Tool{p}})
	a := m.Static(1)
	err := m.Run(func(th *guest.Thread) {
		th.Fn("f", func() {
			th.Store(a, 7)
			th.Load(a)
			th.Load(a)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	f := activations(t, p.Profile(), "f")
	if f.SumTRMS != 0 || f.SumRMS != 0 {
		t.Errorf("metrics trms=%d rms=%d, want 0, 0", f.SumTRMS, f.SumRMS)
	}
}

// TestSiblingActivationsEachCountFirstAccess checks the activation-level
// semantics of rms: two sibling activations reading the same cell each count
// it, while their parent counts it once.
func TestSiblingActivationsEachCountFirstAccess(t *testing.T) {
	p := New(Options{})
	m := guest.NewMachine(guest.Config{Tools: []guest.Tool{p}})
	a := m.Static(1)
	err := m.Run(func(th *guest.Thread) {
		th.Fn("parent", func() {
			th.Fn("child", func() { th.Load(a) })
			th.Fn("child", func() { th.Load(a) })
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	parent := activations(t, p.Profile(), "parent")
	child := activations(t, p.Profile(), "child")
	if child.Calls != 2 || child.SumRMS != 2 {
		t.Errorf("child calls=%d sumRMS=%d, want 2 and 2", child.Calls, child.SumRMS)
	}
	if parent.SumRMS != 1 {
		t.Errorf("parent rms = %d, want 1 (cell read once in its subtree)", parent.SumRMS)
	}
	if parent.SumTRMS != 1 {
		t.Errorf("parent trms = %d, want 1", parent.SumTRMS)
	}
}

// TestMergedAcrossThreads checks thread-sensitive profile separation and the
// Merged combination step.
func TestMergedAcrossThreads(t *testing.T) {
	p := New(Options{})
	m := guest.NewMachine(guest.Config{Tools: []guest.Tool{p}})
	base := m.Static(64)
	err := m.Run(func(th *guest.Thread) {
		var kids []*guest.Thread
		for w := 0; w < 3; w++ {
			off := guest.Addr(w * 16)
			kids = append(kids, th.Spawn("w", func(c *guest.Thread) {
				c.Fn("work", func() {
					for i := guest.Addr(0); i < 8; i++ {
						c.Load(base + off + i)
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
	rp := p.Profile().Routine("work")
	if rp == nil {
		t.Fatal("no work profile")
	}
	if got := len(rp.ThreadIDs()); got != 3 {
		t.Fatalf("work profiled for %d threads, want 3", got)
	}
	merged := rp.Merged()
	if merged.Calls != 3 || merged.SumTRMS != 24 {
		t.Errorf("merged calls=%d trms=%d, want 3 and 24", merged.Calls, merged.SumTRMS)
	}
	if merged.ByTRMS[8] == nil || merged.ByTRMS[8].Calls != 3 {
		t.Errorf("merged histogram %v, want 3 activations at trms=8", merged.ByTRMS)
	}
}

func TestFindFrame(t *testing.T) {
	stack := Stack[uint32]{{TS: 2}, {TS: 5}, {TS: 9}}
	cases := []struct {
		ts   uint32
		want int
	}{{1, -1}, {2, 0}, {4, 0}, {5, 1}, {8, 1}, {9, 2}, {100, 2}}
	for _, c := range cases {
		if got := stack.findFrame(c.ts); got != c.want {
			t.Errorf("findFrame(%d) = %d, want %d", c.ts, got, c.want)
		}
	}
	if got := Stack[uint32](nil).findFrame(5); got != -1 {
		t.Errorf("findFrame on empty stack = %d, want -1", got)
	}
}

// TestRMSOnlyMatchesDisabledOptions checks that the aprof-rms fast path (no
// global shadow) computes the same profile as disabling both induced-input
// sources on the full profiler.
func TestRMSOnlyMatchesDisabledOptions(t *testing.T) {
	rmsOnly := New(Options{RMSOnly: true})
	disabled := New(Options{DisableThreadInduced: true, DisableExternal: true})
	m := guest.NewMachine(guest.Config{Timeslice: 3, Tools: []guest.Tool{rmsOnly, disabled}})
	cell := m.Static(4)
	dev := m.NewDevice("d", nil)
	err := m.Run(func(th *guest.Thread) {
		other := th.Spawn("w", func(c *guest.Thread) {
			c.Fn("writer", func() {
				for i := 0; i < 20; i++ {
					c.Store(cell, uint64(i))
				}
			})
		})
		th.Fn("reader", func() {
			for i := 0; i < 20; i++ {
				th.Load(cell)
				th.ReadDevice(dev, cell+1, 2)
				th.Load(cell + 1)
			}
		})
		th.Join(other)
	})
	if err != nil {
		t.Fatal(err)
	}
	if diffs := rmsOnly.Profile().Diff(disabled.Profile()); len(diffs) > 0 {
		t.Errorf("RMSOnly differs from disabled-options profile:\n%v", diffs)
	}
	if rmsOnly.GlobalShadowBytes() != 0 {
		t.Errorf("RMSOnly allocated %d bytes of global shadow", rmsOnly.GlobalShadowBytes())
	}
}

// TestPartialConfigLastWriterApproximation pins a documented approximation:
// with one induced source disabled, provenance is judged by the cell's LAST
// writer only. A kernel write followed by a (disabled) thread write makes
// the subsequent read non-induced, even though the kernel data was never
// seen. The naive reference shares the same convention (differential tests
// rely on it), so the behaviour is asserted here to keep it intentional.
func TestPartialConfigLastWriterApproximation(t *testing.T) {
	p := New(Options{DisableThreadInduced: true})
	n := NewNaive(Options{DisableThreadInduced: true})
	m := guest.NewMachine(guest.Config{Tools: []guest.Tool{p, n}})
	cell := m.Static(1)
	dev := m.NewDevice("d", nil)
	hs := newHandshake(m, "h")
	err := m.Run(func(th *guest.Thread) {
		writer := th.Spawn("w", func(c *guest.Thread) {
			c.P(hs.ready)
			c.Store(cell, 7) // overwrites the kernel's data
			c.V(hs.ack)
		})
		th.Fn("f", func() {
			th.Load(cell)               // first access
			th.ReadDevice(dev, cell, 1) // kernel write (external tracking ON)
			th.V(hs.ready)
			th.P(hs.ack) // thread write lands after the kernel's
			th.Load(cell)
		})
		th.Join(writer)
	})
	if err != nil {
		t.Fatal(err)
	}
	f := activations(t, p.Profile(), "f")
	// Last writer is the (disabled) thread, so the second read is NOT
	// counted induced — the kernel's intervening write is shadowed.
	if f.InducedExternal != 0 {
		t.Errorf("induced external = %d; last-writer approximation changed", f.InducedExternal)
	}
	if f.SumTRMS != 1 {
		t.Errorf("trms = %d, want 1 under the approximation", f.SumTRMS)
	}
	if diffs := p.Profile().Diff(n.Profile()); len(diffs) > 0 {
		t.Errorf("naive diverges from the documented convention:\n%v", diffs)
	}
}

// TestProfileMergeAcrossRuns: merging the profiles of two identical runs
// doubles every additive aggregate and preserves histogram support.
func TestProfileMergeAcrossRuns(t *testing.T) {
	runOnce := func(seed int64) *Profile {
		p := New(Options{})
		m := guest.NewMachine(guest.Config{Timeslice: 3, Tools: []guest.Tool{p}})
		cells := m.Static(16)
		dev := m.NewDevice("d", nil)
		if err := m.Run(func(th *guest.Thread) {
			k := th.Spawn("w", func(c *guest.Thread) {
				c.Fn("writer", func() {
					for i := 0; i < 12; i++ {
						c.Store(cells+guest.Addr(i%4), uint64(i)+uint64(seed))
					}
				})
			})
			th.Fn("reader", func() {
				for i := 0; i < 12; i++ {
					th.Load(cells + guest.Addr(i%4))
					th.ReadDevice(dev, cells+8, 2)
					th.Load(cells + 8)
				}
			})
			th.Join(k)
		}); err != nil {
			t.Fatal(err)
		}
		return p.Profile()
	}

	a, b := runOnce(1), runOnce(1)
	wantCalls := a.Routine("reader").Merged().Calls * 2
	wantTRMS := a.Routine("reader").Merged().SumTRMS * 2
	wantInduced := a.InducedExternal * 2

	a.Merge(b)
	got := a.Routine("reader").Merged()
	if got.Calls != wantCalls || got.SumTRMS != wantTRMS {
		t.Errorf("merged reader calls=%d trms=%d, want %d and %d", got.Calls, got.SumTRMS, wantCalls, wantTRMS)
	}
	if a.InducedExternal != wantInduced {
		t.Errorf("merged induced external = %d, want %d", a.InducedExternal, wantInduced)
	}
	// A histogram point present once per run now has doubled Calls.
	for n, pt := range b.Routine("reader").Merged().ByTRMS {
		if mp := got.ByTRMS[n]; mp == nil || mp.Calls != 2*pt.Calls {
			t.Errorf("merged point N=%d: %+v, want doubled calls of %+v", n, mp, pt)
		}
	}
	// Merging a routine absent from the target adds it wholesale.
	fresh := newProfile()
	fresh.Merge(b)
	if diffs := fresh.Diff(b); len(diffs) > 0 {
		t.Errorf("merge into empty profile not identity:\n%v", diffs)
	}
}
