package guest

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// recorder is a Tool that captures the event stream as strings.
type recorder struct {
	BaseTool
	env    Env
	events []string
}

func (r *recorder) Attach(env Env) { r.env = env }

func (r *recorder) add(format string, args ...any) {
	r.events = append(r.events, fmt.Sprintf(format, args...))
}

func (r *recorder) Call(t ThreadID, rt RoutineID, bb uint64) {
	r.add("call t%d %s", t, r.env.RoutineName(rt))
}
func (r *recorder) Return(t ThreadID, rt RoutineID, bb uint64) {
	r.add("ret t%d %s", t, r.env.RoutineName(rt))
}
func (r *recorder) MemBatch(t ThreadID, _ uint64, events []MemEvent) {
	for _, e := range events {
		kind := "read"
		if e.IsWrite() {
			kind = "write"
		}
		if e.IsKernel() {
			kind = "k" + kind
		}
		r.add("%s t%d %d", kind, t, e.Addr())
	}
}
func (r *recorder) SwitchThread(from, to ThreadID) { r.add("switch t%d->t%d", from, to) }
func (r *recorder) ThreadStart(t, p ThreadID)      { r.add("start t%d parent t%d", t, p) }
func (r *recorder) ThreadExit(t ThreadID)          { r.add("exit t%d", t) }
func (r *recorder) Sync(t ThreadID, k SyncKind, s SyncID) {
	r.add("sync t%d %s %s", t, k, r.env.SyncName(s))
}
func (r *recorder) Alloc(t ThreadID, base Addr, n int) { r.add("alloc t%d %d+%d", t, base, n) }
func (r *recorder) Free(t ThreadID, base Addr, n int)  { r.add("free t%d %d+%d", t, base, n) }

func (r *recorder) joined() string { return strings.Join(r.events, "\n") }

func TestSingleThreadEvents(t *testing.T) {
	rec := &recorder{}
	m := NewMachine(Config{Tools: []Tool{rec}})
	err := m.Run(func(th *Thread) {
		th.Fn("main", func() {
			th.Store(10, 42)
			if v := th.Load(10); v != 42 {
				t.Errorf("Load(10) = %d, want 42", v)
			}
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Join([]string{
		"start t1 parent t0",
		"call t1 main",
		"write t1 10",
		"read t1 10",
		"ret t1 main",
		"sync t1 release thread:main",
		"exit t1",
	}, "\n")
	if got := rec.joined(); got != want {
		t.Errorf("event stream:\n%s\nwant:\n%s", got, want)
	}
}

func TestBBAccounting(t *testing.T) {
	m := NewMachine(Config{})
	var atCall, atRet uint64
	err := m.Run(func(th *Thread) {
		th.Call("f")
		atCall = th.BB()
		th.Exec(100)
		th.Store(1, 1)
		th.Return()
		atRet = th.BB()
	})
	if err != nil {
		t.Fatal(err)
	}
	if atCall != 1 {
		t.Errorf("bb at call = %d, want 1", atCall)
	}
	// call(1) + exec(100) + store(1) + return(1)
	if atRet != 103 {
		t.Errorf("bb at return = %d, want 103", atRet)
	}
	if m.BBTotal() != 103 {
		t.Errorf("BBTotal = %d, want 103", m.BBTotal())
	}
}

func TestSpawnJoinOrdering(t *testing.T) {
	m := NewMachine(Config{Timeslice: 1})
	var order []string
	err := m.Run(func(th *Thread) {
		child := th.Spawn("child", func(c *Thread) {
			c.Fn("work", func() {
				c.Store(100, 7)
				order = append(order, "child")
			})
		})
		th.Join(child)
		order = append(order, "parent")
		if v := m.Peek(100); v != 7 {
			t.Errorf("child store not visible: %d", v)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(order, ","); got != "child,parent" {
		t.Errorf("order = %s, want child,parent", got)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []string {
		rec := &recorder{}
		m := NewMachine(Config{Timeslice: 3, Tools: []Tool{rec}})
		err := m.Run(func(th *Thread) {
			var kids []*Thread
			for i := 0; i < 4; i++ {
				base := Addr(1000 * (i + 1))
				kids = append(kids, th.Spawn(fmt.Sprintf("w%d", i), func(c *Thread) {
					c.Fn("work", func() {
						for j := 0; j < 20; j++ {
							c.Store(base+Addr(j), uint64(j))
							c.Load(base + Addr(j))
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
		return rec.events
	}
	a, b := run(), run()
	if strings.Join(a, "\n") != strings.Join(b, "\n") {
		t.Error("two identical runs produced different event streams")
	}
}

func TestTimesliceRotation(t *testing.T) {
	// With timeslice 2 and two busy threads, switches must interleave work.
	rec := &recorder{}
	m := NewMachine(Config{Timeslice: 2, Tools: []Tool{rec}})
	err := m.Run(func(th *Thread) {
		c := th.Spawn("busy", func(c *Thread) {
			for i := 0; i < 10; i++ {
				c.Store(Addr(2000+i), 1)
			}
		})
		for i := 0; i < 10; i++ {
			th.Store(Addr(3000+i), 1)
		}
		th.Join(c)
	})
	if err != nil {
		t.Fatal(err)
	}
	switches := 0
	for _, e := range rec.events {
		if strings.HasPrefix(e, "switch") {
			switches++
		}
	}
	if switches < 5 {
		t.Errorf("only %d thread switches with timeslice 2; want interleaving", switches)
	}
}

func TestMutexExclusionAndCounter(t *testing.T) {
	m := NewMachine(Config{Timeslice: 1})
	mu := m.NewMutex("ctr")
	ctr := m.Static(1)
	const perThread = 50
	err := m.Run(func(th *Thread) {
		var kids []*Thread
		for i := 0; i < 4; i++ {
			kids = append(kids, th.Spawn(fmt.Sprintf("inc%d", i), func(c *Thread) {
				for j := 0; j < perThread; j++ {
					c.WithLock(mu, func() {
						c.Store(ctr, c.Load(ctr)+1)
					})
				}
			}))
		}
		for _, k := range kids {
			th.Join(k)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Peek(ctr); got != 4*perThread {
		t.Errorf("counter = %d, want %d", got, 4*perThread)
	}
}

func TestSemProducerConsumer(t *testing.T) {
	m := NewMachine(Config{Timeslice: 1})
	empty := m.NewSem("empty", 1)
	full := m.NewSem("full", 0)
	cell := m.Static(1)
	const n = 25
	var sum uint64
	err := m.Run(func(th *Thread) {
		prod := th.Spawn("producer", func(p *Thread) {
			for i := uint64(1); i <= n; i++ {
				p.P(empty)
				p.Store(cell, i)
				p.V(full)
			}
		})
		cons := th.Spawn("consumer", func(c *Thread) {
			for i := 0; i < n; i++ {
				c.P(full)
				sum += c.Load(cell)
				c.V(empty)
			}
		})
		th.Join(prod)
		th.Join(cons)
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(n * (n + 1) / 2); sum != want {
		t.Errorf("sum = %d, want %d", sum, want)
	}
}

func TestCondQueue(t *testing.T) {
	m := NewMachine(Config{Timeslice: 2})
	q := m.NewQueue("q", 4)
	const n = 40
	var got []uint64
	err := m.Run(func(th *Thread) {
		prod := th.Spawn("prod", func(p *Thread) {
			for i := uint64(0); i < n; i++ {
				p.Put(q, i*i)
			}
			p.Close(q)
		})
		cons := th.Spawn("cons", func(c *Thread) {
			for {
				v, ok := c.Get(q)
				if !ok {
					return
				}
				got = append(got, v)
			}
		})
		th.Join(prod)
		th.Join(cons)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != n {
		t.Fatalf("consumed %d values, want %d", len(got), n)
	}
	for i, v := range got {
		if v != uint64(i*i) {
			t.Fatalf("got[%d] = %d, want %d (FIFO order violated)", i, v, i*i)
		}
	}
}

func TestBarrierPhases(t *testing.T) {
	m := NewMachine(Config{Timeslice: 1})
	const workers, phases = 4, 5
	bar := m.NewBarrier("phase", workers)
	marks := m.Static(workers * phases)
	err := m.Run(func(th *Thread) {
		var kids []*Thread
		for w := 0; w < workers; w++ {
			kids = append(kids, th.Spawn(fmt.Sprintf("w%d", w), func(c *Thread) {
				for ph := 0; ph < phases; ph++ {
					// Every worker checks that all marks of the previous
					// phase are set before writing its own.
					if ph > 0 {
						for i := 0; i < workers; i++ {
							if c.Load(marks+Addr((ph-1)*workers+i)) != 1 {
								t.Errorf("worker saw incomplete phase %d", ph-1)
							}
						}
					}
					c.Store(marks+Addr(ph*workers+w), 1)
					c.Arrive(bar)
				}
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

func TestDeadlockDetection(t *testing.T) {
	m := NewMachine(Config{})
	s := m.NewSem("never", 0)
	err := m.Run(func(th *Thread) {
		th.P(s) // nobody will ever V
	})
	if err == nil || !strings.Contains(err.Error(), "deadlock") {
		t.Errorf("err = %v, want deadlock error", err)
	}
}

func TestGuestPanicBecomesError(t *testing.T) {
	m := NewMachine(Config{})
	err := m.Run(func(th *Thread) {
		panic("boom")
	})
	if err == nil || !strings.Contains(err.Error(), "boom") {
		t.Errorf("err = %v, want panic error", err)
	}
}

func TestUnbalancedCallIsError(t *testing.T) {
	m := NewMachine(Config{})
	err := m.Run(func(th *Thread) {
		th.Call("f") // never returns
	})
	if err == nil || !strings.Contains(err.Error(), "unreturned") {
		t.Errorf("err = %v, want unreturned-activation error", err)
	}
}

func TestDeviceStreams(t *testing.T) {
	rec := &recorder{}
	m := NewMachine(Config{Tools: []Tool{rec}})
	dev := m.NewDevice("disk", func(i uint64) uint64 { return i + 100 })
	buf := m.Static(4)
	err := m.Run(func(th *Thread) {
		th.Fn("io", func() {
			th.ReadDevice(dev, buf, 4)
			sum := uint64(0)
			for i := 0; i < 4; i++ {
				sum += th.Load(buf + Addr(i))
			}
			th.Store(buf, sum)
			th.WriteDevice(dev, buf, 1)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	if dev.Consumed() != 4 {
		t.Errorf("device consumed %d, want 4", dev.Consumed())
	}
	if dev.Written() != 1 {
		t.Errorf("device written %d, want 1", dev.Written())
	}
	if got := m.Peek(buf); got != 100+101+102+103 {
		t.Errorf("sum = %d", got)
	}
	var kws, krs int
	for _, e := range rec.events {
		if strings.HasPrefix(e, "kwrite") {
			kws++
		}
		if strings.HasPrefix(e, "kread") {
			krs++
		}
	}
	if kws != 4 || krs != 1 {
		t.Errorf("kernel events: %d writes, %d reads; want 4, 1", kws, krs)
	}
}

func TestAllocFree(t *testing.T) {
	rec := &recorder{}
	m := NewMachine(Config{Tools: []Tool{rec}})
	err := m.Run(func(th *Thread) {
		a := th.Alloc(8)
		b := th.Alloc(8)
		if a == b {
			t.Error("Alloc returned overlapping blocks")
		}
		th.Store(a, 1)
		th.Free(a)
		th.Free(b)
	})
	if err != nil {
		t.Fatal(err)
	}
	var allocs, frees int
	for _, e := range rec.events {
		if strings.HasPrefix(e, "alloc") {
			allocs++
		}
		if strings.HasPrefix(e, "free") {
			frees++
		}
	}
	if allocs != 2 || frees != 2 {
		t.Errorf("allocs=%d frees=%d, want 2,2", allocs, frees)
	}
}

func TestDoubleFreePanics(t *testing.T) {
	m := NewMachine(Config{})
	err := m.Run(func(th *Thread) {
		a := th.Alloc(4)
		th.Free(a)
		th.Free(a)
	})
	if err == nil || !strings.Contains(err.Error(), "Free") {
		t.Errorf("err = %v, want double-free error", err)
	}
}

func TestOpsMonotone(t *testing.T) {
	m := NewMachine(Config{})
	var mid uint64
	err := m.Run(func(th *Thread) {
		th.Store(1, 1)
		mid = m.Ops()
		th.Load(1)
	})
	if err != nil {
		t.Fatal(err)
	}
	if mid == 0 || m.Ops() <= mid {
		t.Errorf("ops not monotone: mid=%d end=%d", mid, m.Ops())
	}
}

func TestRunTwiceFails(t *testing.T) {
	m := NewMachine(Config{})
	if err := m.Run(func(th *Thread) {}); err != nil {
		t.Fatal(err)
	}
	if err := m.Run(func(th *Thread) {}); err == nil {
		t.Error("second Run succeeded, want error")
	}
}

func TestManyThreadsStress(t *testing.T) {
	m := NewMachine(Config{Timeslice: 7})
	const workers = 32
	total := m.Static(workers)
	err := m.Run(func(th *Thread) {
		var kids []*Thread
		for w := 0; w < workers; w++ {
			slot := total + Addr(w)
			kids = append(kids, th.Spawn(fmt.Sprintf("w%d", w), func(c *Thread) {
				acc := uint64(0)
				for i := 0; i < 100; i++ {
					c.Exec(1)
					acc += uint64(i)
				}
				c.Store(slot, acc)
			}))
		}
		for _, k := range kids {
			th.Join(k)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < workers; w++ {
		if got := m.Peek(total + Addr(w)); got != 4950 {
			t.Errorf("worker %d sum = %d, want 4950", w, got)
		}
	}
}

// panickyTool panics inside a configurable hook after a countdown — the
// regression guard for the mid-handoff abort bug: a tool panic during the
// switchThread emission used to leave the handoff target parked forever.
type panickyTool struct {
	BaseTool
	onSwitch  bool
	countdown int
}

func (p *panickyTool) SwitchThread(from, to ThreadID) {
	if p.onSwitch {
		p.countdown--
		if p.countdown <= 0 {
			panic("tool exploded in SwitchThread")
		}
	}
}

func (p *panickyTool) MemBatch(ThreadID, uint64, []MemEvent) {
	if !p.onSwitch {
		p.countdown--
		if p.countdown <= 0 {
			panic("tool exploded in MemBatch")
		}
	}
}

func TestToolPanicAbortsCleanly(t *testing.T) {
	for _, onSwitch := range []bool{true, false} {
		for _, countdown := range []int{1, 3, 7} {
			m := NewMachine(Config{Timeslice: 2, Tools: []Tool{&panickyTool{onSwitch: onSwitch, countdown: countdown}}})
			cells := m.Static(8)
			done := make(chan error, 1)
			go func() {
				done <- m.Run(func(th *Thread) {
					var kids []*Thread
					for w := 0; w < 3; w++ {
						base := cells + Addr(w)
						kids = append(kids, th.Spawn(fmt.Sprintf("w%d", w), func(c *Thread) {
							for i := 0; i < 30; i++ {
								c.Store(base, uint64(i))
								c.Load(base)
							}
						}))
					}
					for _, k := range kids {
						th.Join(k)
					}
				})
			}()
			select {
			case err := <-done:
				if err == nil || !strings.Contains(err.Error(), "exploded") {
					t.Errorf("onSwitch=%v countdown=%d: err = %v, want tool panic error", onSwitch, countdown, err)
				}
			case <-time.After(10 * time.Second):
				t.Fatalf("onSwitch=%v countdown=%d: machine hung after tool panic", onSwitch, countdown)
			}
		}
	}
}
