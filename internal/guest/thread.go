package guest

import "fmt"

// Thread is a guest thread. All guest-visible actions — routine activations,
// memory accesses, synchronization, I/O — go through Thread methods, which
// report them to the attached tools. A Thread must only be used from the
// guest function it was handed to.
type Thread struct {
	m      *Machine
	id     ThreadID
	name   string
	parent ThreadID
	syncID SyncID // implicit sync object released at exit, acquired by Join

	state     threadState
	blockedOn string
	resume    chan struct{}

	bb    uint64 // cumulative basic blocks executed by this thread
	slice int    // remaining scheduler quantum, in guest operations

	stack   []RoutineID
	joiners []*Thread
}

// ID returns the thread's identifier. The main thread is 1.
func (th *Thread) ID() ThreadID { return th.id }

// Name returns the thread's diagnostic name.
func (th *Thread) Name() string { return th.name }

// Machine returns the machine executing this thread.
func (th *Thread) Machine() *Machine { return th.m }

// BB returns the thread's cumulative basic-block count.
func (th *Thread) BB() uint64 { return th.bb }

// Depth returns the current call-stack depth.
func (th *Thread) Depth() int { return len(th.stack) }

// run is the goroutine body hosting a guest thread.
func (th *Thread) run(body func(*Thread)) {
	<-th.resume
	defer func() {
		if r := recover(); r != nil && r != errAborted { //nolint:errorlint // sentinel identity is intended
			th.m.abort(fmt.Errorf("guest: thread %s(#%d) panicked: %v", th.name, th.id, r), th)
		}
		th.exit()
	}()
	th.slice = th.m.cfg.Timeslice
	th.checkAborted()
	body(th)
	if len(th.stack) != 0 {
		panic(fmt.Sprintf("guest: thread %s exited with %d unreturned routine activations", th.name, len(th.stack)))
	}
}

// exit retires the thread: it reports the exit, wakes joiners, and either
// hands off to the next runnable thread or, if it was the last live thread,
// completes the run.
func (th *Thread) exit() {
	m := th.m
	th.state = threadDone

	m.sched.exitMu.Lock()
	m.sched.live--
	last := m.sched.live == 0
	m.sched.exitMu.Unlock()

	if m.aborted != nil {
		if last {
			close(m.sched.done)
		}
		return
	}

	m.emitSync(th.id, SyncRelease, th.syncID)
	m.emitThreadExit(th.id)
	for _, j := range th.joiners {
		m.wake(j)
	}
	th.joiners = nil

	if last {
		close(m.sched.done)
		return
	}
	next := m.sched.pick()
	if next == nil {
		m.abort(fmt.Errorf("guest: deadlock after thread %s(#%d) exited: %s", th.name, th.id, m.deadlockState()), th)
		return
	}
	m.handoff(th, next)
}

// step accounts one guest operation's basic block and runs the scheduler
// quantum. Every Thread operation calls it exactly once. The rare cases
// (quantum expired, machine aborted) share one predicted-untaken branch so
// the common path stays under the inlining budget.
func (th *Thread) step() {
	th.bb++
	th.slice--
	if th.slice <= 0 || th.m.aborted != nil {
		th.stepSlow()
	}
}

// stepSlow must stay out of line so step itself fits the inlining budget.
//
//go:noinline
func (th *Thread) stepSlow() {
	th.checkAborted()
	if th.slice <= 0 {
		th.yield()
	}
}

// Exec accounts for n basic blocks of pure computation (no memory traffic).
func (th *Thread) Exec(n int) {
	if n <= 0 {
		th.checkAborted()
		return
	}
	th.bb += uint64(n)
	th.slice--
	if th.slice <= 0 || th.m.aborted != nil {
		th.stepSlow()
	}
}

// Yield voluntarily releases the processor to the next runnable thread.
func (th *Thread) Yield() {
	th.checkAborted()
	th.yield()
}

// Call activates the routine with the given name.
func (th *Thread) Call(name string) {
	th.step()
	id := th.m.intern(name)
	th.stack = append(th.stack, id)
	th.m.emitCall(th.id, id, th.bb)
}

// Return completes the topmost routine activation.
func (th *Thread) Return() {
	th.step()
	if len(th.stack) == 0 {
		panic("guest: Return with empty call stack")
	}
	id := th.stack[len(th.stack)-1]
	th.stack = th.stack[:len(th.stack)-1]
	th.m.emitReturn(th.id, id, th.bb)
}

// Fn runs body as an activation of the named routine.
func (th *Thread) Fn(name string, body func()) {
	th.Call(name)
	body()
	th.Return()
}

// Load reads the memory cell at a and returns its value.
func (th *Thread) Load(a Addr) uint64 {
	th.step()
	v := th.m.mem.load(a)
	th.m.emitRead(a)
	return v
}

// Store writes v to the memory cell at a.
func (th *Thread) Store(a Addr, v uint64) {
	th.step()
	th.m.mem.store(a, v)
	th.m.emitWrite(a)
}

// Spawn starts a new guest thread running body and returns its handle.
func (th *Thread) Spawn(name string, body func(*Thread)) *Thread {
	th.step()
	child := th.m.newThread(th.id, name, body)
	th.m.emitThreadStart(child.id, th.id)
	th.m.sched.enqueue(child)
	return child
}

// Join blocks until the given thread has exited.
func (th *Thread) Join(other *Thread) {
	th.step()
	if other.m != th.m {
		panic("guest: Join across machines")
	}
	for other.state != threadDone {
		other.joiners = append(other.joiners, th)
		th.block("join:" + other.name)
	}
	th.m.emitSync(th.id, SyncAcquire, other.syncID)
}
