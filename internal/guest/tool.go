package guest

// Env gives tools access to the interned names of the event stream they
// observe. A live Machine implements Env; a trace replayer provides one from
// the recorded name tables, so tools work identically online and offline.
type Env interface {
	// RoutineName resolves an interned routine id.
	RoutineName(RoutineID) string
	// SyncName resolves a synchronization-object id.
	SyncName(SyncID) string
	// NumRoutines and NumSyncs bound the id spaces seen so far.
	NumRoutines() int
	NumSyncs() int
	// Now returns the current event timestamp: a value that increases
	// monotonically across the event stream (the machine's operation
	// counter online, the recorded timestamp during replay).
	Now() uint64
}

// Tool is the analysis-tool callback interface, the analog of a Valgrind
// tool's instrumentation hooks. The machine invokes the hooks synchronously,
// in guest execution order; because guest threads are serialized, hooks never
// run concurrently.
//
// The bb arguments of Call and Return carry the calling thread's cumulative
// basic-block count at the instant of the event, so tools can compute
// per-activation cumulative costs without tracking every block.
type Tool interface {
	// Attach is invoked once before execution starts.
	Attach(env Env)

	// Call reports that thread t activated routine r.
	Call(t ThreadID, r RoutineID, bb uint64)
	// Return reports that thread t completed its topmost activation of r.
	Return(t ThreadID, r RoutineID, bb uint64)

	// MemBatch reports a batch of memory accesses by thread t: its loads
	// and stores and the kernel's reads and writes of its buffers (I/O on
	// its behalf), in execution order. The batch contract: every event
	// belongs to thread t, the i-th event happened at timestamp
	// startTS+i, and no other event falls between two events of one
	// batch: the machine flushes its pending batch before every other
	// hook, so a tool observes exactly the sequential event order. How
	// the stream is cut into batches is arbitrary, down to one event per
	// call. The slice is only valid during the call: a tool must neither
	// retain it nor hand it to another goroutine. Breaking this is
	// undefined behaviour, not merely stale data: a batch may live in its
	// caller's stack frame (trace.Dispatch's does), which the runtime
	// reuses or moves once the call returns.
	MemBatch(t ThreadID, startTS uint64, events []MemEvent)

	// SwitchThread reports a scheduler handoff between two guest threads.
	SwitchThread(from, to ThreadID)

	// ThreadStart and ThreadExit bracket a guest thread's lifetime.
	// ThreadStart(t, parent) happens after parent's spawning operation;
	// parent is 0 for the main thread.
	ThreadStart(t, parent ThreadID)
	ThreadExit(t ThreadID)

	// Sync reports a synchronization event on object s: release events
	// publish thread t's progress to s, acquire events import it.
	Sync(t ThreadID, kind SyncKind, s SyncID)

	// Alloc and Free report guest heap activity.
	Alloc(t ThreadID, base Addr, n int)
	Free(t ThreadID, base Addr, n int)

	// Finish is invoked once after the last guest thread exits.
	Finish()
}

// MemEvent is one packed memory-access event of a batch: the accessed
// address in the low bits and the access kind in the top two bits (store in
// bit 63, kernel-mediated in bit 62). Addresses are confined to the shadowed
// address space (well below bit 62), so the packing is lossless. The event's
// timestamp is implicit: the i-th event of a batch carries the batch's start
// timestamp plus i, because the machine bumps its operation counter once per
// event and flushes the batch before any non-memory event can intervene.
type MemEvent uint64

// memEventWrite marks a MemEvent as a store (a thread write, or the kernel
// filling a cell); loads leave the bit clear. memEventKernel marks the
// access as kernel-mediated I/O.
const (
	memEventWrite  MemEvent = 1 << 63
	memEventKernel MemEvent = 1 << 62
)

// ReadEvent packs a load of address a.
func ReadEvent(a Addr) MemEvent { return MemEvent(a) }

// WriteEvent packs a store to address a.
func WriteEvent(a Addr) MemEvent { return MemEvent(a) | memEventWrite }

// KernelReadEvent packs a kernel read of cell a on a thread's behalf.
func KernelReadEvent(a Addr) MemEvent { return MemEvent(a) | memEventKernel }

// KernelWriteEvent packs a kernel write of cell a on a thread's behalf.
func KernelWriteEvent(a Addr) MemEvent { return MemEvent(a) | memEventWrite | memEventKernel }

// Addr returns the accessed address.
func (e MemEvent) Addr() Addr { return Addr(e &^ (memEventWrite | memEventKernel)) }

// IsWrite reports whether the event stores to the cell (a thread write or a
// kernel write; false: a load by the thread or the kernel).
func (e MemEvent) IsWrite() bool { return e&memEventWrite != 0 }

// IsKernel reports whether the access is kernel-mediated I/O.
func (e MemEvent) IsKernel() bool { return e&memEventKernel != 0 }

// BaseTool is a Tool with no-op hooks, intended for embedding so tools only
// implement the events they care about.
type BaseTool struct{}

// Attach implements Tool.
func (BaseTool) Attach(Env) {}

// Call implements Tool.
func (BaseTool) Call(ThreadID, RoutineID, uint64) {}

// Return implements Tool.
func (BaseTool) Return(ThreadID, RoutineID, uint64) {}

// MemBatch implements Tool.
func (BaseTool) MemBatch(ThreadID, uint64, []MemEvent) {}

// SwitchThread implements Tool.
func (BaseTool) SwitchThread(ThreadID, ThreadID) {}

// ThreadStart implements Tool.
func (BaseTool) ThreadStart(ThreadID, ThreadID) {}

// ThreadExit implements Tool.
func (BaseTool) ThreadExit(ThreadID) {}

// Sync implements Tool.
func (BaseTool) Sync(ThreadID, SyncKind, SyncID) {}

// Alloc implements Tool.
func (BaseTool) Alloc(ThreadID, Addr, int) {}

// Free implements Tool.
func (BaseTool) Free(ThreadID, Addr, int) {}

// Finish implements Tool.
func (BaseTool) Finish() {}

// Event dispatch helpers. Each guest operation funnels through exactly one of
// these, which also advance the machine's operation counter.
//
// Memory accesses — the bulk of any event stream, including kernel-mediated
// I/O — do not fan out to the tools one dynamic-interface call at a time.
// They accumulate into the machine's fixed-size event ring (kind and address
// packed into one word, thread and start timestamp held once per batch) and
// flush to the tools at the first non-memory event, when the ring fills, or
// at the end of the run. All flush points are scheduling boundaries where
// the profiler's shadow stacks change anyway (call/return, thread switch) or
// events that carry their own tool state (sync, alloc/free, thread
// lifecycle), so batching never reorders events and tools observe identical
// streams.

// memBatchCap is the event ring's capacity. The fair scheduler rotates
// threads every Config.Timeslice operations (default 100), so a larger ring
// only matters for long single-threaded stretches of loads and stores.
const memBatchCap = 256

// The emit helpers append memory events to the pending batch directly (the
// append is open-coded in each helper so the hot path costs no extra call):
// the event is stored at the ring's write index — masked, which also proves
// the store in bounds — and one unsigned compare against m.batchEdge
// (Config.BatchMax - 2, so the flush fires once BatchMax events are
// pending; memBatchCap-2 by default) routes both rare cases (first event
// of a batch, batch full) to bufferMemEdge. The caller has already
// advanced m.ops, so a batch's events have consecutive timestamps starting
// at batchStart. With no tool attached (a native run) they only count the
// event.
//
// bufferMemEdge handles the ring's boundary cases out of line. Memory events
// are only emitted by the executing thread, so the batch's issuing thread is
// always m.running.
//
//go:noinline
func (m *Machine) bufferMemEdge() {
	if m.batchLen == 1 {
		m.batchThread = m.running
		m.batchStart = m.ops
		return
	}
	m.flushMem()
}

// flushMem hands the pending memory-event batch to every tool.
func (m *Machine) flushMem() {
	if m.batchLen == 0 {
		return
	}
	evs := m.batch[:m.batchLen]
	m.batchLen = 0
	m.stats.memEvents += uint64(len(evs)) // hoisted per-event tally: one add per flush
	m.stats.flushes++
	for _, tl := range m.tools {
		tl.MemBatch(m.batchThread, m.batchStart, evs)
	}
}

func (m *Machine) emitCall(t ThreadID, r RoutineID, bb uint64) {
	m.ops++
	m.stats.calls++
	m.flushMem()
	for _, tl := range m.tools {
		tl.Call(t, r, bb)
	}
}

func (m *Machine) emitReturn(t ThreadID, r RoutineID, bb uint64) {
	m.ops++
	m.stats.returns++
	m.flushMem()
	for _, tl := range m.tools {
		tl.Return(t, r, bb)
	}
}

func (m *Machine) emitRead(a Addr) {
	m.ops++
	if m.noTools {
		m.stats.memEvents++
		return
	}
	n := m.batchLen
	m.batch[n&(memBatchCap-1)] = ReadEvent(a)
	m.batchLen = n + 1
	if n-1 >= m.batchEdge {
		m.bufferMemEdge()
	}
}

func (m *Machine) emitWrite(a Addr) {
	m.ops++
	if m.noTools {
		m.stats.memEvents++
		return
	}
	n := m.batchLen
	m.batch[n&(memBatchCap-1)] = WriteEvent(a)
	m.batchLen = n + 1
	if n-1 >= m.batchEdge {
		m.bufferMemEdge()
	}
}

func (m *Machine) emitKernelRead(a Addr) {
	m.ops++
	m.stats.kernelEvents++
	if m.noTools {
		m.stats.memEvents++
		return
	}
	n := m.batchLen
	m.batch[n&(memBatchCap-1)] = KernelReadEvent(a)
	m.batchLen = n + 1
	if n-1 >= m.batchEdge {
		m.bufferMemEdge()
	}
}

func (m *Machine) emitKernelWrite(a Addr) {
	m.ops++
	m.stats.kernelEvents++
	if m.noTools {
		m.stats.memEvents++
		return
	}
	n := m.batchLen
	m.batch[n&(memBatchCap-1)] = KernelWriteEvent(a)
	m.batchLen = n + 1
	if n-1 >= m.batchEdge {
		m.bufferMemEdge()
	}
}

func (m *Machine) emitSwitch(from, to ThreadID) {
	m.ops++
	m.stats.switches++
	m.flushMem()
	for _, tl := range m.tools {
		tl.SwitchThread(from, to)
	}
}

func (m *Machine) emitThreadStart(t, parent ThreadID) {
	m.ops++
	m.flushMem()
	for _, tl := range m.tools {
		tl.ThreadStart(t, parent)
	}
}

func (m *Machine) emitThreadExit(t ThreadID) {
	m.ops++
	m.flushMem()
	for _, tl := range m.tools {
		tl.ThreadExit(t)
	}
}

func (m *Machine) emitSync(t ThreadID, kind SyncKind, s SyncID) {
	m.ops++
	m.flushMem()
	for _, tl := range m.tools {
		tl.Sync(t, kind, s)
	}
}

func (m *Machine) emitAlloc(t ThreadID, base Addr, n int) {
	m.ops++
	m.flushMem()
	for _, tl := range m.tools {
		tl.Alloc(t, base, n)
	}
}

func (m *Machine) emitFree(t ThreadID, base Addr, n int) {
	m.ops++
	m.flushMem()
	for _, tl := range m.tools {
		tl.Free(t, base, n)
	}
}
