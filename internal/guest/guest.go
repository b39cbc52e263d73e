// Package guest implements a deterministic virtual machine that plays the
// role Valgrind plays for the paper's profiler: it runs multithreaded guest
// programs serialized under a fair scheduler and reports every observable
// action (routine calls and returns, memory loads and stores, kernel-mediated
// I/O, thread switches, synchronization) to attached analysis tools.
//
// Guest programs are ordinary Go functions written against the Thread API.
// They operate on a virtual word-addressed memory, so that the instrumented
// event stream — not native Go execution — defines program behaviour. The
// machine serializes guest threads exactly as Valgrind does: a single thread
// runs at a time and the scheduler rotates threads round-robin after a fixed
// timeslice of guest operations, yielding a total order over all events.
// Execution is fully deterministic for a given program and configuration.
//
// Cost is measured in basic blocks (BB), following the paper: every guest
// operation accounts for the basic block that contains it, and Exec(n) lets
// programs account for n blocks of pure computation.
package guest

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/telemetry"
)

// Addr is a virtual memory address. Each address names one memory cell
// (one machine word), the unit at which the paper counts input sizes.
type Addr uint64

// ThreadID identifies a guest thread. The main thread is always 1.
// KernelThread is a reserved pseudo-id used by tools to attribute
// kernel-mediated writes.
type ThreadID int32

// KernelThread is the pseudo thread id representing the operating system
// kernel in event streams (kernelWrite provenance).
const KernelThread ThreadID = 0

// RoutineID identifies an interned routine name within a Machine.
type RoutineID uint32

// SyncID identifies a synchronization object (semaphore, mutex, condition
// variable, ...) within a Machine.
type SyncID uint32

// SyncKind classifies synchronization events for happens-before analyses.
type SyncKind uint8

// Synchronization event kinds. Release events publish the current thread's
// state to the object; acquire events import the object's state.
const (
	SyncRelease SyncKind = iota
	SyncAcquire
)

func (k SyncKind) String() string {
	switch k {
	case SyncRelease:
		return "release"
	case SyncAcquire:
		return "acquire"
	default:
		return fmt.Sprintf("SyncKind(%d)", uint8(k))
	}
}

// Config parameterizes a Machine.
type Config struct {
	// Timeslice is the number of guest operations a thread may execute
	// before the scheduler rotates to the next runnable thread. This is
	// the analog of Valgrind's fair scheduler quantum. Zero selects
	// DefaultTimeslice.
	Timeslice int

	// Tools are the analysis tools attached to the machine. Every guest
	// event is dispatched to each tool in order.
	Tools []Tool

	// SchedSeed selects among legal interleavings: when non-zero, the
	// scheduler picks the next runnable thread pseudo-randomly (fair in
	// expectation) instead of round-robin. Execution remains fully
	// deterministic for a given seed; different seeds explore different
	// interleavings, the online analog of the trace merger's arbitrary
	// tie-breaking.
	SchedSeed int64

	// BatchMax caps how many memory events accumulate in the batch ring
	// before a flush. Zero selects the ring's full capacity (256); other
	// values are clamped to [2, 256]. Tools observe identical event
	// streams for every value — the cap changes only how the stream is
	// chopped into MemBatch calls — which makes it a don't-care parameter
	// the metamorphic invariant harness perturbs.
	BatchMax int

	// Telemetry, when non-nil, receives the machine's self-metrics
	// (guest/* counters: operations, memory events, batch flushes, thread
	// switches, kernel I/O) at the end of the run. The machine keeps plain
	// local tallies during execution and publishes them once, so enabling
	// telemetry adds no per-event atomic traffic; nil disables publication
	// entirely.
	Telemetry *telemetry.Registry
}

// DefaultTimeslice is the scheduler quantum, in guest operations, used when
// Config.Timeslice is zero.
const DefaultTimeslice = 100

// Machine is a virtual machine executing one guest program.
//
// A Machine is not safe for concurrent use; Run drives all guest threads on
// internal goroutines but serializes them, and must be called at most once.
type Machine struct {
	cfg   Config
	tools []Tool

	mem        *memory
	heap       *heap
	staticNext Addr

	routines     map[string]RoutineID
	routineNames []string

	syncNames []string

	threads []*Thread // index = ThreadID-1
	sched   scheduler

	ops uint64 // total guest operations (event timestamp source)

	running  ThreadID // currently executing thread, 0 if none
	aborted  error    // non-nil once the run failed (deadlock, guest panic)
	finished bool

	// Batched memory-event dispatch (see the emit helpers in tool.go):
	// memory events accumulate into the fixed-size batch ring and flush
	// at the next non-memory event. noTools skips the ring when no tool
	// would receive the batch.
	noTools     bool
	batchEdge   uint32 // flush trigger: BatchMax-2 (see the emit helpers)
	batch       [memBatchCap]MemEvent
	batchLen    uint32
	batchThread ThreadID // thread that issued the pending batch
	batchStart  uint64   // ops value of the batch's first event

	// Self-telemetry tallies (see Config.Telemetry). Plain counters: the
	// machine is serialized, and they are published to the registry only
	// at the end of the run. Memory events are tallied per batch flush,
	// not per event, so the batched hot path stays untouched.
	stats guestStats

	// Aux is scratch storage for guest-program frameworks built on top of
	// the machine (e.g. the workload library's OpenMP-style thread team).
	Aux any
}

// NewMachine returns a machine ready to Run a guest program under cfg.
func NewMachine(cfg Config) *Machine {
	if cfg.Timeslice <= 0 {
		cfg.Timeslice = DefaultTimeslice
	}
	m := &Machine{
		cfg:      cfg,
		tools:    cfg.Tools,
		mem:      newMemory(),
		routines: make(map[string]RoutineID),
	}
	m.noTools = len(cfg.Tools) == 0
	batchMax := cfg.BatchMax
	if batchMax <= 0 || batchMax > memBatchCap {
		batchMax = memBatchCap
	}
	if batchMax < 2 {
		batchMax = 2
	}
	m.batchEdge = uint32(batchMax - 2)
	m.heap = newHeap(m)
	if cfg.SchedSeed != 0 {
		m.sched.rng = rand.New(rand.NewSource(cfg.SchedSeed))
	}
	return m
}

// RoutineName returns the interned name for id. It is valid during and after
// a run.
func (m *Machine) RoutineName(id RoutineID) string {
	if int(id) >= len(m.routineNames) {
		return fmt.Sprintf("routine#%d", id)
	}
	return m.routineNames[id]
}

// RoutineIDByName reports the id interned for name, if any.
func (m *Machine) RoutineIDByName(name string) (RoutineID, bool) {
	id, ok := m.routines[name]
	return id, ok
}

// NumRoutines returns the number of interned routine names.
func (m *Machine) NumRoutines() int { return len(m.routineNames) }

// SyncName returns a diagnostic name for a synchronization object.
func (m *Machine) SyncName(id SyncID) string {
	if int(id) >= len(m.syncNames) {
		return fmt.Sprintf("sync#%d", id)
	}
	return m.syncNames[id]
}

// Ops returns the total number of guest operations executed so far. It is
// the timestamp source for trace recording.
func (m *Machine) Ops() uint64 { return m.ops }

// Now implements Env: the current event timestamp is the operation counter.
func (m *Machine) Now() uint64 { return m.ops }

// NumSyncs returns the number of synchronization objects created so far.
func (m *Machine) NumSyncs() int { return len(m.syncNames) }

// BBTotal returns the total number of basic blocks executed by all threads.
// It is computed by summing the per-thread counters, which keeps a
// machine-global read-modify-write off the per-operation path.
func (m *Machine) BBTotal() uint64 {
	var total uint64
	for _, th := range m.threads {
		total += th.bb
	}
	return total
}

// NumThreads returns the number of guest threads ever started.
func (m *Machine) NumThreads() int { return len(m.threads) }

// MemoryFootprint returns the number of distinct memory pages touched and the
// number of words they hold, a proxy for the native memory of the guest.
func (m *Machine) MemoryFootprint() (pages int, words int) {
	return m.mem.footprint()
}

func (m *Machine) intern(name string) RoutineID {
	if id, ok := m.routines[name]; ok {
		return id
	}
	id := RoutineID(len(m.routineNames))
	m.routines[name] = id
	m.routineNames = append(m.routineNames, name)
	return id
}

func (m *Machine) newSyncID(name string) SyncID {
	id := SyncID(len(m.syncNames))
	m.syncNames = append(m.syncNames, name)
	return id
}

// Run executes body as the main guest thread and returns once every guest
// thread has terminated. It returns an error if the guest deadlocks or a
// guest thread panics.
func (m *Machine) Run(body func(*Thread)) error {
	if m.finished {
		return fmt.Errorf("guest: machine already ran")
	}
	for _, t := range m.tools {
		t.Attach(m)
	}
	main := m.newThread(0, "main", body)
	m.sched.setRunning(main)
	m.running = main.id
	m.emitThreadStart(main.id, 0)
	main.resume <- struct{}{}
	<-m.sched.done
	m.finished = true
	m.flushMem()
	for _, t := range m.tools {
		t.Finish()
	}
	m.publishTelemetry()
	return m.aborted
}

// guestStats holds the machine's plain (non-atomic) self-metric tallies.
type guestStats struct {
	memEvents    uint64 // memory events dispatched to tools (incl. kernel I/O)
	kernelEvents uint64 // kernel-mediated subset of memEvents
	flushes      uint64 // batch flushes (batched mode only)
	switches     uint64 // scheduler handoffs
	calls        uint64 // routine activations
	returns      uint64 // routine completions
}

// publishTelemetry pushes the end-of-run tallies into Config.Telemetry.
// Counters accumulate, so several machines sharing one registry (e.g. an
// experiment sweep) sum their totals.
func (m *Machine) publishTelemetry() {
	reg := m.cfg.Telemetry
	if reg == nil {
		return
	}
	reg.Counter("guest/ops").Add(m.ops)
	reg.Counter("guest/bb_total").Add(m.BBTotal())
	reg.Counter("guest/mem_events").Add(m.stats.memEvents)
	reg.Counter("guest/kernel_io").Add(m.stats.kernelEvents)
	reg.Counter("guest/batch_flushes").Add(m.stats.flushes)
	reg.Counter("guest/thread_switches").Add(m.stats.switches)
	reg.Counter("guest/calls").Add(m.stats.calls)
	reg.Counter("guest/returns").Add(m.stats.returns)
	reg.Counter("guest/threads_started").Add(uint64(len(m.threads)))
	reg.Gauge("guest/routines").Set(int64(len(m.routineNames)))
	reg.Gauge("guest/sync_objects").Set(int64(len(m.syncNames)))
}

func (m *Machine) newThread(parent ThreadID, name string, body func(*Thread)) *Thread {
	th := &Thread{
		m:      m,
		id:     ThreadID(len(m.threads) + 1),
		name:   name,
		parent: parent,
		resume: make(chan struct{}, 1),
	}
	th.syncID = m.newSyncID("thread:" + name)
	m.threads = append(m.threads, th)
	if m.sched.done == nil {
		m.sched.done = make(chan struct{})
	}
	m.sched.live++
	go th.run(body)
	return th
}

// abort marks the run as failed and unblocks every guest thread other than
// the aborting one so their goroutines can unwind. State is deliberately
// ignored: a tool panic can unwind mid-handoff, leaving the handoff target
// marked running while it is still parked on its resume channel, so every
// peer gets a (buffered) wake-up token. Threads check for abortion after
// every park, turning the token into an unwinding panic.
func (m *Machine) abort(err error, self *Thread) {
	if m.aborted == nil {
		m.aborted = err
	}
	for _, th := range m.threads {
		if th == self || th.state == threadDone {
			continue
		}
		select {
		case th.resume <- struct{}{}:
		default:
		}
	}
}

// deadlockState formats the blocked-thread graph for deadlock errors.
func (m *Machine) deadlockState() string {
	var parts []string
	for _, th := range m.threads {
		if th.state == threadBlocked {
			parts = append(parts, fmt.Sprintf("%s(#%d) blocked on %s", th.name, th.id, th.blockedOn))
		}
	}
	sort.Strings(parts)
	if len(parts) == 0 {
		return "no blocked threads"
	}
	return fmt.Sprint(parts)
}
