// Live snapshots: a JSON document with the merged partial profile and the
// run's progress, published mid-run on demand (Trigger), on a timer
// (Interval) and once more when the run ends early.
//
// Asking for a snapshot moves a generation counter. Each worker polls it
// at a safepoint every safepointStride events and, when it moved, captures
// what the document reads: its thread index, its event tally, its induced
// tallies and a clone of its per-routine aggregates. No shadow memory is
// copied. The snapshot/pause_ns histogram records how long a capture took.
// Captures go to a manager goroutine, which owns all JSON encoding and file
// writes, off the workers' paths.
package pipeline

import (
	"encoding/json"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/guest"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// SnapshotTrigger requests live profile snapshots on demand — typically
// wired to SIGUSR1 by the CLI. Request is safe to call from any goroutine,
// including a signal handler's.
type SnapshotTrigger struct {
	ch chan struct{}
}

// NewSnapshotTrigger returns a trigger ready to pass to SnapshotOptions.
func NewSnapshotTrigger() *SnapshotTrigger {
	return &SnapshotTrigger{ch: make(chan struct{}, 1)}
}

// Request asks the running analysis for one live snapshot; coalesces if a
// request is already pending.
func (tg *SnapshotTrigger) Request() {
	if tg == nil {
		return
	}
	select {
	case tg.ch <- struct{}{}:
	default:
	}
}

// SnapshotOptions configures live profile snapshots for an analysis run
// (Options.Snapshot). Snapshots run when Path or Sink is set.
type SnapshotOptions struct {
	// Path, when non-empty, receives each live snapshot — a JSON document
	// with the merged partial profile and run progress — written
	// atomically.
	Path string

	// Interval, when positive, asks for a fresh snapshot periodically in
	// addition to explicit Trigger requests.
	Interval time.Duration

	// Sink, when non-nil, receives each live snapshot document (the same
	// JSON bytes Path would get) in-process — the HTTP observability
	// plane's /profile endpoint. Called on the manager goroutine;
	// implementations must not block.
	Sink func(doc []byte)

	// Trigger, when non-nil, requests on-demand snapshots (SIGUSR1, or an
	// HTTP /profile request).
	Trigger *SnapshotTrigger
}

// enabled reports whether the options ask for any snapshot output.
func (o SnapshotOptions) enabled() bool { return o.Path != "" || o.Sink != nil }

// safepointStride is how many events a worker processes between safepoint
// polls once snapshots are on: small enough that snapshot latency and
// cancellation response stay bounded, large enough that the poll is noise.
const safepointStride = 4096

// threadState is what one worker contributes to a snapshot document.
type threadState struct {
	threadIdx       int // index into the plan's thread order
	events          uint64
	inducedThread   uint64
	inducedExternal uint64
	acts            map[guest.RoutineID]*core.Activations
}

// snapManager owns live-snapshot publishing for one run: it holds the
// latest state per thread and merges the states into snapshot documents.
// Workers hand it states through a channel; all JSON and file work runs
// on the manager goroutine.
type snapManager struct {
	opts SnapshotOptions
	plan *Plan
	reg  *telemetry.Registry

	gen atomic.Uint64 // snapshot generation; workers capture a state when it moves

	ch    chan *threadState
	stop  chan struct{}
	donec chan struct{}

	// manager-goroutine state
	states   map[int]*threadState
	snapWant bool
}

func newSnapManager(p *Plan, opts SnapshotOptions, reg *telemetry.Registry) *snapManager {
	m := &snapManager{
		opts:   opts,
		plan:   p,
		reg:    reg,
		ch:     make(chan *threadState, 2*len(p.threads)+4),
		stop:   make(chan struct{}),
		donec:  make(chan struct{}),
		states: make(map[int]*threadState),
	}
	go m.loop()
	return m
}

// observePause records how long one worker's state capture took.
func (m *snapManager) observePause(pause time.Duration) {
	m.reg.Histogram("snapshot/pause_ns").Observe(uint64(pause))
}

// submit hands a worker's freshly captured state to the manager. Called
// from worker goroutines; never blocks for I/O (the channel is sized for
// the worker count, and the manager drains promptly).
func (m *snapManager) submit(st *threadState) {
	select {
	case m.ch <- st:
	case <-m.stop:
	}
}

// loop is the manager goroutine: it folds incoming states and serves
// snapshot requests.
func (m *snapManager) loop() {
	defer close(m.donec)
	var tickc <-chan time.Time
	if m.opts.Interval > 0 {
		t := time.NewTicker(m.opts.Interval)
		defer t.Stop()
		tickc = t.C
	}
	var trigc chan struct{}
	if m.opts.Trigger != nil {
		trigc = m.opts.Trigger.ch
	}
	for {
		select {
		case st := <-m.ch:
			m.states[st.threadIdx] = st
			if m.snapWant {
				m.snapWant = false
				m.writeSnapshot()
			}
		case <-trigc:
			// Ask every worker for a fresh state, then publish on the next
			// arrival; publish immediately too so a stalled run still
			// answers the request with its latest known states.
			m.gen.Add(1)
			m.snapWant = true
			m.writeSnapshot()
		case <-tickc:
			// Threads in flight report only when asked, so a tick asks too.
			m.gen.Add(1)
			m.snapWant = true
		case <-m.stop:
			// Drain anything the workers managed to submit before close.
			for {
				select {
				case st := <-m.ch:
					m.states[st.threadIdx] = st
				default:
					return
				}
			}
		}
	}
}

// liveSnapshot is the JSON document a snapshot publishes: run progress
// plus the merged partial profile in the export codec's form.
type liveSnapshot struct {
	Partial         bool              `json:"partial"`
	EventsProcessed uint64            `json:"events_processed"`
	TotalEvents     uint64            `json:"total_events"`
	Threads         int               `json:"threads"`
	Profile         *core.ProfileDump `json:"profile"`
}

// writeSnapshot merges the latest known states into a partial profile,
// hands the JSON document to Sink, and writes it to Path atomically.
func (m *snapManager) writeSnapshot() {
	merged := core.NewProfile()
	var events uint64
	for _, st := range m.states {
		events += st.events
		merged.InducedThread += st.inducedThread
		merged.InducedExternal += st.inducedExternal
		for id, a := range st.acts {
			merged.AddActivations(m.plan.tr.RoutineName(id), a.Clone())
		}
	}
	doc := liveSnapshot{
		Partial:         events < m.plan.NumEvents(),
		EventsProcessed: events,
		TotalEvents:     m.plan.NumEvents(),
		Threads:         len(m.states),
		Profile:         merged.Dump(),
	}
	data, err := json.MarshalIndent(&doc, "", "  ")
	if err != nil {
		return
	}
	data = append(data, '\n')
	if m.opts.Sink != nil {
		m.opts.Sink(data)
	}
	if m.opts.Path != "" {
		if _, err := trace.AtomicWriteFile(m.opts.Path, data); err != nil {
			m.reg.Counter("snapshot/write_errors").Inc()
			return
		}
	}
	m.reg.Counter("snapshot/written").Inc()
}

// close stops the manager after all workers have finished or aborted and
// publishes the final snapshot: always for a canceled run, which leaves
// its partial profile behind, and otherwise whenever snapshots were
// published mid-run.
func (m *snapManager) close(canceled bool) {
	close(m.stop)
	<-m.donec
	if canceled || m.opts.Interval > 0 || m.opts.Trigger != nil || m.opts.Sink != nil {
		m.writeSnapshot()
	}
}
