// Checkpointed analysis: periodic, crash-consistent saves of every
// worker's position and partial state, and live snapshots of the profile
// mid-run.
//
// The checkpoint file is its own magic and version prelude followed by
// blocks in the trace format's framing (internal/block), and is rewritten
// atomically (temp file + fsync + rename + directory fsync), so
// a kill -9 at any instant leaves either the previous complete checkpoint
// or the new complete checkpoint, never a torn one. Each worker
// contributes a 'W' block recording exactly where it stopped (segment
// index, event offset within the segment) plus everything its analysis
// needs to continue: counter image, read cursor, shadow stack, per-routine
// aggregates, and the non-zero cells of its latest-access shadow memory.
// A cell never written holds timestamp zero, and the Fig. 11 read rules
// treat a zero cell exactly like an untouched one, so serializing only
// non-zero cells loses nothing: a resumed worker is bit-for-bit equivalent
// to one that never stopped, and the resumed run's profile is
// byte-identical (core.Profile.Export) to an uninterrupted run's.
//
// Loading is strict: every block's checksum must verify, the footer must
// be present and final, and the header must fingerprint the same trace
// content and options. Any inconsistency fails the load, and
// Plan.RunContext degrades to full re-analysis — a damaged checkpoint can
// cost time, never correctness.
//
// A worker captures its state synchronously at a safepoint: it clones its
// position, counter, stack and aggregates and copies the non-zero cells of
// its shadow memory, and the checkpoint/pause_ns histogram records how long
// that took. Encoding and file writes happen on the manager goroutine, off
// the workers' paths.
package pipeline

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math/bits"
	"os"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/block"
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

// NewSnapshotTrigger returns a trigger ready to pass to CheckpointOptions.
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

// CheckpointOptions configures checkpointing and live snapshots for an
// analysis run (Options.Checkpoint).
type CheckpointOptions struct {
	// Path is the checkpoint file, rewritten atomically as the run
	// progresses. Empty disables checkpoint writing (live snapshots can
	// still run).
	Path string

	// EveryEvents is the per-worker cadence: a worker serializes its state
	// every EveryEvents processed events. Zero selects a default tuned so
	// checkpointing stays a small fraction of analysis time.
	EveryEvents int

	// Interval rate-limits checkpoint file rewrites: states accumulate in
	// memory and the file is rewritten at most once per Interval. Zero
	// rewrites on every state update (what the tests want).
	Interval time.Duration

	// SnapshotPath, when non-empty, receives a live profile snapshot — a
	// JSON document with the merged partial profile and run progress —
	// written atomically on every Trigger request and every
	// SnapshotInterval.
	SnapshotPath string

	// SnapshotInterval, when positive, writes SnapshotPath periodically in
	// addition to explicit Trigger requests.
	SnapshotInterval time.Duration

	// SnapshotSink, when non-nil, receives each live snapshot document (the
	// same JSON bytes SnapshotPath would get) in-process — the HTTP
	// observability plane's /profile endpoint. Called on the manager
	// goroutine; implementations must not block.
	SnapshotSink func(doc []byte)

	// Trigger, when non-nil, requests on-demand snapshots (SIGUSR1, or an
	// HTTP /profile request).
	Trigger *SnapshotTrigger
}

// enabled reports whether the options ask for any checkpoint machinery.
func (o CheckpointOptions) enabled() bool {
	return o.Path != "" || o.SnapshotPath != "" || o.SnapshotSink != nil
}

// defaultEveryEvents is the per-worker serialization cadence when
// CheckpointOptions.EveryEvents is zero.
const defaultEveryEvents = 1 << 18

// safepointStride is how many events a worker processes between safepoint
// polls once checkpointing is on: small enough that snapshot finish
// latency and cancellation response stay bounded, large enough that the
// poll is noise.
const safepointStride = 4096

// Checkpoint file layout: an 8-byte magic plus a version byte, then
// blocks in the shared framing (internal/block): a header first, one
// worker block per checkpointed thread, and a footer last.
const (
	ckptMagic   = "aprofCP\x00"
	ckptVersion = 3

	ckptBlockHeader = 'H'
	ckptBlockWorker = 'W'
	ckptBlockFooter = 'F'
)

// Checkpoint run states recorded in the header.
const (
	ckptRunning  = 0 // written mid-run
	ckptCanceled = 1 // final write of a canceled (partial) run
	ckptComplete = 2 // final write of a completed run
)

// ckptFormat is the checkpoint's view of the block framing.
var ckptFormat = block.Format{
	Kinds:      string([]byte{ckptBlockHeader, ckptBlockWorker, ckptBlockFooter}),
	MaxPayload: 1 << 31,
}

// cellPair is one non-zero shadow cell: address and timestamp value.
type cellPair struct {
	addr uint64
	val  uint64
}

// workerState is one worker's serialized position and partial analysis
// state — the payload of a 'W' block.
type workerState struct {
	threadIdx int            // index into the plan's thread order
	id        guest.ThreadID // fingerprint check against the plan
	done      bool           // thread fully analyzed; only acts matter

	// Position: segments [0,segIdx) are fully processed, plus the first
	// off events of segment segIdx. events is the total processed event
	// count (cross-checked against the plan on resume).
	segIdx int
	off    int
	events uint64

	count           uint64
	nextRead        int
	inducedThread   uint64
	inducedExternal uint64
	stack           core.Stack[uint64]
	acts            map[guest.RoutineID]*core.Activations

	cells []cellPair // the non-zero shadow cells, sorted by address
}

// ckptHeader fingerprints the trace and options a checkpoint belongs to.
type ckptHeader struct {
	numEvents int
	wide      bool
	annotated bool
	runState  uint8

	rmsOnly              bool
	disableThreadInduced bool
	disableExternal      bool
	checkLevel           uint8

	threads []ckptThread
}

// ckptThread is one plan thread's share of the fingerprint: its shape and
// a hash of its content (threadHash).
type ckptThread struct {
	id     guest.ThreadID
	events int
	nsegs  int
	hash   uint64
}

// fingerprint derives the header a checkpoint of this plan must carry. It
// hashes every event of the plan, so runs compute it only when they
// checkpoint or resume.
func (p *Plan) fingerprint() ckptHeader {
	h := ckptHeader{
		numEvents:            p.tr.NumEvents(),
		wide:                 p.wide,
		annotated:            p.annotated,
		rmsOnly:              p.opts.RMSOnly,
		disableThreadInduced: p.opts.DisableThreadInduced,
		disableExternal:      p.opts.DisableExternal,
		checkLevel:           uint8(p.opts.CheckLevel),
	}
	for _, tp := range p.threads {
		h.threads = append(h.threads, ckptThread{id: tp.id, events: tp.events, nsegs: len(tp.segments), hash: p.threadHash(tp)})
	}
	return h
}

// threadHash hashes every field of one plan thread's events, its segment
// start counts and its read stamps: everything its analysis reads. Each
// step of the mix is a bijection of the running hash, so one changed field
// always changes the result, and more changes collide only by chance.
func (p *Plan) threadHash(tp *threadPlan) uint64 {
	h := uint64(len(tp.segments))
	for _, seg := range tp.segments {
		h = mix(h, seg.startCount)
		for _, e := range p.tr.Threads[seg.src].Events[seg.lo:seg.hi] {
			for _, v := range [...]uint64{e.TS, uint64(e.Thread), uint64(e.Kind), e.Arg, e.Aux} {
				h = mix(h, v)
			}
		}
	}
	for _, st := range tp.reads {
		h = mix(mix(h, st.WTS), uint64(st.Writer))
	}
	return h
}

// mix folds v into the running hash h.
func mix(h, v uint64) uint64 { return bits.RotateLeft64(h^v, 27) * 0x9e3779b97f4a7c15 }

// matches reports whether two fingerprints describe the same analysis
// (ignoring the run state, which only records how the file was written).
func (h ckptHeader) matches(o ckptHeader) bool {
	if h.numEvents != o.numEvents || h.wide != o.wide || h.annotated != o.annotated ||
		h.rmsOnly != o.rmsOnly || h.disableThreadInduced != o.disableThreadInduced ||
		h.disableExternal != o.disableExternal || h.checkLevel != o.checkLevel ||
		len(h.threads) != len(o.threads) {
		return false
	}
	for i, t := range h.threads {
		if t != o.threads[i] {
			return false
		}
	}
	return true
}

// Checkpoint is a loaded checkpoint file: the fingerprint of the run it
// belongs to and the per-worker states to resume from. Pass it as
// Options.Resume (or Plan.Resume) to skip the checkpointed work.
type Checkpoint struct {
	header  ckptHeader
	workers map[int]*workerState
}

// Canceled reports whether the checkpoint was the final write of a
// canceled (partial) run — a timeout or interrupt — rather than a periodic
// mid-run write.
func (c *Checkpoint) Canceled() bool { return c.header.runState == ckptCanceled }

// Complete reports whether the checkpoint recorded a fully finished run.
func (c *Checkpoint) Complete() bool { return c.header.runState == ckptComplete }

// NumThreads returns the number of guest threads with checkpointed state.
func (c *Checkpoint) NumThreads() int { return len(c.workers) }

// Events returns the total number of events the checkpointed workers had
// processed — the work a resume skips.
func (c *Checkpoint) Events() uint64 {
	var n uint64
	for _, st := range c.workers {
		n += st.events
	}
	return n
}

// --- encoding ---

// appendUvarints appends each of vs as a uvarint.
func appendUvarints(b []byte, vs ...uint64) []byte {
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// flag encodes a bool as one byte.
func flag(v bool) byte {
	if v {
		return 1
	}
	return 0
}

func (h ckptHeader) encode() []byte {
	b := appendUvarints(nil, uint64(h.numEvents))
	b = append(b, flag(h.wide), flag(h.annotated), h.runState, flag(h.rmsOnly),
		flag(h.disableThreadInduced), flag(h.disableExternal), h.checkLevel)
	b = appendUvarints(b, uint64(len(h.threads)))
	for _, t := range h.threads {
		b = binary.AppendVarint(b, int64(t.id))
		b = appendUvarints(b, uint64(t.events), uint64(t.nsegs), t.hash)
	}
	return b
}

func (st *workerState) encode() []byte {
	b := appendUvarints(nil, uint64(st.threadIdx))
	b = binary.AppendVarint(b, int64(st.id))
	b = append(b, flag(st.done))
	b = appendUvarints(b, uint64(st.segIdx), uint64(st.off), st.events, st.count,
		uint64(st.nextRead), st.inducedThread, st.inducedExternal, uint64(len(st.stack)))
	for _, f := range st.stack {
		b = appendUvarints(b, uint64(f.Rtn), f.TS, f.BBEnter)
		b = binary.AppendVarint(b, f.TRMS)
		b = binary.AppendVarint(b, f.RMS)
		b = appendUvarints(b, f.InducedThread, f.InducedExternal)
	}

	ids := make([]guest.RoutineID, 0, len(st.acts))
	for id := range st.acts {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	b = appendUvarints(b, uint64(len(ids)))
	for _, id := range ids {
		a := st.acts[id]
		b = appendUvarints(b, uint64(id), a.Calls, a.SumCost, a.SumTRMS, a.SumRMS, a.InducedThread,
			a.InducedExternal)
		b = appendPoints(b, a.ByTRMS)
		b = appendPoints(b, a.ByRMS)
	}

	b = appendUvarints(b, uint64(len(st.cells)))
	prev := uint64(0)
	for _, c := range st.cells {
		b = appendUvarints(b, c.addr-prev, c.val)
		prev = c.addr
	}
	return b
}

// appendPoints encodes a histogram in ascending input-size order.
func appendPoints(b []byte, m map[uint64]*core.Point) []byte {
	pts := core.SortedPoints(m)
	b = appendUvarints(b, uint64(len(pts)))
	for _, pt := range pts {
		b = appendUvarints(b, pt.N, pt.Calls, pt.MinCost, pt.MaxCost, pt.SumCost)
	}
	return b
}

// --- decoding ---

// errCkpt wraps every structural load failure.
var errCkpt = errors.New("pipeline: invalid checkpoint")

func decodeHeader(payload []byte) (ckptHeader, error) {
	p := block.NewParser(payload)
	var h ckptHeader
	h.numEvents = int(p.Uvarint())
	h.wide = p.Byte() != 0
	h.annotated = p.Byte() != 0
	h.runState = p.Byte()
	h.rmsOnly = p.Byte() != 0
	h.disableThreadInduced = p.Byte() != 0
	h.disableExternal = p.Byte() != 0
	h.checkLevel = p.Byte()
	n := p.Count(4)
	for i := 0; i < n; i++ {
		h.threads = append(h.threads, ckptThread{
			id:     guest.ThreadID(p.Varint()),
			events: int(p.Uvarint()),
			nsegs:  int(p.Uvarint()),
			hash:   p.Uvarint(),
		})
	}
	if p.End("trailing bytes") != nil || h.runState > ckptComplete {
		return ckptHeader{}, fmt.Errorf("%w: malformed header", errCkpt)
	}
	return h, nil
}

func decodeWorker(payload []byte) (*workerState, error) {
	p := block.NewParser(payload)
	st := &workerState{}
	st.threadIdx = int(p.Uvarint())
	st.id = guest.ThreadID(p.Varint())
	st.done = p.Byte() != 0
	st.segIdx = int(p.Uvarint())
	st.off = int(p.Uvarint())
	st.events = p.Uvarint()
	st.count = p.Uvarint()
	st.nextRead = int(p.Uvarint())
	st.inducedThread = p.Uvarint()
	st.inducedExternal = p.Uvarint()

	nf := p.Count(7)
	for i := 0; i < nf; i++ {
		st.stack = append(st.stack, core.Frame[uint64]{
			Rtn:             guest.RoutineID(p.Uvarint()),
			TS:              p.Uvarint(),
			BBEnter:         p.Uvarint(),
			TRMS:            p.Varint(),
			RMS:             p.Varint(),
			InducedThread:   p.Uvarint(),
			InducedExternal: p.Uvarint(),
		})
	}

	na := p.Count(9)
	st.acts = make(map[guest.RoutineID]*core.Activations, na)
	for i := 0; i < na; i++ {
		id := guest.RoutineID(p.Uvarint())
		if _, dup := st.acts[id]; dup {
			return nil, fmt.Errorf("%w: duplicate routine in worker state", errCkpt)
		}
		a := core.NewActivations(st.id)
		a.Calls = p.Uvarint()
		a.SumCost = p.Uvarint()
		a.SumTRMS = p.Uvarint()
		a.SumRMS = p.Uvarint()
		a.InducedThread = p.Uvarint()
		a.InducedExternal = p.Uvarint()
		if err := decodePoints(&p, a.ByTRMS); err != nil {
			return nil, err
		}
		if err := decodePoints(&p, a.ByRMS); err != nil {
			return nil, err
		}
		st.acts[id] = a
	}

	nc := p.Count(2)
	prev := uint64(0)
	for i := 0; i < nc; i++ {
		prev += p.Uvarint()
		val := p.Uvarint()
		if val == 0 {
			return nil, fmt.Errorf("%w: zero shadow cell in worker state", errCkpt)
		}
		st.cells = append(st.cells, cellPair{addr: prev, val: val})
	}
	if p.End("trailing bytes") != nil {
		return nil, fmt.Errorf("%w: malformed worker state", errCkpt)
	}
	return st, nil
}

func decodePoints(p *block.Parser, m map[uint64]*core.Point) error {
	n := p.Count(5)
	prev, first := uint64(0), true
	for i := 0; i < n; i++ {
		pt := &core.Point{N: p.Uvarint(), Calls: p.Uvarint(), MinCost: p.Uvarint(), MaxCost: p.Uvarint(), SumCost: p.Uvarint()}
		if !first && pt.N <= prev {
			return fmt.Errorf("%w: unsorted histogram in worker state", errCkpt)
		}
		prev, first = pt.N, false
		m[pt.N] = pt
	}
	if p.Err() != nil {
		return fmt.Errorf("%w: malformed histogram", errCkpt)
	}
	return nil
}

// encodeCheckpoint serializes a header and worker states into a complete
// checkpoint file image.
func encodeCheckpoint(h ckptHeader, states map[int]*workerState) []byte {
	out := append([]byte(ckptMagic), ckptVersion)
	out = block.Append(out, ckptBlockHeader, h.encode())
	idxs := make([]int, 0, len(states))
	for i := range states {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	for _, i := range idxs {
		out = block.Append(out, ckptBlockWorker, states[i].encode())
	}
	return block.Append(out, ckptBlockFooter, appendUvarints(nil, uint64(len(idxs))))
}

// LoadCheckpoint strictly decodes the checkpoint file at path. Every block
// checksum must verify and the footer must be present and final; any
// damage — truncation anywhere, flipped bits, missing footer — fails the
// load, so a caller can only ever resume from a complete, consistent
// checkpoint. On failure the caller should degrade to full analysis.
func LoadCheckpoint(path string) (*Checkpoint, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return decodeCheckpoint(data)
}

func decodeCheckpoint(data []byte) (*Checkpoint, error) {
	if len(data) < len(ckptMagic)+1 || string(data[:len(ckptMagic)]) != ckptMagic {
		return nil, fmt.Errorf("%w: bad magic", errCkpt)
	}
	if data[len(ckptMagic)] != ckptVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", errCkpt, data[len(ckptMagic)])
	}
	blocks, err := ckptFormat.Split(data, len(ckptMagic)+1)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", errCkpt, err)
	}
	n := len(blocks)
	if n < 2 || blocks[0].Kind != ckptBlockHeader || blocks[n-1].Kind != ckptBlockFooter {
		return nil, fmt.Errorf("%w: missing header or footer", errCkpt)
	}
	h, err := decodeHeader(blocks[0].Payload)
	if err != nil {
		return nil, err
	}
	c := &Checkpoint{header: h, workers: make(map[int]*workerState)}
	for _, b := range blocks[1 : n-1] {
		if b.Kind != ckptBlockWorker {
			return nil, fmt.Errorf("%w: block %q between header and footer", errCkpt, b.Kind)
		}
		st, err := decodeWorker(b.Payload)
		if err != nil {
			return nil, err
		}
		if _, dup := c.workers[st.threadIdx]; dup {
			return nil, fmt.Errorf("%w: duplicate worker state", errCkpt)
		}
		c.workers[st.threadIdx] = st
	}
	p := block.NewParser(blocks[n-1].Payload)
	if cnt := p.Uvarint(); p.End("trailing bytes") != nil || cnt != uint64(n-2) {
		return nil, fmt.Errorf("%w: footer count mismatch", errCkpt)
	}
	return c, nil
}

// --- manager ---

// ckptManager owns checkpoint and live-snapshot writing for one run: it
// holds the latest state per thread, rewrites the checkpoint file
// atomically at the configured rate, and merges states into live profile
// snapshots. Workers hand it states through a channel; all file work runs
// on the manager goroutine.
type ckptManager struct {
	opts   CheckpointOptions
	plan   *Plan
	reg    *telemetry.Registry
	every  int
	header ckptHeader

	gen atomic.Uint64 // snapshot generation; workers capture a state when it moves

	ch    chan *workerState
	stop  chan struct{}
	donec chan struct{}

	// manager-goroutine state
	states    map[int]*workerState
	lastWrite time.Time
	dirty     bool
	snapWant  bool
}

func newCkptManager(p *Plan, opts CheckpointOptions, header ckptHeader, reg *telemetry.Registry, seed map[int]*workerState) *ckptManager {
	every := opts.EveryEvents
	if every <= 0 {
		every = defaultEveryEvents
	}
	m := &ckptManager{
		opts:   opts,
		plan:   p,
		reg:    reg,
		every:  every,
		header: header,
		ch:     make(chan *workerState, 2*len(p.threads)+4),
		stop:   make(chan struct{}),
		donec:  make(chan struct{}),
		states: make(map[int]*workerState),
	}
	for i, st := range seed {
		m.states[i] = st
	}
	go m.loop()
	return m
}

// snapGen returns the current snapshot generation; workers compare it to
// their last seen value and capture a state when it moved.
func (m *ckptManager) snapGen() uint64 { return m.gen.Load() }

// observePause records how long one worker's state capture took.
func (m *ckptManager) observePause(pause time.Duration) {
	m.reg.Histogram("checkpoint/pause_ns").Observe(uint64(pause))
}

// submit hands a worker's freshly captured state to the manager. Called
// from worker goroutines; never blocks for file I/O (the channel is sized
// for the worker count, and the manager drains promptly).
func (m *ckptManager) submit(st *workerState) {
	select {
	case m.ch <- st:
	case <-m.stop:
	}
}

// loop is the manager goroutine: it folds incoming states, rewrites the
// checkpoint file at the configured rate, and serves snapshot triggers.
func (m *ckptManager) loop() {
	defer close(m.donec)
	var tickc <-chan time.Time
	if (m.opts.SnapshotPath != "" || m.opts.SnapshotSink != nil) && m.opts.SnapshotInterval > 0 {
		t := time.NewTicker(m.opts.SnapshotInterval)
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
			m.fold(st)
			m.maybeWrite(false)
			if m.snapWant {
				m.snapWant = false
				m.writeSnapshot()
			}
		case <-trigc:
			// Ask every worker for a fresh state, then publish on the next
			// arrival; publish immediately too so a stalled run still
			// answers the signal with its latest known states.
			m.gen.Add(1)
			m.snapWant = true
			m.writeSnapshot()
		case <-tickc:
			m.writeSnapshot()
		case <-m.stop:
			// Drain anything the workers managed to submit before close.
			for {
				select {
				case st := <-m.ch:
					m.fold(st)
				default:
					return
				}
			}
		}
	}
}

func (m *ckptManager) fold(st *workerState) {
	m.states[st.threadIdx] = st
	m.dirty = true
}

// maybeWrite rewrites the checkpoint file if it is stale and the rate
// limit allows (force overrides the limit — the final write).
func (m *ckptManager) maybeWrite(force bool) {
	if m.opts.Path == "" || !m.dirty {
		return
	}
	if !force && m.opts.Interval > 0 && time.Since(m.lastWrite) < m.opts.Interval {
		return
	}
	data := encodeCheckpoint(m.header, m.states)
	if _, err := trace.AtomicWriteFile(m.opts.Path, data); err != nil {
		m.reg.Counter("checkpoint/write_errors").Inc()
		return
	}
	m.lastWrite = time.Now()
	m.dirty = false
	m.reg.Counter("checkpoint/writes").Inc()
	m.reg.Gauge("checkpoint/bytes").Set(int64(len(data)))
}

// liveSnapshot is the JSON document written to SnapshotPath: run progress
// plus the merged partial profile in the export codec's form.
type liveSnapshot struct {
	Partial         bool              `json:"partial"`
	EventsProcessed uint64            `json:"events_processed"`
	TotalEvents     uint64            `json:"total_events"`
	Threads         int               `json:"threads"`
	Profile         *core.ProfileDump `json:"profile"`
}

// writeSnapshot merges the latest known states into a partial profile,
// hands the JSON document to SnapshotSink, and writes it to SnapshotPath
// atomically.
func (m *ckptManager) writeSnapshot() {
	if m.opts.SnapshotPath == "" && m.opts.SnapshotSink == nil {
		return
	}
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
	if m.opts.SnapshotSink != nil {
		m.opts.SnapshotSink(data)
	}
	if m.opts.SnapshotPath != "" {
		if _, err := trace.AtomicWriteFile(m.opts.SnapshotPath, data); err != nil {
			m.reg.Counter("checkpoint/write_errors").Inc()
			return
		}
	}
	m.reg.Counter("checkpoint/snapshots_written").Inc()
}

// close stops the manager after all workers have finished or aborted,
// performs the final checkpoint write with the run's outcome recorded in
// the header, and returns once everything is on disk.
func (m *ckptManager) close(canceled bool) {
	close(m.stop)
	<-m.donec
	if canceled {
		m.header.runState = ckptCanceled
	} else {
		m.header.runState = ckptComplete
	}
	m.dirty = true
	m.maybeWrite(true)
	if canceled || m.opts.SnapshotInterval > 0 || m.opts.Trigger != nil || m.opts.SnapshotSink != nil {
		m.writeSnapshot()
	}
}

// validState cross-checks one loaded worker state against the plan: thread
// identity, position bounds, the event tally implied by the position, and
// the read cursor. A state that fails is dropped (that thread re-analyzes
// from scratch); it can never corrupt a profile.
func validState(p *Plan, idx int, st *workerState) bool {
	if idx < 0 || idx >= len(p.threads) {
		return false
	}
	tp := p.threads[idx]
	if st.id != tp.id {
		return false
	}
	if st.done {
		return st.events == uint64(tp.events)
	}
	if st.segIdx < 0 || st.segIdx >= len(tp.segments) {
		return false
	}
	seg := tp.segments[st.segIdx]
	if st.off < 0 || st.off > seg.hi-seg.lo {
		return false
	}
	expect := uint64(st.off)
	for _, s := range tp.segments[:st.segIdx] {
		expect += uint64(s.hi - s.lo)
	}
	if st.events != expect {
		return false
	}
	if p.opts.RMSOnly {
		if st.nextRead != 0 {
			return false
		}
	} else {
		if st.nextRead < 0 || st.nextRead > len(tp.reads) {
			return false
		}
	}
	if !p.wide {
		for _, c := range st.cells {
			if c.val>>32 != 0 {
				return false
			}
		}
	}
	return true
}
