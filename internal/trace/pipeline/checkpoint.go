// Checkpointed analysis: periodic, crash-consistent saves of every
// worker's position and partial state, and low-pause live snapshots of the
// profile mid-run.
//
// The checkpoint file imitates the trace format's v2 framing — its own
// magic and version prelude followed by CRC32-C framed blocks — and is
// rewritten atomically (temp file + fsync + rename + directory fsync), so
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
// be present and final, and the header must fingerprint the same trace and
// options. Any inconsistency fails the load, and Plan.RunContext degrades
// to full re-analysis — a damaged checkpoint can cost time, never
// correctness.
//
// Shadow serialization rides the shadow package's low-pause snapshots: a
// worker begins a snapshot at one safepoint, keeps analyzing while the
// copier drains clean chunks, and pauses only for the dirty delta — the
// checkpoint/pause_ns histogram records these pauses. Serialization and
// file writes happen on the manager goroutine, off the workers' paths.
package pipeline

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"sort"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/guest"
	"repro/internal/shadow"
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

// Checkpoint file framing: an 8-byte magic plus a version byte, then
// CRC32-C framed blocks (kind, uvarint payload length, payload, checksum
// over kind and payload), ending with a footer block that must be last.
const (
	ckptMagic   = "aprofCP\x00"
	ckptVersion = 1

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

var ckptCRC = crc32.MakeTable(crc32.Castagnoli)

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
	stack           core.Stack[uint64] // Frame.Partial is never set here, so not encoded
	acts            map[guest.RoutineID]*core.Activations

	// cells holds the non-zero shadow cells, sorted by address. On capture
	// it is materialized lazily from a shadow snapshot by cellsFn (on the
	// manager goroutine, off the worker's path); on load it is direct.
	cells   []cellPair
	cellsFn func() []cellPair
}

// materialize resolves the lazy cell list once.
func (st *workerState) materialize() {
	if st.cellsFn != nil {
		st.cells = st.cellsFn()
		st.cellsFn = nil
	}
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
	sampling             uint8
	checkLevel           uint8

	threads []ckptThread
}

// ckptThread is one plan thread's share of the fingerprint.
type ckptThread struct {
	id     guest.ThreadID
	events int
	nsegs  int
}

// fingerprint derives the header a checkpoint of this plan must carry.
func (p *Plan) fingerprint() ckptHeader {
	h := ckptHeader{
		numEvents:            p.tr.NumEvents(),
		wide:                 p.wide,
		annotated:            p.annotated,
		rmsOnly:              p.opts.RMSOnly,
		disableThreadInduced: p.opts.DisableThreadInduced,
		disableExternal:      p.opts.DisableExternal,
		sampling:             uint8(p.opts.Sampling),
		checkLevel:           uint8(p.opts.CheckLevel),
	}
	for _, tp := range p.threads {
		h.threads = append(h.threads, ckptThread{id: tp.id, events: tp.events, nsegs: len(tp.segments)})
	}
	return h
}

// matches reports whether two fingerprints describe the same analysis
// (ignoring the run state, which only records how the file was written).
func (h ckptHeader) matches(o ckptHeader) bool {
	if h.numEvents != o.numEvents || h.wide != o.wide || h.annotated != o.annotated ||
		h.rmsOnly != o.rmsOnly || h.disableThreadInduced != o.disableThreadInduced ||
		h.disableExternal != o.disableExternal || h.sampling != o.sampling ||
		h.checkLevel != o.checkLevel || len(h.threads) != len(o.threads) {
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

// ckptEncoder builds block payloads with uvarint/zigzag primitives.
type ckptEncoder struct {
	buf []byte
}

func (e *ckptEncoder) u(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *ckptEncoder) i(v int64)  { e.buf = binary.AppendVarint(e.buf, v) }
func (e *ckptEncoder) b(v byte)   { e.buf = append(e.buf, v) }
func (e *ckptEncoder) flag(v bool) {
	if v {
		e.b(1)
	} else {
		e.b(0)
	}
}

// appendCkptBlock frames one block: kind, payload length, payload, and a
// CRC32-C over kind and payload.
func appendCkptBlock(dst []byte, kind byte, payload []byte) []byte {
	dst = append(dst, kind)
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	dst = append(dst, payload...)
	crc := crc32.Update(crc32.Checksum([]byte{kind}, ckptCRC), ckptCRC, payload)
	return binary.LittleEndian.AppendUint32(dst, crc)
}

func (h ckptHeader) encode() []byte {
	var e ckptEncoder
	e.u(uint64(h.numEvents))
	e.flag(h.wide)
	e.flag(h.annotated)
	e.b(h.runState)
	e.flag(h.rmsOnly)
	e.flag(h.disableThreadInduced)
	e.flag(h.disableExternal)
	e.b(h.sampling)
	e.b(h.checkLevel)
	e.u(uint64(len(h.threads)))
	for _, t := range h.threads {
		e.i(int64(t.id))
		e.u(uint64(t.events))
		e.u(uint64(t.nsegs))
	}
	return e.buf
}

func (st *workerState) encode() []byte {
	st.materialize()
	var e ckptEncoder
	e.u(uint64(st.threadIdx))
	e.i(int64(st.id))
	e.flag(st.done)
	e.u(uint64(st.segIdx))
	e.u(uint64(st.off))
	e.u(st.events)
	e.u(st.count)
	e.u(uint64(st.nextRead))
	e.u(st.inducedThread)
	e.u(st.inducedExternal)

	e.u(uint64(len(st.stack)))
	for _, f := range st.stack {
		e.u(uint64(f.Rtn))
		e.u(f.TS)
		e.u(f.BBEnter)
		e.i(f.TRMS)
		e.i(f.RMS)
		e.u(f.InducedThread)
		e.u(f.InducedExternal)
	}

	ids := make([]guest.RoutineID, 0, len(st.acts))
	for id := range st.acts {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	e.u(uint64(len(ids)))
	for _, id := range ids {
		a := st.acts[id]
		e.u(uint64(id))
		e.u(a.Calls)
		e.u(a.SumCost)
		e.u(a.SumTRMS)
		e.u(a.SumRMS)
		e.u(a.InducedThread)
		e.u(a.InducedExternal)
		e.u(a.SampledOut)
		e.u(a.SampledOutCost)
		e.u(a.PartialCalls)
		encodePoints(&e, a.ByTRMS)
		encodePoints(&e, a.ByRMS)
	}

	e.u(uint64(len(st.cells)))
	prev := uint64(0)
	for _, c := range st.cells {
		e.u(c.addr - prev)
		prev = c.addr
		e.u(c.val)
	}
	return e.buf
}

func encodePoints(e *ckptEncoder, m map[uint64]*core.Point) {
	ns := make([]uint64, 0, len(m))
	for n := range m {
		ns = append(ns, n)
	}
	sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	e.u(uint64(len(ns)))
	for _, n := range ns {
		pt := m[n]
		e.u(pt.N)
		e.u(pt.Calls)
		e.u(pt.MinCost)
		e.u(pt.MaxCost)
		e.u(pt.SumCost)
	}
}

// --- decoding ---

// errCkpt wraps every structural load failure.
var errCkpt = errors.New("pipeline: invalid checkpoint")

// ckptParser decodes block payloads; any overrun poisons the parser.
type ckptParser struct {
	buf []byte
	bad bool
}

func (p *ckptParser) u() uint64 {
	v, n := binary.Uvarint(p.buf)
	if n <= 0 {
		p.bad = true
		return 0
	}
	p.buf = p.buf[n:]
	return v
}

func (p *ckptParser) i() int64 {
	v, n := binary.Varint(p.buf)
	if n <= 0 {
		p.bad = true
		return 0
	}
	p.buf = p.buf[n:]
	return v
}

func (p *ckptParser) b() byte {
	if len(p.buf) == 0 {
		p.bad = true
		return 0
	}
	v := p.buf[0]
	p.buf = p.buf[1:]
	return v
}

func (p *ckptParser) flag() bool { return p.b() != 0 }

// length-capped count: rejects counts that cannot fit the remaining bytes
// (each element costs at least min bytes), so corrupt counts cannot drive
// huge allocations.
func (p *ckptParser) count(min int) int {
	v := p.u()
	if min < 1 {
		min = 1
	}
	if p.bad || v > uint64(len(p.buf)/min)+1 {
		p.bad = true
		return 0
	}
	return int(v)
}

func (p *ckptParser) done() bool { return !p.bad && len(p.buf) == 0 }

func decodeHeader(payload []byte) (ckptHeader, error) {
	p := &ckptParser{buf: payload}
	var h ckptHeader
	h.numEvents = int(p.u())
	h.wide = p.flag()
	h.annotated = p.flag()
	h.runState = p.b()
	h.rmsOnly = p.flag()
	h.disableThreadInduced = p.flag()
	h.disableExternal = p.flag()
	h.sampling = p.b()
	h.checkLevel = p.b()
	n := p.count(3)
	for i := 0; i < n; i++ {
		h.threads = append(h.threads, ckptThread{
			id:     guest.ThreadID(p.i()),
			events: int(p.u()),
			nsegs:  int(p.u()),
		})
	}
	if !p.done() || h.runState > ckptComplete {
		return ckptHeader{}, fmt.Errorf("%w: malformed header", errCkpt)
	}
	return h, nil
}

func decodeWorker(payload []byte) (*workerState, error) {
	p := &ckptParser{buf: payload}
	st := &workerState{}
	st.threadIdx = int(p.u())
	st.id = guest.ThreadID(p.i())
	st.done = p.flag()
	st.segIdx = int(p.u())
	st.off = int(p.u())
	st.events = p.u()
	st.count = p.u()
	st.nextRead = int(p.u())
	st.inducedThread = p.u()
	st.inducedExternal = p.u()

	nf := p.count(7)
	for i := 0; i < nf; i++ {
		st.stack = append(st.stack, core.Frame[uint64]{
			Rtn:             guest.RoutineID(p.u()),
			TS:              p.u(),
			BBEnter:         p.u(),
			TRMS:            p.i(),
			RMS:             p.i(),
			InducedThread:   p.u(),
			InducedExternal: p.u(),
		})
	}

	na := p.count(10)
	st.acts = make(map[guest.RoutineID]*core.Activations, na)
	for i := 0; i < na; i++ {
		id := guest.RoutineID(p.u())
		if _, dup := st.acts[id]; dup {
			return nil, fmt.Errorf("%w: duplicate routine in worker state", errCkpt)
		}
		a := core.NewActivations(st.id)
		a.Calls = p.u()
		a.SumCost = p.u()
		a.SumTRMS = p.u()
		a.SumRMS = p.u()
		a.InducedThread = p.u()
		a.InducedExternal = p.u()
		a.SampledOut = p.u()
		a.SampledOutCost = p.u()
		a.PartialCalls = p.u()
		if err := decodePoints(p, a.ByTRMS); err != nil {
			return nil, err
		}
		if err := decodePoints(p, a.ByRMS); err != nil {
			return nil, err
		}
		st.acts[id] = a
	}

	nc := p.count(2)
	prev := uint64(0)
	for i := 0; i < nc; i++ {
		prev += p.u()
		val := p.u()
		if val == 0 {
			return nil, fmt.Errorf("%w: zero shadow cell in worker state", errCkpt)
		}
		st.cells = append(st.cells, cellPair{addr: prev, val: val})
	}
	if !p.done() {
		return nil, fmt.Errorf("%w: malformed worker state", errCkpt)
	}
	return st, nil
}

func decodePoints(p *ckptParser, m map[uint64]*core.Point) error {
	n := p.count(5)
	prev, first := uint64(0), true
	for i := 0; i < n; i++ {
		pt := &core.Point{N: p.u(), Calls: p.u(), MinCost: p.u(), MaxCost: p.u(), SumCost: p.u()}
		if !first && pt.N <= prev {
			return fmt.Errorf("%w: unsorted histogram in worker state", errCkpt)
		}
		prev, first = pt.N, false
		m[pt.N] = pt
	}
	if p.bad {
		return fmt.Errorf("%w: malformed histogram", errCkpt)
	}
	return nil
}

// encodeCheckpoint serializes a header and worker states into a complete
// checkpoint file image.
func encodeCheckpoint(h ckptHeader, states map[int]*workerState) []byte {
	out := append([]byte(ckptMagic), ckptVersion)
	out = appendCkptBlock(out, ckptBlockHeader, h.encode())
	idxs := make([]int, 0, len(states))
	for i := range states {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	for _, i := range idxs {
		out = appendCkptBlock(out, ckptBlockWorker, states[i].encode())
	}
	var f ckptEncoder
	f.u(uint64(len(idxs)))
	return appendCkptBlock(out, ckptBlockFooter, f.buf)
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
	rest := data[len(ckptMagic)+1:]

	c := &Checkpoint{workers: make(map[int]*workerState)}
	sawHeader, sawFooter := false, false
	nWorkers := 0
	for len(rest) > 0 {
		if sawFooter {
			return nil, fmt.Errorf("%w: data after footer", errCkpt)
		}
		kind := rest[0]
		plen, n := binary.Uvarint(rest[1:])
		if n <= 0 || plen > uint64(len(rest)) || 1+n+int(plen)+4 > len(rest) {
			return nil, fmt.Errorf("%w: truncated block", errCkpt)
		}
		body := rest[1+n : 1+n+int(plen)]
		tail := rest[1+n+int(plen):]
		want := binary.LittleEndian.Uint32(tail)
		got := crc32.Update(crc32.Checksum([]byte{kind}, ckptCRC), ckptCRC, body)
		if want != got {
			return nil, fmt.Errorf("%w: block checksum mismatch", errCkpt)
		}
		rest = tail[4:]

		switch kind {
		case ckptBlockHeader:
			if sawHeader {
				return nil, fmt.Errorf("%w: duplicate header", errCkpt)
			}
			sawHeader = true
			h, err := decodeHeader(body)
			if err != nil {
				return nil, err
			}
			c.header = h
		case ckptBlockWorker:
			if !sawHeader {
				return nil, fmt.Errorf("%w: worker block before header", errCkpt)
			}
			st, err := decodeWorker(body)
			if err != nil {
				return nil, err
			}
			if _, dup := c.workers[st.threadIdx]; dup {
				return nil, fmt.Errorf("%w: duplicate worker state", errCkpt)
			}
			c.workers[st.threadIdx] = st
			nWorkers++
		case ckptBlockFooter:
			p := &ckptParser{buf: body}
			if cnt := p.u(); !p.done() || cnt != uint64(nWorkers) {
				return nil, fmt.Errorf("%w: footer count mismatch", errCkpt)
			}
			sawFooter = true
		default:
			return nil, fmt.Errorf("%w: unknown block kind %q", errCkpt, kind)
		}
	}
	if !sawHeader || !sawFooter {
		return nil, fmt.Errorf("%w: missing header or footer", errCkpt)
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

	gen atomic.Uint64 // snapshot generation; workers snapshot when it moves

	ch    chan *workerState
	stop  chan struct{}
	donec chan struct{}

	// manager-goroutine state
	states    map[int]*workerState
	lastWrite time.Time
	dirty     bool
	snapWant  bool
}

func newCkptManager(p *Plan, opts CheckpointOptions, reg *telemetry.Registry, seed map[int]*workerState) *ckptManager {
	every := opts.EveryEvents
	if every <= 0 {
		every = defaultEveryEvents
	}
	m := &ckptManager{
		opts:   opts,
		plan:   p,
		reg:    reg,
		every:  every,
		header: p.fingerprint(),
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
// their last seen value and begin a shadow snapshot when it moved.
func (m *ckptManager) snapGen() uint64 { return m.gen.Load() }

// observePause records one worker's snapshot pause and chunk split.
func (m *ckptManager) observePause(pause time.Duration, st shadow.SnapshotStats) {
	m.reg.Histogram("checkpoint/pause_ns").Observe(uint64(pause))
	m.reg.Counter("checkpoint/chunks_precopied").Add(uint64(st.Precopied))
	m.reg.Counter("checkpoint/chunks_dirty").Add(uint64(st.Dirty))
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
	st.materialize()
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
		merged.Merge(stateProfile(m.plan.tr, st))
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

// stateProfile rebuilds the single-thread profile a worker state carries —
// the same fold worker.profile performs, so a resumed-done thread merges
// byte-identically.
func stateProfile(tr *trace.Trace, st *workerState) *core.Profile {
	out := core.NewProfile()
	out.InducedThread = st.inducedThread
	out.InducedExternal = st.inducedExternal
	ids := make([]guest.RoutineID, 0, len(st.acts))
	for id := range st.acts {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		out.AddActivations(tr.RoutineName(id), cloneActs(st.acts[id]))
	}
	return out
}

// cloneActs deep-copies an aggregate (the pipeline-side sibling of core's
// internal clone): checkpoint states are reusable across runs, so nothing
// restored from one may alias it.
func cloneActs(a *core.Activations) *core.Activations {
	out := core.NewActivations(a.Thread)
	out.Calls = a.Calls
	out.SumCost = a.SumCost
	out.SumTRMS = a.SumTRMS
	out.SumRMS = a.SumRMS
	out.InducedThread = a.InducedThread
	out.InducedExternal = a.InducedExternal
	out.SampledOut = a.SampledOut
	out.SampledOutCost = a.SampledOutCost
	out.PartialCalls = a.PartialCalls
	for n, pt := range a.ByTRMS {
		cp := *pt
		out.ByTRMS[n] = &cp
	}
	for n, pt := range a.ByRMS {
		cp := *pt
		out.ByRMS[n] = &cp
	}
	return out
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
