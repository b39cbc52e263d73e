package daemon

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/guest"
	"repro/internal/obs"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// connState tracks where a guest connection is in its lifecycle.
type connState int

const (
	// connOpen: streaming; its watermark advances with complete frames.
	connOpen connState = iota
	// connDone: footer received; the guest promises no further events, so
	// its effective watermark is infinite.
	connDone
	// connDead: the connection failed without a footer; its watermark is
	// frozen at the last complete frame forever.
	connDead
)

// tenantConn is the per-connection ingest state.
type tenantConn struct {
	id      uint64
	process string
	// routines and syncs accumulate the connection's interned name tables;
	// every delta extends them and the whole table is prefix-checked against
	// the tenant's (Incremental.ExtendTables).
	routines []string
	syncs    []string
	// w is the connection's watermark: the maximum timestamp delivered by a
	// complete frame. Frames are recorder-Flush aligned, so every event of
	// this connection with TS <= w has been delivered.
	w     uint64
	state connState
}

// effectiveWatermark is the bound this connection imposes on the tenant's
// merge frontier.
func (c *tenantConn) effectiveWatermark() uint64 {
	if c.state == connDone {
		return math.MaxUint64
	}
	return c.w
}

// queue is one thread's unfed events: the non-empty segment slices the
// stream decoder produced, in delivery order, the head one resliced past
// its fed prefix. head is the head segment as decoded once it has been
// resliced, the storage trace.ReleaseSegment takes back. owner is the
// connection streaming the thread.
type queue struct {
	thread guest.ThreadID
	owner  uint64
	segs   [][]trace.Event
	head   []trace.Event
}

// pop drops the fully fed head segment and releases its storage.
func (q *queue) pop() {
	if q.head == nil {
		q.head = q.segs[0]
	}
	trace.ReleaseSegment(q.head)
	q.head = nil
	q.segs[0] = nil
	q.segs = q.segs[1:]
}

// push enqueues a delivered segment; an empty one adds nothing.
func (q *queue) push(events []trace.Event) {
	if len(events) > 0 {
		q.segs = append(q.segs, events)
	}
}

// Tenant is one tenant's continuous analysis: concurrent guest streams
// merged through per-connection watermarks into an Incremental analyzer,
// with a window cut (and a rolling-profile merge) at every frontier
// advance. The rolling profile is exported only on a /profile request (the
// feed's requester), at epoch end and close, and at every cut when
// checkpointing. All mutation happens under mu; connection handlers call
// in from their own goroutines.
type Tenant struct {
	name string
	d    *Daemon

	mu sync.Mutex
	in *core.Incremental
	// rolling accumulates every cut window — and, across executions and
	// daemon restarts, every previous epoch's windows.
	rolling *core.PartialProfile
	feed    *obs.ProfileFeed
	est     *telemetry.RateEstimator

	conns map[uint64]*tenantConn
	// queues holds one queue per thread of the epoch, sorted by thread id.
	queues []*queue

	// watermark is the tenant's merge frontier: every event with TS <=
	// watermark has been fed to the analyzer, in global timestamp order.
	watermark uint64
	eventsFed uint64
	discarded uint64
	// windowsBase counts windows cut by previous epochs (and restored
	// checkpoints); the current Incremental numbers its windows from zero.
	windowsBase int
	epoch       int
	degraded    bool
}

// newTenant creates a tenant, restoring its checkpoint when one exists.
func newTenant(d *Daemon, name string) *Tenant {
	t := &Tenant{
		name:    name,
		d:       d,
		feed:    obs.NewProfileFeed(),
		est:     telemetry.NewRateEstimator(0),
		conns:   make(map[uint64]*tenantConn),
		rolling: core.MergePartials(),
	}
	t.feed.SetRequester(t.publish, 1)
	t.in = core.NewIncremental(d.profOpts())
	t.est.SetPhase("idle")
	ck, err := loadCheckpoint(d.checkpointPath(name))
	if err != nil {
		d.logf("aprofd: checkpoint %s: %v; starting fresh", name, err)
	}
	if ck != nil {
		t.rolling = core.NewPartialProfile(ck.profile)
		t.rolling.Events = ck.Meta.Events
		t.rolling.LastWindow = ck.Meta.Windows - 1
		t.windowsBase = ck.Meta.Windows
		t.eventsFed = ck.Meta.Events
		t.degraded = ck.Meta.Degraded
		t.est.Update(t.eventsFed)
	}
	return t
}

// Name returns the tenant's identifier.
func (t *Tenant) Name() string { return t.name }

// connect registers a new guest connection.
func (t *Tenant) connect(id uint64, process string) *tenantConn {
	t.mu.Lock()
	defer t.mu.Unlock()
	c := &tenantConn{id: id, process: process}
	t.conns[id] = c
	t.est.SetPhase("ingest")
	t.d.reg().Counter("daemon/connections").Inc()
	return c
}

// deliver commits one decoded frame delta: tables extend, segments
// enqueue, the connection watermark advances to the frame's maximum
// timestamp, and the tenant frontier advances as far as every connection
// allows. The caller must deliver only whole, cleanly decoded frames — a
// frame that failed to decode contributes nothing.
func (t *Tenant) deliver(c *tenantConn, delta trace.StreamDelta) error {
	t0 := t.d.tm.start()
	t.mu.Lock()
	defer t.mu.Unlock()
	observe(t.d.tm.lockWait, t0)
	if c.state != connOpen {
		return fmt.Errorf("daemon: delivery on a %s connection", stateName(c.state))
	}
	c.routines = append(c.routines, delta.Routines...)
	c.syncs = append(c.syncs, delta.Syncs...)
	if err := t.in.ExtendTables(c.routines, c.syncs); err != nil {
		t.failLocked(c)
		return err
	}
	frameMax := c.w
	for _, seg := range delta.Segments {
		i, ok := slices.BinarySearchFunc(t.queues, seg.Thread, queueCmp)
		if !ok {
			t.queues = slices.Insert(t.queues, i, &queue{thread: seg.Thread, owner: c.id})
		} else if t.queues[i].owner != c.id {
			t.failLocked(c)
			return fmt.Errorf("daemon: thread %d streamed by two connections", seg.Thread)
		}
		// A decoded segment's timestamps never decrease, so its first
		// event is its earliest and its last its latest.
		if n := len(seg.Events); n > 0 {
			if first := seg.Events[0].TS; first <= t.watermark {
				// The frontier has already passed this timestamp: feeding it
				// would corrupt the merged order. Late joiners must connect
				// before their execution's events overlap the fed prefix.
				t.failLocked(c)
				return fmt.Errorf("daemon: thread %d event at TS %d arrived behind the merge frontier %d", seg.Thread, first, t.watermark)
			}
			frameMax = max(frameMax, seg.Events[n-1].TS)
		}
		t.queues[i].push(seg.Events)
	}
	c.w = frameMax
	if delta.Footer {
		c.state = connDone
	}
	t.d.reg().Counter("daemon/frames").Inc()
	t.advanceLocked()
	return nil
}

func queueCmp(q *queue, th guest.ThreadID) int { return cmp.Compare(q.thread, th) }

// fail marks a connection dead: its watermark freezes at the last complete
// frame and the tenant's rolling profile degrades to the frontier that
// watermark allows — never beyond, never corrupt.
func (t *Tenant) fail(c *tenantConn) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.failLocked(c)
}

func (t *Tenant) failLocked(c *tenantConn) {
	if c.state != connOpen {
		return
	}
	c.state = connDead
	t.degraded = true
	t.d.reg().Counter("daemon/connections_failed").Inc()
	t.est.SetPhase("degraded")
	t.advanceLocked()
}

// complete marks a connection cleanly finished (footer seen, connection
// closed). deliver already flipped the state on the footer frame; this
// handles the subsequent EOF and kicks the frontier.
func (t *Tenant) complete(c *tenantConn) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if c.state == connOpen {
		c.state = connDone
	}
	t.advanceLocked()
}

// advanceLocked pushes the merge frontier to the minimum connection
// watermark, feeding every queued event with TS <= frontier in global
// timestamp order, then cuts a window and folds it into the rolling
// profile. When no connection remains open the epoch ends: the analyzer
// finishes, the final window merges, and the tenant resets for the next
// execution.
func (t *Tenant) advanceLocked() {
	if len(t.conns) == 0 {
		return
	}
	frontier := uint64(math.MaxUint64)
	open := 0
	for _, c := range t.conns {
		if w := c.effectiveWatermark(); w < frontier {
			frontier = w
		}
		if c.state == connOpen {
			open++
		}
	}
	t0 := t.d.tm.start()
	fed, err := feedRuns(t.queues, frontier, t.in.FeedRun)
	observe(t.d.tm.feed, t0)
	if err != nil {
		// Unreachable for a well-formed stream; surface loudly in
		// telemetry rather than silently dropping.
		t.d.reg().Counter("daemon/feed_errors").Inc()
	}
	if fed > 0 {
		t.eventsFed += fed
		t.d.reg().Counter("daemon/events").Add(fed)
		t.est.Update(t.eventsFed)
	}
	if frontier > t.watermark && frontier != math.MaxUint64 {
		t.watermark = frontier
	}
	if open == 0 {
		t.endEpochLocked()
		return
	}
	if fed > 0 {
		t.cutLocked()
		if t.d.opts.CheckpointDir != "" {
			t.flushLocked(true)
		}
	}
}

// feedRuns feeds every queued event with TS <= frontier in (TS, thread id)
// order, by runs: the queue with the smallest head feeds while its head
// stays below every other head and at or below the frontier. queues must
// be sorted by thread id; a segment is released (trace.ReleaseSegment)
// once its last event is fed, so feed must not retain its run. It returns
// how many events feed accepted; a rejected run is dropped and ends it.
func feedRuns(queues []*queue, frontier uint64, feed func(run []trace.Event) error) (uint64, error) {
	var fed uint64
	for {
		// best and next get the smallest and second-smallest heads; in
		// thread order, a later queue wins only with a smaller timestamp.
		var best, next *queue
		for _, q := range queues {
			if len(q.segs) == 0 {
				continue
			}
			switch ts := q.segs[0][0].TS; {
			case best == nil || ts < best.segs[0][0].TS:
				best, next = q, best
			case next == nil || ts < next.segs[0][0].TS:
				next = q
			}
		}
		if best == nil || best.segs[0][0].TS > frontier {
			return fed, nil
		}
		// best's run ends at the frontier or before next's head, which wins
		// a timestamp tie when its thread id is smaller.
		limit := frontier
		if next != nil {
			h := next.segs[0][0].TS
			if next.thread < best.thread {
				h-- // best's head is below h, so h > 0
			}
			limit = min(limit, h)
		}
		seg := best.segs[0] // its head is within the limit
		n := 1
		for n < len(seg) && seg[n].TS <= limit {
			n++
		}
		err := feed(seg[:n])
		if n == len(seg) {
			best.pop()
		} else {
			if best.head == nil {
				best.head = seg
			}
			best.segs[0] = seg[n:]
		}
		if err != nil {
			return fed, err
		}
		fed += uint64(n)
	}
}

// cutLocked slices the current window off the analyzer and folds it into
// the rolling profile, renumbering the window into the tenant's global
// window sequence.
func (t *Tenant) cutLocked() {
	defer observe(t.d.tm.cut, t.d.tm.start())
	part := t.in.Cut()
	part.FirstWindow += t.windowsBase
	part.LastWindow += t.windowsBase
	t.rolling.Merge(part)
	t.d.reg().Counter("daemon/windows").Inc()
}

// endEpochLocked finishes the current execution: remaining feedable events
// are already fed (advance ran feedUpTo first), events beyond a dead
// connection's frozen watermark are discarded, the analyzer finishes, and
// the tenant resets for the next execution with the rolling profile intact.
func (t *Tenant) endEpochLocked() {
	var discarded uint64
	for _, q := range t.queues {
		for len(q.segs) > 0 {
			discarded += uint64(len(q.segs[0]))
			q.pop()
		}
	}
	t.discarded += discarded
	t.d.reg().Counter("daemon/events_discarded").Add(discarded)
	t.in.Finish()
	t.cutLocked()
	t.windowsBase += t.in.Profiler().Windows()
	t.epoch++
	t.in = core.NewIncremental(t.d.profOpts())
	t.conns = make(map[uint64]*tenantConn)
	t.queues = nil
	t.watermark = 0
	if t.degraded {
		t.est.SetPhase("degraded")
	} else {
		t.est.SetPhase("complete")
	}
	t.flushLocked(true)
}

// publish exports the rolling profile into the feed: the feed's requester.
func (t *Tenant) publish() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.flushLocked(false)
}

// flushLocked exports the rolling profile once and hands the bytes to the
// feed and, when checkpoint is set, to the tenant's checkpoint.
func (t *Tenant) flushLocked(checkpoint bool) {
	defer observe(t.d.tm.flush, t.d.tm.start())
	export, err := t.rolling.Profile.Export()
	if err != nil {
		t.d.reg().Counter("daemon/export_errors").Inc()
		return
	}
	t.publishLocked(export)
	if checkpoint {
		t.checkpointLocked(export)
	}
}

// publishLocked assembles the tenant's profile document around export, the
// rolling profile's canonical Export, and delivers it to the feed. The
// document is hand-assembled so the embedded profile is that export byte
// for byte — json.Marshal would compact it, breaking the byte-identity
// contract consumers rely on.
func (t *Tenant) publishLocked(export []byte) {
	export = bytes.TrimSuffix(export, []byte("\n"))
	nameJSON, _ := json.Marshal(t.name)
	var b bytes.Buffer
	fmt.Fprintf(&b, "{\n  \"tenant\": %s,\n  \"windows\": %d,\n  \"events\": %d,\n  \"watermark\": %d,\n  \"epoch\": %d,\n  \"degraded\": %v,\n  \"discarded\": %d,\n  \"profile\": ",
		nameJSON, t.windowsLocked(), t.eventsFed, t.watermark, t.epoch, t.degraded, t.discarded)
	b.Write(export)
	b.WriteString("\n}\n")
	t.feed.Deliver(b.Bytes())
}

func (t *Tenant) windowsLocked() int {
	return t.windowsBase + t.in.Profiler().Windows()
}

// checkpointLocked persists export, the rolling profile's canonical
// Export, with the tenant's window accounting.
func (t *Tenant) checkpointLocked(export []byte) {
	path := t.d.checkpointPath(t.name)
	if path == "" {
		return
	}
	meta := checkpointMeta{
		Tenant:   t.name,
		Windows:  t.windowsLocked(),
		Events:   t.eventsFed,
		Degraded: t.degraded,
	}
	if err := writeCheckpoint(path, meta, export); err != nil {
		t.d.reg().Counter("daemon/checkpoint_errors").Inc()
		t.d.logf("aprofd: checkpoint %s: %v", t.name, err)
		return
	}
	t.d.reg().Counter("daemon/checkpoints").Inc()
}

// Feed returns the tenant's live profile feed (the /profile source).
func (t *Tenant) Feed() *obs.ProfileFeed { return t.feed }

// Estimator returns the tenant's progress estimator (the /progress source).
func (t *Tenant) Estimator() *telemetry.RateEstimator { return t.est }

// Status is a point-in-time summary of one tenant, served by /tenants.json.
type Status struct {
	// Tenant is the tenant identifier.
	Tenant string `json:"tenant"`
	// Windows is the number of windows cut into the rolling profile.
	Windows int `json:"windows"`
	// Events is the number of events fed to the analyzer so far.
	Events uint64 `json:"events"`
	// Watermark is the merge frontier: every event at or below it is in
	// the rolling profile or the open window.
	Watermark uint64 `json:"watermark"`
	// Epoch counts completed executions (a new epoch starts when every
	// connection of the previous one has ended).
	Epoch int `json:"epoch"`
	// Connections lists the current epoch's guest connections.
	Connections []ConnStatus `json:"connections"`
	// Degraded reports that at least one connection died mid-stream, so
	// the rolling profile stops at that connection's last complete frame.
	Degraded bool `json:"degraded"`
	// Discarded is the number of queued events dropped past dead
	// connections' frozen watermarks.
	Discarded uint64 `json:"discarded"`
}

// ConnStatus summarizes one guest connection for /tenants.json.
type ConnStatus struct {
	// Process is the guest's self-reported process label.
	Process string `json:"process"`
	// State is "open", "done" or "dead".
	State string `json:"state"`
	// Watermark is the connection's delivered-frame frontier.
	Watermark uint64 `json:"watermark"`
}

func stateName(s connState) string {
	switch s {
	case connDone:
		return "done"
	case connDead:
		return "dead"
	default:
		return "open"
	}
}

// Status captures the tenant's current state.
func (t *Tenant) Status() Status {
	t.mu.Lock()
	defer t.mu.Unlock()
	st := Status{
		Tenant:    t.name,
		Windows:   t.windowsLocked(),
		Events:    t.eventsFed,
		Watermark: t.watermark,
		Epoch:     t.epoch,
		Degraded:  t.degraded,
		Discarded: t.discarded,
	}
	for _, c := range t.conns {
		st.Connections = append(st.Connections, ConnStatus{
			Process:   c.process,
			State:     stateName(c.state),
			Watermark: c.w,
		})
	}
	sort.Slice(st.Connections, func(i, j int) bool {
		return st.Connections[i].Process < st.Connections[j].Process
	})
	return st
}

// close runs the tenant's shutdown work: a final publish and checkpoint of
// whatever the rolling profile holds.
func (t *Tenant) close() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.flushLocked(true)
	t.feed.Finish()
}
