package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/guest"
	"repro/internal/trace"
	"repro/internal/workloads"
)

const (
	tenantName = "bench"
	// pollEvery is how often the load generator reads the tenant's status
	// to see which frames the merge frontier has passed.
	pollEvery = 250 * time.Microsecond
	// epochTimeout bounds one epoch, so a stalled daemon fails the rep
	// instead of hanging the run.
	epochTimeout = 60 * time.Second
)

// aprofd streams one recorded execution into an in-process daemon over
// loopback, as two guest connections holding disjoint thread shards. Each
// rep runs an open-loop epoch, where every frame is sent at a due time
// proportional to its timestamps (so the offered rate is fixed and lag
// measures processing, not a growing backlog), and closed-loop epochs
// that send as fast as the daemon takes frames. Each epoch gets a fresh
// daemon, so its profile covers exactly one execution.
type aprofd struct {
	p           workloads.Params
	frameEvents int           // recorded events per frame
	openFor     time.Duration // open-loop schedule: the last frame is due then

	events int
	shards []*shard
	order  []frameRef // every frame of every shard, by ascending max TS

	encoded       [][][]byte // traced only: each shard's frames as sent
	replayWindows int
}

// shard is one guest connection's share of the execution.
type shard struct {
	tr     *trace.Trace
	merged []trace.Event // the shard's merged order, as Client.Stream replays it
	frames []frame
}

// frame is one flush-aligned chunk of a shard's merged order.
type frame struct {
	hi    int           // end (exclusive) of the frame's events in merged
	maxTS uint64        // the watermark the frame's delivery allows
	due   time.Duration // open loop: send time after the epoch starts
}

// frameRef locates frame k of a shard in the order across shards.
type frameRef struct {
	shard, k int
	maxTS    uint64
	due      time.Duration
}

func newAprofd(seed int64, quick bool) *aprofd {
	w := &aprofd{
		p:           workloads.Params{Size: 48, Threads: 6, Seed: seed},
		frameEvents: 4096,
		openFor:     time.Second,
	}
	if quick {
		w.p = workloads.Params{Size: 3, Threads: 2, Seed: seed}
		w.frameEvents = 256
		w.openFor = 20 * time.Millisecond
	}
	return w
}

// setup records the execution, shards it by thread, cuts each shard into
// frames with their due times, and starts a daemon with both guests
// connected: everything the first rep needs before it can start.
func (w *aprofd) setup() error {
	rec := trace.NewRecorder()
	if err := runGuest(w.p, rec); err != nil {
		return err
	}
	tr := rec.Trace()
	w.events = tr.NumEvents()
	w.shards = w.shards[:0]
	for i := 0; i < 2; i++ {
		sh := &trace.Trace{Routines: tr.Routines, Syncs: tr.Syncs}
		for j := i; j < len(tr.Threads); j += 2 {
			sh.Threads = append(sh.Threads, trace.ThreadTrace{ID: tr.Threads[j].ID, Events: tr.Threads[j].Events})
		}
		merged := trace.Merge(sh, 1)
		w.shards = append(w.shards, &shard{tr: sh, merged: merged, frames: cutFrames(merged, w.frameEvents)})
	}
	var last uint64
	for _, sh := range w.shards {
		if n := len(sh.frames); n > 0 && sh.frames[n-1].maxTS > last {
			last = sh.frames[n-1].maxTS
		}
	}
	w.order = w.order[:0]
	for i, sh := range w.shards {
		for k := range sh.frames {
			f := &sh.frames[k]
			f.due = time.Duration(float64(w.openFor) * float64(f.maxTS) / float64(last))
			w.order = append(w.order, frameRef{shard: i, k: k, maxTS: f.maxTS, due: f.due})
		}
	}
	sort.Slice(w.order, func(a, b int) bool { return w.order[a].maxTS < w.order[b].maxTS })
	s, err := w.startDaemon()
	if err != nil {
		return err
	}
	return s.close()
}

// cutFrames splits a merged order into frames of every recorded events;
// synthesized thread switches are not recorded and do not count.
func cutFrames(merged []trace.Event, every int) []frame {
	var frames []frame
	n, lastTS := 0, uint64(0)
	for i, e := range merged {
		if e.Kind == trace.KindSwitch {
			continue
		}
		n++
		lastTS = e.TS
		if n%every == 0 {
			frames = append(frames, frame{hi: i + 1, maxTS: e.TS})
		}
	}
	if len(frames) == 0 || frames[len(frames)-1].hi < len(merged) {
		frames = append(frames, frame{hi: len(merged), maxTS: lastTS})
	}
	return frames
}

// daemonRun is one fresh daemon with every guest connected.
type daemonRun struct {
	d       *daemon.Daemon
	ten     *daemon.Tenant
	clients []*daemon.Client
}

// startDaemon starts a daemon and connects one client per shard. It
// returns once the daemon has registered every hello: a guest whose hello
// is still unread could see its first events arrive behind a frontier the
// other guest already moved.
func (w *aprofd) startDaemon() (*daemonRun, error) {
	d, err := daemon.Start(daemon.Options{})
	if err != nil {
		return nil, err
	}
	s := &daemonRun{d: d, ten: d.Tenant(tenantName)}
	for i := range w.shards {
		c, err := daemon.Dial("tcp", d.Addr(), tenantName, fmt.Sprintf("guest-%d", i))
		if err != nil {
			s.close()
			return nil, err
		}
		s.clients = append(s.clients, c)
	}
	deadline := time.Now().Add(epochTimeout)
	for len(s.ten.Status().Connections) < len(s.clients) {
		if time.Now().After(deadline) {
			s.close()
			return nil, fmt.Errorf("daemon registered %d of %d guests", len(s.ten.Status().Connections), len(s.clients))
		}
		time.Sleep(pollEvery)
	}
	return s, nil
}

// close drops any still-open guest and stops the daemon, waiting for its
// connection handlers.
func (s *daemonRun) close() error {
	for _, c := range s.clients {
		c.Abort()
	}
	return s.d.Close()
}

// genStats is what one guest's generator measured.
type genStats struct {
	flushUS []float64 // Client.Flush (or the final Close) per frame
	lateMS  []float64 // open loop: send time minus due time per frame
}

// epoch streams every shard on its own goroutine and polls the tenant
// until the epoch ends, recording each frame's lag in the open loop. It
// returns the time from the start until the epoch's profile is published.
func (w *aprofd) epoch(s *daemonRun, open bool, smp *sample) (time.Duration, error) {
	start := time.Now()
	gens := make([]genStats, len(w.shards))
	errs := make([]error, len(w.shards))
	var wg sync.WaitGroup
	for i, sh := range w.shards {
		wg.Add(1)
		go func(i int, sh *shard) {
			defer wg.Done()
			gens[i], errs[i] = sh.stream(s.clients[i], start, open)
		}(i, sh)
	}
	next := 0
	var took time.Duration
	var timeout error
	for {
		st := s.ten.Status()
		now := time.Now()
		for open && next < len(w.order) && (st.Epoch > 0 || w.order[next].maxTS <= st.Watermark) {
			lag := ms(now.Sub(start.Add(w.order[next].due)))
			smp.add("lag_ms", lag)
			smp.add("frame_lag_ms", lag)
			next++
		}
		if st.Epoch > 0 {
			took = now.Sub(start)
			break
		}
		if now.Sub(start) > epochTimeout {
			timeout = fmt.Errorf("epoch did not end within %v (watermark %d)", epochTimeout, st.Watermark)
			break
		}
		time.Sleep(pollEvery)
	}
	if timeout != nil {
		return 0, timeout // closing the daemon unblocks the generators
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return 0, fmt.Errorf("guest %d: %w", i, err)
		}
	}
	for _, g := range gens {
		for _, v := range g.flushUS {
			smp.add("flush_us", v)
		}
		for _, v := range g.lateMS {
			smp.add("gen_late_ms", v)
		}
	}
	return took, nil
}

// stream replays the shard's merged order into the client's recorder and
// ships a frame at every frame boundary; open loop waits for each frame's
// due time first.
func (sh *shard) stream(c *daemon.Client, start time.Time, open bool) (genStats, error) {
	var gs genStats
	env := &replayEnv{tr: sh.tr}
	rec := c.Recorder()
	rec.Attach(env)
	tl := []guest.Tool{rec}
	lo := 0
	for k, f := range sh.frames {
		if err := env.dispatch(sh.merged[lo:f.hi], tl); err != nil {
			return gs, err
		}
		lo = f.hi
		if open {
			due := start.Add(f.due)
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			}
			gs.lateMS = append(gs.lateMS, ms(time.Since(due)))
		}
		t0 := time.Now()
		var err error
		if k == len(sh.frames)-1 {
			err = c.Close()
		} else {
			err = c.Flush()
		}
		if err != nil {
			return gs, err
		}
		gs.flushUS = append(gs.flushUS, us(time.Since(t0)))
	}
	return gs, nil
}

// replayEnv is the guest.Env of a trace replay: the trace's name tables
// and the current event's timestamp as the clock.
type replayEnv struct {
	tr  *trace.Trace
	now uint64
}

func (e *replayEnv) RoutineName(r guest.RoutineID) string { return e.tr.RoutineName(r) }
func (e *replayEnv) SyncName(s guest.SyncID) string       { return e.tr.SyncName(s) }
func (e *replayEnv) NumRoutines() int                     { return len(e.tr.Routines) }
func (e *replayEnv) NumSyncs() int                        { return len(e.tr.Syncs) }
func (e *replayEnv) Now() uint64                          { return e.now }

func (e *replayEnv) dispatch(events []trace.Event, tl []guest.Tool) error {
	for _, ev := range events {
		e.now = ev.TS
		if err := trace.Dispatch(ev, tl); err != nil {
			return err
		}
	}
	return nil
}

// finish checks the ended epoch and returns its published profile.
func (w *aprofd) finish(s *daemonRun) ([]byte, error) {
	st := s.ten.Status()
	switch {
	case st.Degraded:
		return nil, fmt.Errorf("tenant degraded")
	case st.Discarded != 0:
		return nil, fmt.Errorf("tenant discarded %d events", st.Discarded)
	case st.Events != uint64(w.events):
		return nil, fmt.Errorf("daemon fed %d events, the trace has %d", st.Events, w.events)
	}
	raw, err := s.ten.Feed().Get(context.Background())
	if err != nil {
		return nil, err
	}
	var doc struct {
		Profile json.RawMessage `json:"profile"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("profile document: %w", err)
	}
	// The document embeds the canonical export without its final newline.
	return append(append([]byte(nil), doc.Profile...), '\n'), nil
}

// runEpoch runs one epoch on a fresh daemon and returns its duration and
// profile.
func (w *aprofd) runEpoch(t *tracer, open bool, smp *sample) (time.Duration, []byte, error) {
	var s *daemonRun
	if _, err := t.timed("daemon/start", func() (err error) {
		s, err = w.startDaemon()
		return err
	}); err != nil {
		return 0, nil, err
	}
	name := "daemon/closed_epoch"
	if open {
		name = "daemon/open_epoch"
	}
	var took time.Duration
	var export []byte
	_, err := t.timed(name, func() (err error) {
		if took, err = w.epoch(s, open, smp); err != nil {
			return err
		}
		if open {
			smp.vals["daemon.windows"] = float64(s.ten.Status().Windows)
		}
		export, err = w.finish(s)
		return err
	})
	if _, cerr := t.timed("daemon/stop", s.close); err == nil {
		err = cerr
	}
	return took, export, err
}

// After its open-loop epoch a rep runs closedEpochs closed-loop epochs,
// each right after nativeRuns native runs of the program, so that native
// and ingest times are taken under the same host load. A native run of this
// small program lasts only tens of milliseconds; the rep uses the median of
// each.
const (
	closedEpochs = 3
	nativeRuns   = 2
)

func (w *aprofd) rep(t *tracer, s *sample) ([][]byte, error) {
	_, openExport, err := w.runEpoch(t, true, s)
	if err != nil {
		return nil, err
	}
	exports := [][]byte{openExport}
	var natives, closeds []float64
	for i := 0; i < closedEpochs; i++ {
		for j := 0; j < nativeRuns; j++ {
			d, err := t.timed("guest/native", func() error { return runGuest(w.p) })
			if err != nil {
				return nil, err
			}
			natives = append(natives, d.Seconds())
		}
		d, export, err := w.runEpoch(t, false, s)
		if err != nil {
			return nil, err
		}
		closeds = append(closeds, d.Seconds())
		exports = append(exports, export)
	}
	native, closed := summarize(natives).Median, summarize(closeds).Median
	if t != nil {
		var replayed []byte
		if _, err := t.timed("daemon/replay", func() (err error) {
			replayed, err = w.replay(t)
			return err
		}); err != nil {
			return nil, err
		}
		exports = append(exports, replayed)
	}
	s.vals["profile_s"] = closed
	s.vals["events"] = float64(w.events)
	s.vals["slowdown"] = ratio(closed, native)
	s.vals["daemon.capacity_mev_per_s"] = ratio(float64(w.events)/1e6, closed)
	s.vals["daemon.frames"] = float64(len(w.order))
	return exports, nil
}

// prepare encodes every shard's frames exactly as its client sends them,
// for the traced rep's replay.
func (w *aprofd) prepare(traced bool) error {
	if !traced {
		return nil
	}
	w.encoded = make([][][]byte, len(w.shards))
	for i, sh := range w.shards {
		var buf bytes.Buffer
		rec := trace.NewStreamRecorder(&buf)
		env := &replayEnv{tr: sh.tr}
		rec.Attach(env)
		tl := []guest.Tool{rec}
		lo := 0
		for k, f := range sh.frames {
			if err := env.dispatch(sh.merged[lo:f.hi], tl); err != nil {
				return err
			}
			lo = f.hi
			if k == len(sh.frames)-1 {
				if err := rec.Close(); err != nil {
					return err
				}
			} else {
				rec.Flush()
			}
			w.encoded[i] = append(w.encoded[i], bytes.Clone(buf.Bytes()))
			buf.Reset()
		}
	}
	return nil
}

// replayConn is one guest's stream state in the replay.
type replayConn struct {
	dec             *trace.StreamDecoder
	routines, syncs []string
	watermark       uint64
	done            bool
}

// replay feeds the open loop's frames, in due order, through the public
// functions the daemon's tenant calls: StreamDecoder.Feed per frame, a
// frontier-bounded merge into Incremental.FeedEvent, and Cut, Merge and
// Export at every frontier advance. It returns the final profile.
func (w *aprofd) replay(t *tracer) ([]byte, error) {
	in := core.NewIncremental(core.Options{})
	rolling := core.MergePartials()
	conns := make([]*replayConn, len(w.shards))
	for i := range conns {
		conns[i] = &replayConn{dec: trace.NewStreamDecoder()}
	}
	var queues []*threadQueue // ascending thread id
	byThread := make(map[guest.ThreadID]*threadQueue)
	var export []byte
	w.replayWindows = 0
	publish := func() error {
		if _, err := t.timed("daemon/cut", func() error {
			rolling.Merge(in.Cut())
			return nil
		}); err != nil {
			return err
		}
		w.replayWindows++
		_, err := t.timed("daemon/publish", func() (err error) {
			export, err = rolling.Profile.Export()
			return err
		})
		return err
	}
	for _, ref := range w.order {
		c := conns[ref.shard]
		var delta trace.StreamDelta
		if _, err := t.timed("daemon/decode", func() (err error) {
			delta, err = c.dec.Feed(w.encoded[ref.shard][ref.k])
			return err
		}); err != nil {
			return nil, err
		}
		fed := 0
		if _, err := t.timed("daemon/feed", func() error {
			c.routines = append(c.routines, delta.Routines...)
			c.syncs = append(c.syncs, delta.Syncs...)
			if err := in.ExtendTables(c.routines, c.syncs); err != nil {
				return err
			}
			for _, seg := range delta.Segments {
				q := byThread[seg.Thread]
				if q == nil {
					q = &threadQueue{id: seg.Thread}
					byThread[seg.Thread] = q
					queues = append(queues, q)
					sort.Slice(queues, func(a, b int) bool { return queues[a].id < queues[b].id })
				}
				q.events = append(q.events, seg.Events...)
				if n := len(seg.Events); n > 0 && seg.Events[n-1].TS > c.watermark {
					c.watermark = seg.Events[n-1].TS
				}
			}
			c.done = c.done || delta.Footer
			frontier := uint64(math.MaxUint64)
			for _, o := range conns {
				if !o.done && o.watermark < frontier {
					frontier = o.watermark
				}
			}
			var err error
			fed, err = feedUpTo(in, queues, frontier)
			return err
		}); err != nil {
			return nil, err
		}
		open := 0
		for _, o := range conns {
			if !o.done {
				open++
			}
		}
		if open == 0 {
			in.Finish()
			if err := publish(); err != nil {
				return nil, err
			}
			break
		}
		if fed > 0 {
			if err := publish(); err != nil {
				return nil, err
			}
		}
	}
	return export, nil
}

// threadQueue is one thread's delivered events not yet fed.
type threadQueue struct {
	id     guest.ThreadID
	events []trace.Event
	head   int
}

// feedUpTo feeds every queued event at or below frontier in timestamp
// order, taking the lowest thread id on a tie, and returns how many it fed.
func feedUpTo(in *core.Incremental, queues []*threadQueue, frontier uint64) (int, error) {
	fed := 0
	for {
		var best *threadQueue
		for _, q := range queues {
			if q.head == len(q.events) || q.events[q.head].TS > frontier {
				continue
			}
			if best == nil || q.events[q.head].TS < best.events[best.head].TS {
				best = q
			}
		}
		if best == nil {
			return fed, nil
		}
		e := best.events[best.head]
		best.head++
		if err := in.FeedEvent(e); err != nil {
			return fed, err
		}
		fed++
	}
}

func (w *aprofd) ledger(self map[string]time.Duration, s *sample) {
	s.vals["guest.events"] = float64(w.events)
	s.vals["guest.native_ns_per_event"] = perEvent(self["guest/native"]/(closedEpochs*nativeRuns), w.events)
	decode, feed := self["daemon/decode"], self["daemon/feed"]
	cut, pub := self["daemon/cut"], self["daemon/publish"]
	s.vals["daemon.decode_ns_per_event"] = perEvent(decode, w.events)
	s.vals["daemon.feed_ns_per_event"] = perEvent(feed, w.events)
	s.vals["daemon.cut_us_per_window"] = ratio(us(cut), float64(w.replayWindows))
	s.vals["daemon.publish_us_per_window"] = ratio(us(pub), float64(w.replayWindows))
	if closed := s.vals["profile_s"]; closed > 0 {
		s.vals["daemon.residual_share"] = 1 - (decode+feed+cut+pub).Seconds()/closed
	}
}

func (w *aprofd) reference() (*core.Profile, error) { return referenceProfile(w.p) }
