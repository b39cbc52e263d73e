package daemon

import (
	"bytes"
	"cmp"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/block"
	"repro/internal/guest"
	"repro/internal/obs"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// minScanFeed is the reference merge: the per-event min-scan the run merge
// replaced. It feeds, one event at a time, the smallest (TS, thread id)
// head at or below the frontier, over a map of per-thread event slices.
func minScanFeed(queues map[guest.ThreadID][]trace.Event, frontier uint64) []trace.Event {
	var fed []trace.Event
	for {
		var best []trace.Event
		var bestTh guest.ThreadID
		for th, q := range queues {
			if len(q) == 0 || q[0].TS > frontier {
				continue
			}
			if best == nil || q[0].TS < best[0].TS || (q[0].TS == best[0].TS && th < bestTh) {
				best, bestTh = q, th
			}
		}
		if best == nil {
			return fed
		}
		fed = append(fed, best[0])
		queues[bestTh] = best[1:]
	}
}

// TestFeedRunsMatchesMinScan: over randomized queues — several segments
// per thread, empty segments, timestamps tied across threads, frontiers
// that stop mid-segment — the run merge feeds exactly the event sequence
// of the per-event min-scan, in runs of one thread each, and leaves the
// same events queued.
func TestFeedRunsMatchesMinScan(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 2000; iter++ {
		var queues []*queue
		ref := make(map[guest.ThreadID][]trace.Event)
		id := uint64(0)
		maxTS := uint64(0)
		for _, th := range rng.Perm(6)[:1+rng.Intn(5)] {
			q := &queue{thread: guest.ThreadID(th)}
			ts := uint64(1 + rng.Intn(3))
			for s := rng.Intn(5); s > 0; s-- {
				seg := make([]trace.Event, rng.Intn(5))
				for i := range seg {
					id++
					seg[i] = trace.Event{TS: ts, Thread: q.thread, Arg: id}
					ref[q.thread] = append(ref[q.thread], seg[i])
					maxTS = max(maxTS, ts)
					ts += uint64(rng.Intn(3)) // ties within and across threads
				}
				q.push(seg)
			}
			queues = append(queues, q)
		}
		sort.Slice(queues, func(i, j int) bool { return queues[i].thread < queues[j].thread })

		frontier := uint64(0)
		for frontier < maxTS {
			frontier += 1 + uint64(rng.Intn(4))
			if rng.Intn(4) == 0 {
				frontier = math.MaxUint64 // a finished connection
			}
			want := minScanFeed(ref, frontier)
			var got []trace.Event
			n, err := feedRuns(queues, frontier, func(run []trace.Event) error {
				if len(run) == 0 {
					t.Fatal("empty run")
				}
				for _, e := range run {
					if e.Thread != run[0].Thread {
						t.Fatalf("run mixes threads %d and %d", run[0].Thread, e.Thread)
					}
				}
				got = append(got, run...)
				return nil
			})
			if err != nil || n != uint64(len(got)) {
				t.Fatalf("feedRuns = %d, %v for %d fed events", n, err, len(got))
			}
			if !slices.Equal(got, want) {
				t.Fatalf("iteration %d, frontier %d: run merge fed\n%v\nmin-scan fed\n%v", iter, frontier, got, want)
			}
			for _, q := range queues {
				var rest []trace.Event
				for _, seg := range q.segs {
					if len(seg) == 0 {
						t.Fatalf("thread %d queues an empty segment", q.thread)
					}
					rest = append(rest, seg...)
				}
				if !slices.Equal(rest, ref[q.thread]) {
					t.Fatalf("thread %d keeps %v queued, the min-scan %v", q.thread, rest, ref[q.thread])
				}
			}
		}
	}
}

// sameArray reports whether two slices share a backing array.
func sameArray(x, y []trace.Event) bool {
	return cap(x) > 0 && cap(y) > 0 && &x[:cap(x)][cap(x)-1] == &y[:cap(y)][cap(y)-1]
}

// TestFedSegmentReleased: once its last event is fed, a segment is no
// longer referenced by its queue, neither from the queue's live slots nor
// from the cleared slot before them; a partly fed segment stays, resliced
// past its fed prefix.
func TestFedSegmentReleased(t *testing.T) {
	a := []trace.Event{{TS: 1, Thread: 1}, {TS: 2, Thread: 1}}
	b := []trace.Event{{TS: 5, Thread: 1}, {TS: 6, Thread: 1}}
	q := &queue{thread: 1}
	q.push(a)
	q.push(b)
	slots := q.segs[:cap(q.segs)]
	n, err := feedRuns([]*queue{q}, 5, func([]trace.Event) error { return nil })
	if err != nil || n != 3 {
		t.Fatalf("feedRuns = %d, %v; want 3 events", n, err)
	}
	for _, s := range append(slots, q.segs[:cap(q.segs)]...) {
		if sameArray(s, a) {
			t.Fatal("the fed segment is still referenced by its queue")
		}
	}
	if len(q.segs) != 1 || len(q.segs[0]) != 1 || &q.segs[0][0] != &b[1] {
		t.Fatalf("the partly fed segment should remain as its unfed suffix, queue holds %v", q.segs)
	}
}

// started starts a daemon that closes when the test ends, after the
// clients dialed to it have been dropped.
func started(t *testing.T, opts Options) *Daemon {
	t.Helper()
	d, err := Start(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	return d
}

// dialed connects n guests to tenant and waits until the daemon has
// registered every hello.
func dialed(t *testing.T, d *Daemon, tenant string, n int) []*Client {
	t.Helper()
	var clients []*Client
	for i := 0; i < n; i++ {
		c, err := Dial("tcp", d.Addr(), tenant, fmt.Sprintf("guest-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Abort() })
		clients = append(clients, c)
	}
	waitFor(t, "every connection", func() bool {
		ten := d.Lookup(tenant)
		return ten != nil && len(ten.Status().Connections) == n
	})
	return clients
}

// streamPrefix records the first n events of shard's merged order into the
// client and flushes them as one frame. It returns the frame's watermark,
// the last recorded timestamp.
func streamPrefix(t *testing.T, c *Client, shard *trace.Trace, n int) uint64 {
	t.Helper()
	env := &streamEnv{routines: shard.Routines, syncs: shard.Syncs}
	c.Recorder().Attach(env)
	var watermark uint64
	for _, e := range trace.Merge(shard, 1)[:n] {
		env.now = e.TS
		if err := trace.Dispatch(e, []guest.Tool{c.Recorder()}); err != nil {
			t.Fatal(err)
		}
		if e.Kind != trace.KindSwitch {
			watermark = e.TS
		}
	}
	if err := c.Flush(); err != nil {
		t.Fatal(err)
	}
	return watermark
}

// countAbove counts the trace's events with TS above ts.
func countAbove(tr *trace.Trace, ts uint64) uint64 {
	var n uint64
	for i := range tr.Threads {
		for _, e := range tr.Threads[i].Events {
			if e.TS > ts {
				n++
			}
		}
	}
	return n
}

// TestDiscardedExactAfterAbort: after a guest dies mid-stream, the epoch
// discards exactly the survivor's events past the victim's frozen
// watermark, feeds exactly those at or below it, and a following clean
// epoch leaves the count (and the daemon/events_discarded counter) as is.
func TestDiscardedExactAfterAbort(t *testing.T) {
	tr := recordedRun(t)
	shards := shardThreads(tr, 2)
	reg := telemetry.NewRegistry()
	d := started(t, Options{Registry: reg})
	clients := dialed(t, d, "acme", 2)
	survivor, victim := clients[0], clients[1]

	watermark := streamPrefix(t, victim, shards[1], shards[1].NumEvents()/2)
	if err := victim.Abort(); err != nil {
		t.Fatal(err)
	}
	ten := d.Lookup("acme")
	waitFor(t, "victim marked dead", func() bool { return ten.Status().Degraded })
	if err := survivor.Stream(shards[0], 1, 16); err != nil {
		t.Fatal(err)
	}
	if err := survivor.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "epoch end", func() bool { return ten.Status().Epoch == 1 })

	wantDiscarded := countAbove(shards[0], watermark)
	wantEvents := uint64(tr.NumEvents()) - countAbove(tr, watermark)
	check := func(when string) {
		t.Helper()
		st := ten.Status()
		if st.Discarded != wantDiscarded {
			t.Errorf("%s: discarded %d, want %d", when, st.Discarded, wantDiscarded)
		}
		if got := reg.Counter("daemon/events_discarded").Load(); got != wantDiscarded {
			t.Errorf("%s: daemon/events_discarded = %d, want %d", when, got, wantDiscarded)
		}
	}
	if st := ten.Status(); st.Events != wantEvents {
		t.Errorf("fed %d events, want the %d at or below the frozen watermark", st.Events, wantEvents)
	}
	check("after the abort")

	c := dialed(t, d, "acme", 1)[0]
	if err := c.Stream(tr, 1, 32); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "second epoch end", func() bool { return ten.Status().Epoch == 2 })
	check("after a clean epoch")
}

// lockedBuffer is a bytes.Buffer safe for the daemon's connection
// goroutines to log into while a test reads it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// rawDial connects to d as a guest of tenant and sends its hello. The
// caller writes frames with writeFrame, bypassing the client's recorder,
// which would refuse to record what these tests send.
func rawDial(t *testing.T, d *Daemon, tenant, process string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", d.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if err := writeHello(conn, hello{Tenant: tenant, Process: process}); err != nil {
		t.Fatal(err)
	}
	return conn
}

// TestOutOfRangeAddressKillsConnection: a stream carrying a memory access
// outside the analysed address space kills its connection at the decoder,
// and only it: another tenant's stream still matches batch analysis.
func TestOutOfRangeAddressKillsConnection(t *testing.T) {
	tr := recordedRun(t)
	want := batchExport(t, tr)
	// The prelude and one segment of thread 1 holding one record: a read
	// of cell 2^45 at timestamp 1.
	seg := binary.AppendUvarint(binary.AppendUvarint(nil, 1), 1)
	seg = append(binary.AppendUvarint(seg, 1), byte(trace.KindRead))
	seg = append(binary.AppendUvarint(seg, 1<<45), 0)
	raw := block.Append(append([]byte("ISPTRACE"), trace.FormatVersion()), 'E', seg)

	var log lockedBuffer
	d := started(t, Options{Log: &log})
	evil := rawDial(t, d, "evil", "guest-0")
	// The daemon drops the connection at the bad frame, so the write may
	// fail; only the daemon's side matters here.
	_ = writeFrame(evil, raw)
	// The daemon fails the connection, then logs why.
	waitFor(t, "the daemon to log the address error", func() bool {
		return strings.Contains(log.String(), "analysed address space")
	})
	if st := d.Lookup("evil").Status(); !st.Degraded || st.Epoch != 1 || st.Events != 0 {
		t.Errorf("status %+v, want a degraded first epoch with no event fed", st)
	}

	good := dialed(t, d, "good", 1)[0]
	if err := good.Stream(tr, 1, 16); err != nil {
		t.Fatal(err)
	}
	if err := good.Close(); err != nil {
		t.Fatal(err)
	}
	gt := d.Lookup("good")
	waitFor(t, "the good epoch to end", func() bool { return gt.Status().Epoch == 1 })
	doc := tenantDoc(t, gt)
	if doc.Degraded {
		t.Error("the good tenant reports degradation")
	}
	if got := docProfileBytes(doc); !bytes.Equal(got, want) {
		t.Fatalf("the good tenant's profile diverges from batch analysis (%d vs %d bytes)", len(got), len(want))
	}
}

// TestSegmentSteppingBackKillsConnection: a thread's segment that starts
// before the thread's previous segment ended kills its connection at the
// decoder, even above the merge frontier, and only that connection: the
// other guest of the tenant finishes cleanly and its events below the dead
// connection's frozen watermark are fed.
func TestSegmentSteppingBackKillsConnection(t *testing.T) {
	var log lockedBuffer
	d := started(t, Options{Log: &log})
	cs := dialed(t, d, "order", 2)
	holder, bad := cs[0], cs[1]
	envs := make([]*streamEnv, 2)
	for i, c := range cs {
		envs[i] = &streamEnv{}
		c.Recorder().Attach(envs[i])
	}
	write := func(c *Client, env *streamEnv, th guest.ThreadID, ts uint64) {
		env.now = ts
		c.Recorder().MemBatch(th, ts, []guest.MemEvent{guest.WriteEvent(8)})
	}
	// The holder keeps the frontier at 1, so the step back from 7 to 6
	// lies above it and only the decoder can see it.
	write(holder, envs[0], 9, 1)
	if err := holder.Flush(); err != nil {
		t.Fatal(err)
	}
	write(bad, envs[1], 3, 5)
	write(bad, envs[1], 3, 7)
	if err := bad.Flush(); err != nil {
		t.Fatal(err)
	}
	write(bad, envs[1], 3, 6)
	_ = bad.Flush() // the daemon may already have closed the connection
	// The daemon fails the connection, then logs the decoders' message.
	waitFor(t, "the daemon to log the step back", func() bool {
		return strings.Contains(log.String(), "thread 3: segment starts at timestamp 6, before the previous segment's 7")
	})
	ten := d.Lookup("order")
	for _, c := range ten.Status().Connections {
		if want := map[string]string{"guest-0": "open", "guest-1": "dead"}[c.Process]; c.State != want {
			t.Errorf("connection %s is %s, want %s", c.Process, c.State, want)
		}
	}

	write(holder, envs[0], 9, 8)
	if err := holder.Close(); err != nil {
		t.Fatalf("the other connection was refused: %v", err)
	}
	waitFor(t, "the epoch to end", func() bool { return ten.Status().Epoch == 1 })
	st := ten.Status()
	if !st.Degraded {
		t.Fatalf("status %+v, want a degraded epoch", st)
	}
	// The dead connection froze at 7: TS 1, 5 and 7 feed, the holder's 8
	// is discarded.
	if st.Events != 3 || st.Discarded != 1 {
		t.Fatalf("fed %d and discarded %d events, want 3 and 1", st.Events, st.Discarded)
	}
}

// TestRoutinePastTableKillsConnection: a stream whose call names a routine
// id past the names it has sent kills its connection at the decoder, and
// only it: the tenant's other guest is still open.
func TestRoutinePastTableKillsConnection(t *testing.T) {
	var log lockedBuffer
	d := started(t, Options{Log: &log})
	cs := dialed(t, d, "routines", 2)
	holder, bad := cs[0], cs[1]
	for _, c := range cs {
		c.Recorder().Attach(&streamEnv{})
	}
	bad.Recorder().Call(3, 1<<26, 0)
	bad.Recorder().Return(3, 1<<26, 1)
	_ = bad.Flush() // the daemon may already have closed the connection
	waitFor(t, "the daemon to log the routine id", func() bool {
		return strings.Contains(log.String(), "call of routine 67108864 outside the 0-name routine table")
	})
	for _, c := range d.Lookup("routines").Status().Connections {
		if want := map[string]string{"guest-0": "open", "guest-1": "dead"}[c.Process]; c.State != want {
			t.Errorf("connection %s is %s, want %s", c.Process, c.State, want)
		}
	}
	if err := holder.Close(); err != nil {
		t.Fatalf("the other connection was refused: %v", err)
	}
}

// TestDialSendsNoAnnotations: a client's frames carry event segments but
// no stamp-annotation blocks, and they still decode to the recorded run.
func TestDialSendsNoAnnotations(t *testing.T) {
	tr := recordedRun(t)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	got := make(chan []byte, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			got <- nil
			return
		}
		defer conn.Close()
		br := bufioReader(conn)
		var stream []byte
		if _, err := readHello(br); err == nil {
			for {
				frame, err := readFrame(br, nil)
				if err != nil {
					break
				}
				stream = append(stream, frame...)
			}
		}
		got <- stream
	}()
	c, err := Dial("tcp", ln.Addr().String(), "acme", "guest")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Stream(tr, 1, 16); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	stream := <-got

	const prelude = 9 // magic and version byte
	format := block.Format{Kinds: "RYEAF", MaxPayload: 1 << 28}
	kinds := make(map[byte]int)
	for off := prelude; off < len(stream); {
		f, err := format.Next(stream, off)
		if err != nil {
			t.Fatalf("block at offset %d: %v", off, err)
		}
		kinds[f.Kind]++
		off = f.End
	}
	if kinds['A'] != 0 || kinds['E'] == 0 {
		t.Fatalf("client stream has blocks %v; want segments and no annotations", kinds)
	}
	dec, err := trace.Decode(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	if dec.Annotated || dec.NumEvents() != tr.NumEvents() {
		t.Fatalf("decoded %d events (annotated %v), recorded %d", dec.NumEvents(), dec.Annotated, tr.NumEvents())
	}
}

// TestDaemonTimingHistograms: after a two-guest run, every self-timing
// histogram has observations in the registry and appears on /metrics.
func TestDaemonTimingHistograms(t *testing.T) {
	tr := recordedRun(t)
	shards := shardThreads(tr, 2)
	reg := telemetry.NewRegistry()
	srv, err := obs.Start(obs.Options{Addr: "127.0.0.1:0", Registry: reg, Component: "daemon-test"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	d := started(t, Options{Registry: reg})
	for i, c := range dialed(t, d, "acme", 2) {
		if err := c.Stream(shards[i], 1, 16); err != nil {
			t.Fatal(err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "epoch end", func() bool { return d.Lookup("acme").Status().Epoch == 1 })

	resp, err := http.Get("http://" + srv.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if off := started(t, Options{}); !off.tm.start().IsZero() {
		t.Error("a daemon without a registry reads the clock")
	}
	snap := reg.Snapshot()
	for _, name := range []string{"daemon/decode_ns", "daemon/feed_ns", "daemon/cut_ns", "daemon/flush_ns", "daemon/lock_wait_ns"} {
		if h := snap.Histograms[name]; h.Count == 0 {
			t.Errorf("%s has no observations", name)
		}
		if !strings.Contains(string(metrics), telemetry.PrometheusName(name)+"_count") {
			t.Errorf("/metrics lacks %s", name)
		}
	}
}

// TestMidEpochProfileMatchesStatus: a /profile request in the middle of
// an epoch exports on demand a document that agrees with Status and whose
// profile is the batch analysis of the events fed so far.
func TestMidEpochProfileMatchesStatus(t *testing.T) {
	tr := recordedRun(t)
	d := started(t, Options{})
	c := dialed(t, d, "acme", 1)[0]
	watermark := streamPrefix(t, c, tr, tr.NumEvents()/2)
	ten := d.Lookup("acme")
	waitFor(t, "the frame to be fed", func() bool { return ten.Status().Watermark == watermark })

	raw, err := ten.Feed().Get(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		profileDoc
		Watermark uint64 `json:"watermark"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	st := ten.Status()
	if doc.Events != st.Events || doc.Windows != st.Windows || doc.Watermark != st.Watermark || doc.Epoch != 0 {
		t.Errorf("document says events %d, windows %d, watermark %d, epoch %d; Status says %d, %d, %d, %d",
			doc.Events, doc.Windows, doc.Watermark, doc.Epoch, st.Events, st.Windows, st.Watermark, st.Epoch)
	}
	want := batchExport(t, trace.SplitByTS(tr, []uint64{watermark})[0])
	if got := docProfileBytes(doc.profileDoc); !bytes.Equal(got, want) {
		t.Fatalf("mid-epoch profile is not the batch analysis of the fed prefix (%d vs %d bytes)", len(got), len(want))
	}
}

// TestCheckpointEveryCut: with CheckpointDir set, every window cut
// rewrites the tenant's checkpoint with the tenant's current accounting.
func TestCheckpointEveryCut(t *testing.T) {
	tr := recordedRun(t)
	d := started(t, Options{CheckpointDir: t.TempDir()})
	c := dialed(t, d, "acme", 1)[0]
	ten := d.Lookup("acme")
	env := &streamEnv{routines: tr.Routines, syncs: tr.Syncs}
	c.Recorder().Attach(env)
	cuts := 0
	for i, e := range trace.Merge(tr, 1) {
		env.now = e.TS
		if err := trace.Dispatch(e, []guest.Tool{c.Recorder()}); err != nil {
			t.Fatal(err)
		}
		if i%50 != 49 {
			continue
		}
		windows := ten.Status().Windows
		if err := c.Flush(); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "a cut", func() bool { return ten.Status().Windows == windows+1 })
		st := ten.Status()
		ck, err := loadCheckpoint(d.checkpointPath("acme"))
		if err != nil || ck == nil {
			t.Fatalf("loading the checkpoint after cut %d: %v", st.Windows, err)
		}
		if ck.Meta.Windows != st.Windows || ck.Meta.Events != st.Events {
			t.Fatalf("checkpoint holds %d windows / %d events, the tenant %d / %d", ck.Meta.Windows, ck.Meta.Events, st.Windows, st.Events)
		}
		cuts++
	}
	if cuts < 2 {
		t.Fatalf("only %d cuts checked", cuts)
	}
}

// TestProfilePollDuringIngest polls the tenant's profile while two guests
// stream into it. Every document parses and never moves backwards, and
// the final one matches batch analysis. CI runs it under the race
// detector many times over.
func TestProfilePollDuringIngest(t *testing.T) {
	tr := recordedRun(t)
	want := batchExport(t, tr)
	shards := shardThreads(tr, 2)
	d := started(t, Options{})
	clients := dialed(t, d, "acme", 2)
	ten := d.Lookup("acme")

	done := make(chan struct{})
	polled := make(chan error, 1)
	go func() {
		var last uint64
		var err error
		for polls := 0; err == nil; polls++ {
			select {
			case <-done:
				polled <- nil
				return
			default:
			}
			var raw []byte
			if raw, err = ten.Feed().Get(context.Background()); err != nil {
				break
			}
			var doc profileDoc
			if err = json.Unmarshal(raw, &doc); err != nil {
				break
			}
			if doc.Events < last {
				err = fmt.Errorf("poll %d: events went back from %d to %d", polls, last, doc.Events)
			}
			last = doc.Events
		}
		polled <- err
	}()

	var wg sync.WaitGroup
	errs := make([]error, len(clients))
	for i, c := range clients {
		wg.Add(1)
		go func(i int, c *Client) {
			defer wg.Done()
			if errs[i] = c.Stream(shards[i], 1, 8); errs[i] == nil {
				errs[i] = c.Close()
			}
		}(i, c)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("guest %d: %v", i, err)
		}
	}
	waitFor(t, "epoch end", func() bool { return ten.Status().Epoch == 1 })
	close(done)
	if err := <-polled; err != nil {
		t.Fatal(err)
	}
	if got := docProfileBytes(tenantDoc(t, ten)); !bytes.Equal(got, want) {
		t.Fatalf("rolling profile diverges from batch analysis (%d vs %d bytes)", len(got), len(want))
	}
}

// streamFrames records tr's merged order into a StreamRecorder cutting
// segments at segEvents events, and returns the bytes of each frame of
// flushEvery recorded events, as a client would send them.
func streamFrames(t *testing.T, tr *trace.Trace, segEvents, flushEvery int) [][]byte {
	t.Helper()
	var buf bytes.Buffer
	rec := trace.NewStreamRecorder(&buf)
	rec.SetAnnotations(false)
	rec.SetSegmentEvents(segEvents)
	env := &streamEnv{routines: tr.Routines, syncs: tr.Syncs}
	rec.Attach(env)
	var frames [][]byte
	cut := func() {
		frames = append(frames, bytes.Clone(buf.Bytes()))
		buf.Reset()
	}
	n := 0
	for _, e := range trace.Merge(tr, 1) {
		env.now = e.TS
		if err := trace.Dispatch(e, []guest.Tool{rec}); err != nil {
			t.Fatal(err)
		}
		if e.Kind != trace.KindSwitch {
			if n++; n%flushEvery == 0 {
				rec.Flush()
				cut()
			}
		}
	}
	if err := rec.Close(); err != nil {
		t.Fatal(err)
	}
	cut()
	return frames
}

// TestSegmentStorageRecycling: decoded segments cross goroutines as in the
// daemon — one goroutine decodes frames, another queues, feeds and
// releases them — and recycled storage never aliases a segment still
// queued. A partly fed segment keeps its storage and its unfed events
// until they are fed, and the merge feeds exactly the recorded order.
func TestSegmentStorageRecycling(t *testing.T) {
	rec := trace.NewRecorder()
	if _, err := workloads.RunByName("mysqld", workloads.Params{Size: 4, Threads: 3, Seed: 1}, rec); err != nil {
		t.Fatal(err)
	}
	tr := rec.Trace()
	frames := streamFrames(t, tr, 64, 97)

	// A few frames of slack let decoding run ahead of the releases, as a
	// connection's decoding runs ahead of the tenant's merge.
	deltas := make(chan trace.StreamDelta, 4)
	go func() {
		defer close(deltas)
		dec := trace.NewStreamDecoder()
		for _, f := range frames {
			delta, err := dec.Feed(f)
			if err != nil {
				t.Error(err)
				return
			}
			deltas <- delta
		}
	}()

	var queues []*queue
	queued := func(s []trace.Event) bool {
		for _, q := range queues {
			if q.head != nil && sameArray(s, q.head) {
				return true
			}
			for _, seg := range q.segs {
				if sameArray(s, seg) {
					return true
				}
			}
		}
		return false
	}
	var fed []trace.Event
	feed := func(run []trace.Event) error {
		fed = append(fed, run...)
		return nil
	}
	rng := rand.New(rand.NewSource(1))
	unfed := make(map[guest.ThreadID][]trace.Event) // partly fed heads, as left
	var frontier, maxTS uint64
	partial := 0
	for delta := range deltas {
		for _, q := range queues {
			if want, ok := unfed[q.thread]; ok && !slices.Equal(q.segs[0], want) {
				t.Fatalf("thread %d: a partly fed segment changed while later frames decoded", q.thread)
			}
		}
		for _, seg := range delta.Segments {
			if queued(seg.Events) {
				t.Fatalf("a decoded segment of thread %d reuses storage still queued", seg.Thread)
			}
			i, ok := slices.BinarySearchFunc(queues, seg.Thread, queueCmp)
			if !ok {
				queues = slices.Insert(queues, i, &queue{thread: seg.Thread})
			}
			queues[i].push(seg.Events)
			if n := len(seg.Events); n > 0 {
				maxTS = max(maxTS, seg.Events[n-1].TS)
			}
		}
		frontier += uint64(rng.Int63n(int64(maxTS-frontier) + 1))
		if _, err := feedRuns(queues, frontier, feed); err != nil {
			t.Fatal(err)
		}
		clear(unfed)
		for _, q := range queues {
			if q.head == nil {
				continue
			}
			if !sameArray(q.segs[0], q.head) {
				t.Fatalf("thread %d: the partly fed segment lost its storage", q.thread)
			}
			unfed[q.thread] = slices.Clone(q.segs[0])
			partial++
		}
	}
	if t.Failed() {
		return
	}
	if _, err := feedRuns(queues, math.MaxUint64, feed); err != nil {
		t.Fatal(err)
	}
	if partial == 0 {
		t.Fatal("no segment was ever left partly fed")
	}
	var want []trace.Event
	for i := range tr.Threads {
		want = append(want, tr.Threads[i].Events...)
	}
	slices.SortStableFunc(want, func(a, b trace.Event) int {
		return cmp.Or(cmp.Compare(a.TS, b.TS), cmp.Compare(a.Thread, b.Thread))
	})
	if !slices.Equal(fed, want) {
		t.Fatalf("fed %d events differing from the %d recorded ones in merged order", len(fed), len(want))
	}
}

// TestSegmentBehindFrontierKillsConnection: a frame whose segment starts at
// or below the merge frontier kills its own connection, and only it: the
// other connection keeps streaming and the tenant feeds its events.
func TestSegmentBehindFrontierKillsConnection(t *testing.T) {
	d := started(t, Options{})
	ten := d.Tenant("late")
	a, b := ten.connect(1, "a"), ten.connect(2, "b")
	seg := func(th guest.ThreadID, ts ...uint64) trace.StreamDelta {
		var events []trace.Event
		for _, x := range ts {
			events = append(events, trace.Event{TS: x, Thread: th, Kind: trace.KindRead, Arg: 8})
		}
		return trace.StreamDelta{Segments: []trace.StreamSegment{{Thread: th, Events: events}}}
	}
	if err := ten.deliver(a, seg(1, 1, 3, 10)); err != nil {
		t.Fatal(err)
	}
	if err := ten.deliver(b, seg(2, 2, 4, 20)); err != nil {
		t.Fatal(err)
	}
	if st := ten.Status(); st.Watermark != 10 || st.Events != 5 {
		t.Fatalf("frontier %d after %d events, want 10 after 5", st.Watermark, st.Events)
	}
	// Its later events lie above the frontier; its first does not.
	if err := ten.deliver(b, seg(2, 10, 30, 40)); err == nil {
		t.Fatal("a segment starting at the frontier was accepted")
	}
	if err := ten.deliver(b, seg(2, 50)); err == nil {
		t.Fatal("the failed connection accepted another frame")
	}
	if err := ten.deliver(a, trace.StreamDelta{Segments: seg(1, 15, 25).Segments, Footer: true}); err != nil {
		t.Fatalf("the other connection was refused: %v", err)
	}
	st := ten.Status()
	if !st.Degraded || st.Epoch != 1 {
		t.Fatalf("status %+v, want a degraded first epoch", st)
	}
	// b's watermark froze at 20, its last complete frame: a's TS 15 and
	// b's queued TS 20 feed, a's TS 25 is discarded.
	if st.Events != 7 || st.Discarded != 1 {
		t.Fatalf("fed %d and discarded %d events, want 7 and 1", st.Events, st.Discarded)
	}
}
