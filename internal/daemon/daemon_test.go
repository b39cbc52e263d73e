package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/guest"
	"repro/internal/obs"
	"repro/internal/trace"
)

// recordedRun executes a small multithreaded recursive program under the
// trace recorder and returns the recording.
func recordedRun(t testing.TB) *trace.Trace {
	t.Helper()
	rec := trace.NewRecorder()
	m := guest.NewMachine(guest.Config{Timeslice: 3, Tools: []guest.Tool{rec}})
	data := m.Static(64)
	err := m.Run(func(th *guest.Thread) {
		var kids []*guest.Thread
		for w := 0; w < 3; w++ {
			w := w
			kids = append(kids, th.Spawn("w", func(c *guest.Thread) {
				var rec func(d int)
				rec = func(d int) {
					c.Fn("rec", func() {
						c.Load(data + guest.Addr(d))
						c.Store(data+guest.Addr(d+8), uint64(d))
						if d < 3+w {
							rec(d + 1)
						}
					})
				}
				c.Fn("work", func() { rec(0) })
			}))
		}
		for _, k := range kids {
			th.Join(k)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return rec.Trace()
}

// shardThreads splits a trace into per-connection shards by thread index
// modulo n, each carrying the full name tables.
func shardThreads(tr *trace.Trace, n int) []*trace.Trace {
	shards := make([]*trace.Trace, n)
	for i := range shards {
		shards[i] = &trace.Trace{Routines: tr.Routines, Syncs: tr.Syncs}
	}
	for i := range tr.Threads {
		s := shards[i%n]
		s.Threads = append(s.Threads, trace.ThreadTrace{ID: tr.Threads[i].ID, Events: tr.Threads[i].Events})
	}
	return shards
}

// batchExport is the ground truth: a one-shot inline analysis of the trace.
func batchExport(t *testing.T, tr *trace.Trace) []byte {
	t.Helper()
	p := core.New(core.Options{})
	if err := trace.Replay(tr, 1, p); err != nil {
		t.Fatal(err)
	}
	out, err := p.Profile().Export()
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// profileDoc is the wire shape of a tenant's /profile document.
type profileDoc struct {
	Tenant    string          `json:"tenant"`
	Windows   int             `json:"windows"`
	Events    uint64          `json:"events"`
	Epoch     int             `json:"epoch"`
	Degraded  bool            `json:"degraded"`
	Discarded uint64          `json:"discarded"`
	Profile   json.RawMessage `json:"profile"`
}

// tenantDoc fetches and parses the tenant's current profile document.
func tenantDoc(t *testing.T, ten *Tenant) profileDoc {
	t.Helper()
	raw, err := ten.Feed().Get(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var doc profileDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("profile document does not parse: %v\n%s", err, raw)
	}
	return doc
}

// docProfileBytes restores the embedded profile to canonical Export form
// (json.RawMessage preserves the raw span verbatim; Export ends with the
// encoder's newline, which the embedding strips).
func docProfileBytes(doc profileDoc) []byte {
	return append(append([]byte(nil), doc.Profile...), '\n')
}

// TestDaemonMatchesBatch: two guests streaming disjoint thread shards of one
// execution must leave the tenant's rolling profile byte-identical to a
// one-shot batch analysis of the full trace.
func TestDaemonMatchesBatch(t *testing.T) {
	tr := recordedRun(t)
	want := batchExport(t, tr)
	shards := shardThreads(tr, 2)

	d, err := Start(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	var clients []*Client
	for i, s := range shards {
		c, err := Dial("tcp", d.Addr(), "acme", fmt.Sprintf("guest-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Abort()
		clients = append(clients, c)
		_ = s
	}
	// Both hellos must be registered before any frame lands: a connection's
	// watermark starts at zero, so the frontier (and the late-event check)
	// cannot pass an unregistered peer's events.
	waitFor(t, "both connections", func() bool {
		ten := d.Lookup("acme")
		return ten != nil && len(ten.Status().Connections) == 2
	})
	for i, c := range clients {
		if err := c.Stream(shards[i], 1, 16); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range clients {
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	ten := d.Lookup("acme")
	waitFor(t, "epoch end", func() bool { return ten.Status().Epoch == 1 })

	st := ten.Status()
	if st.Degraded || st.Discarded != 0 {
		t.Fatalf("clean run reported degraded=%v discarded=%d", st.Degraded, st.Discarded)
	}
	if st.Events != uint64(tr.NumEvents()) {
		t.Errorf("fed %d events, trace has %d", st.Events, tr.NumEvents())
	}
	if st.Windows == 0 {
		t.Error("no windows cut")
	}
	doc := tenantDoc(t, ten)
	if got := docProfileBytes(doc); !bytes.Equal(got, want) {
		t.Fatalf("rolling profile diverges from batch analysis (%d vs %d bytes)", len(got), len(want))
	}
}

// TestDaemonAbortDegradesToLastWindow (the fault-injection case): a guest
// connection killed mid-segment must degrade the tenant's rolling profile to
// the last complete frame's watermark — exactly a batch analysis of the
// events at or below it — and never corrupt the merge.
func TestDaemonAbortDegradesToLastWindow(t *testing.T) {
	tr := recordedRun(t)
	shards := shardThreads(tr, 2)

	d, err := Start(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	a, err := Dial("tcp", d.Addr(), "acme", "survivor")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Abort()
	b, err := Dial("tcp", d.Addr(), "acme", "victim")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Abort()
	waitFor(t, "both connections", func() bool {
		ten := d.Lookup("acme")
		return ten != nil && len(ten.Status().Connections) == 2
	})

	// Hand-stream the victim: half its merged order, one complete frame,
	// then a torn frame and a dead connection.
	merged := trace.Merge(shards[1], 1)
	env := &streamEnv{routines: shards[1].Routines, syncs: shards[1].Syncs}
	b.Recorder().Attach(env)
	var watermark uint64
	for _, e := range merged[:len(merged)/2] {
		env.now = e.TS
		if err := trace.Dispatch(e, []guest.Tool{b.Recorder()}); err != nil {
			t.Fatal(err)
		}
		if e.Kind != trace.KindSwitch {
			watermark = e.TS
		}
	}
	if err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	// A torn frame: a header promising more bytes than ever arrive.
	if _, err := b.conn.Write([]byte{0, 0, 0, 99, 'x'}); err != nil {
		t.Fatal(err)
	}
	if err := b.Abort(); err != nil {
		t.Fatal(err)
	}
	ten := d.Lookup("acme")
	waitFor(t, "victim marked dead", func() bool { return ten.Status().Degraded })

	if err := a.Stream(shards[0], 1, 16); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "epoch end", func() bool { return ten.Status().Epoch == 1 })

	// Ground truth: everything at or below the victim's frozen watermark.
	prefix := trace.SplitByTS(tr, []uint64{watermark})[0]
	want := batchExport(t, prefix)
	doc := tenantDoc(t, ten)
	if !doc.Degraded {
		t.Error("document does not report degradation")
	}
	if doc.Discarded == 0 {
		t.Error("no events reported discarded past the frozen watermark")
	}
	if got := docProfileBytes(doc); !bytes.Equal(got, want) {
		t.Fatalf("degraded profile is not the batch analysis of the frozen prefix (%d vs %d bytes)", len(got), len(want))
	}
	if st := ten.Status(); st.Events+st.Discarded != uint64(tr.NumEvents())-uint64(prefixMissing(shards[1], watermark)) {
		// Events the victim never shipped (recorded after its last flush)
		// are neither fed nor discarded — they never reached the daemon.
		t.Errorf("events %d + discarded %d inconsistent with trace size %d", st.Events, st.Discarded, tr.NumEvents())
	}
}

// prefixMissing counts the victim-shard events that were never delivered:
// those with TS above the frozen watermark.
func prefixMissing(shard *trace.Trace, watermark uint64) int {
	n := 0
	for i := range shard.Threads {
		for _, e := range shard.Threads[i].Events {
			if e.TS > watermark {
				n++
			}
		}
	}
	return n
}

// checkpointedEpoch streams tr as one epoch of tenant "acme" into a daemon
// checkpointing under dir, closes the daemon, and returns the tenant's
// status at the close; dir then holds the tenant's checkpoint.
func checkpointedEpoch(t testing.TB, dir string, tr *trace.Trace) Status {
	t.Helper()
	d, err := Start(Options{CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial("tcp", d.Addr(), "acme", "guest")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Stream(tr, 1, 32); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	ten := d.Tenant("acme")
	waitFor(t, "epoch end", func() bool { return ten.Status().Epoch == 1 })
	st := ten.Status()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	return st
}

// TestDaemonCheckpointRestart: a daemon restart restores each tenant's
// rolling profile and window accounting from its checkpoint.
func TestDaemonCheckpointRestart(t *testing.T) {
	tr := recordedRun(t)
	want := batchExport(t, tr)
	dir := t.TempDir()
	before := checkpointedEpoch(t, dir, tr)

	d2, err := Start(Options{CheckpointDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	restored := d2.Tenant("acme")
	st := restored.Status()
	if st.Windows != before.Windows || st.Events != before.Events {
		t.Errorf("restored %d windows / %d events, want %d / %d", st.Windows, st.Events, before.Windows, before.Events)
	}
	doc := tenantDoc(t, restored)
	if got := docProfileBytes(doc); !bytes.Equal(got, want) {
		t.Fatalf("restored profile diverges from batch analysis (%d vs %d bytes)", len(got), len(want))
	}
}

// TestWireObs: the observability plane answers per-tenant queries once the
// daemon is wired in — /profile?tenant=, /progress?tenant=, /tenants.json —
// and 404s unknown tenants.
func TestWireObs(t *testing.T) {
	tr := recordedRun(t)
	want := batchExport(t, tr)

	srv, err := obs.Start(obs.Options{Addr: "127.0.0.1:0", Component: "daemon-test"})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	d, err := Start(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	d.WireObs(srv)

	c, err := Dial("tcp", d.Addr(), "acme", "guest")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Stream(tr, 1, 32); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "epoch end", func() bool {
		ten := d.Lookup("acme")
		return ten != nil && ten.Status().Epoch == 1
	})

	body := func(path string, wantCode int) []byte {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != wantCode {
			t.Fatalf("GET %s: status %d, want %d\n%s", path, resp.StatusCode, wantCode, b)
		}
		return b
	}

	var doc profileDoc
	if err := json.Unmarshal(body("/profile?tenant=acme", http.StatusOK), &doc); err != nil {
		t.Fatal(err)
	}
	if got := docProfileBytes(doc); !bytes.Equal(got, want) {
		t.Fatalf("scraped profile diverges from batch analysis (%d vs %d bytes)", len(got), len(want))
	}
	body("/profile?tenant=nobody", http.StatusNotFound)
	body("/profile", http.StatusNotFound)
	if !bytes.Contains(body("/progress?tenant=acme&once=1", http.StatusOK), []byte("complete")) {
		t.Error("/progress does not report the tenant's complete phase")
	}
	body("/progress?tenant=nobody", http.StatusNotFound)

	var statuses []Status
	if err := json.Unmarshal(body("/tenants.json", http.StatusOK), &statuses); err != nil {
		t.Fatal(err)
	}
	if len(statuses) != 1 || statuses[0].Tenant != "acme" || statuses[0].Epoch != 1 {
		t.Errorf("unexpected /tenants.json contents: %+v", statuses)
	}
}

// TestDaemonSequentialEpochs: two executions streamed one after the other
// into the same tenant accumulate as the sum of their batch analyses.
func TestDaemonSequentialEpochs(t *testing.T) {
	tr := recordedRun(t)

	// Ground truth: two independent batch analyses merged as partials.
	mk := func() *core.PartialProfile {
		p := core.New(core.Options{})
		if err := trace.Replay(tr, 1, p); err != nil {
			t.Fatal(err)
		}
		part := core.NewPartialProfile(p.Profile())
		return part
	}
	want, err := core.MergePartials(mk(), mk()).Profile.Export()
	if err != nil {
		t.Fatal(err)
	}

	d, err := Start(Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	for epoch := 1; epoch <= 2; epoch++ {
		c, err := Dial("tcp", d.Addr(), "acme", "guest")
		if err != nil {
			t.Fatal(err)
		}
		if err := c.Stream(tr, 1, 32); err != nil {
			t.Fatal(err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		epoch := epoch
		waitFor(t, "epoch end", func() bool { return d.Tenant("acme").Status().Epoch == epoch })
	}
	doc := tenantDoc(t, d.Tenant("acme"))
	if got := docProfileBytes(doc); !bytes.Equal(got, want) {
		t.Fatalf("two-epoch rolling profile is not the merge of two batch analyses (%d vs %d bytes)", len(got), len(want))
	}
	if doc.Events != 2*uint64(tr.NumEvents()) {
		t.Errorf("fed %d events over two epochs, want %d", doc.Events, 2*tr.NumEvents())
	}
}
