package daemon

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/guest"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// BenchmarkTwoGuestIngest streams the mysqld execution the end-to-end
// benchmark's aprofd-ingest workload uses (size 48, 6 threads) into an
// in-process daemon with a registry, as two guests on loopback holding
// alternate threads. Like that workload, each guest replays its shard's
// merged order, computed once before timing, into its client's recorder
// and ships a frame every 4096 recorded events. One iteration is one
// closed-loop epoch, from dial to the epoch's end. Besides time per epoch
// it reports the daemon's own layer costs per event, from its histograms:
// decode_ns/event (StreamDecoder.Feed), feed_ns/event (the merge and the
// analysis it drives) and lock_wait_ns/event (frames waiting for the
// tenant lock). Run it with
//
//	go test -run '^$' -bench TwoGuestIngest -benchtime 10x ./internal/daemon
func BenchmarkTwoGuestIngest(b *testing.B) {
	rec := trace.NewRecorder()
	if _, err := workloads.RunByName("mysqld", workloads.Params{Size: 48, Threads: 6, Seed: 1}, rec); err != nil {
		b.Fatal(err)
	}
	tr := rec.Trace()
	shards := shardThreads(tr, 2)
	merged := make([][]trace.Event, len(shards))
	for i, sh := range shards {
		merged[i] = trace.Merge(sh, 1)
	}
	reg := telemetry.NewRegistry()
	d, err := Start(Options{Registry: reg})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tenant := fmt.Sprintf("epoch-%d", i)
		clients := make([]*Client, len(shards))
		for j := range shards {
			if clients[j], err = Dial("tcp", d.Addr(), tenant, fmt.Sprintf("guest-%d", j)); err != nil {
				b.Fatal(err)
			}
		}
		// A guest streaming before the other's hello registers would move
		// the frontier past the other's first events.
		waitFor(b, "every connection", func() bool {
			ten := d.Lookup(tenant)
			return ten != nil && len(ten.Status().Connections) == len(shards)
		})
		var wg sync.WaitGroup
		errs := make([]error, len(shards))
		for j, c := range clients {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[j] = replayShard(c, shards[j], merged[j], 4096)
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
		waitFor(b, "epoch end", func() bool {
			ten := d.Lookup(tenant)
			return ten != nil && ten.Status().Epoch == 1
		})
	}
	b.StopTimer()

	events := float64(b.N) * float64(tr.NumEvents())
	snap := reg.Snapshot()
	for _, layer := range []string{"decode", "feed", "lock_wait"} {
		b.ReportMetric(float64(snap.Histograms["daemon/"+layer+"_ns"].Sum)/events, layer+"_ns/event")
	}
}

// replayShard dispatches a shard's merged order into the client's recorder,
// flushing a frame every flushEvery recorded events, and closes the client.
func replayShard(c *Client, sh *trace.Trace, merged []trace.Event, flushEvery int) error {
	env := &streamEnv{routines: sh.Routines, syncs: sh.Syncs}
	c.Recorder().Attach(env)
	tools := []guest.Tool{c.Recorder()}
	n := 0
	for _, e := range merged {
		env.now = e.TS
		if err := trace.Dispatch(e, tools); err != nil {
			return err
		}
		if e.Kind == trace.KindSwitch {
			continue // synthesized; not a recorded event
		}
		if n++; n%flushEvery == 0 {
			if err := c.Flush(); err != nil {
				return err
			}
		}
	}
	return c.Close()
}
