package invariant

import (
	"io"
	"net/http"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/trace/pipeline"
)

// HTTP observability axis: the live plane (internal/obs) is read-only by
// contract. A scraper hammering /metrics, /profile — which forces mid-run
// snapshot captures through the snapshot trigger — /spans.json and the
// SSE progress stream while the pipeline re-derives the profile must not
// change one byte of the exported result relative to an unobserved run.

// httpScrapeExport re-analyzes the trace with the parallel pipeline while a
// loopback obs.Server is attached and a goroutine scrapes every endpoint in
// a tight loop for the whole run, then returns the profile's canonical
// export.
func httpScrapeExport(tr *trace.Trace, workers int) ([]byte, error) {
	reg := telemetry.NewRegistry()
	srv, err := obs.Start(obs.Options{Registry: reg, Component: "invariant", Log: io.Discard})
	if err != nil {
		return nil, err
	}
	defer srv.Close()

	est := telemetry.NewRateEstimator(0)
	est.SetPhase("analyze")
	srv.SetEstimator(est)

	trig := pipeline.NewSnapshotTrigger()
	feed := obs.NewProfileFeed()
	feed.SetRequester(trig.Request, 2)
	srv.SetProfileFeed(feed)

	opts := pipeline.Options{
		TieSeed: 1, Workers: workers,
		Profile:  core.Options{Telemetry: reg},
		Progress: func(done, total uint64) { est.SetTotal(total); est.Update(done) },
		// Live captures happen only when the scraper's /profile requests
		// pull the trigger, the same shape the CLIs wire for plain -http.
		Snapshot: &pipeline.SnapshotOptions{Trigger: trig, Sink: feed.Deliver},
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		base := "http://" + srv.Addr()
		client := &http.Client{Timeout: 2 * time.Second}
		paths := []string{"/metrics", "/profile", "/spans.json", "/progress?once=1", "/telemetry.json", "/healthz"}
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			resp, err := client.Get(base + paths[i%len(paths)])
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}
	}()

	p, err := pipeline.Analyze(tr, opts)
	close(stop)
	est.Finish()
	feed.Finish()
	wg.Wait()
	if err != nil {
		return nil, err
	}
	return p.Export()
}
