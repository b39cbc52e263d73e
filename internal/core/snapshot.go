// Live profile snapshots: a consistent mid-run export of the inline
// profiler's state, taken at an event boundary and delivered through the
// existing export codec (ProfileDump), so a long analysis can publish what
// it has learned so far without stopping. Snapshots are taken on demand
// through Profiler.RequestSnapshot, which is safe to call from any
// goroutine (a signal handler's, typically) and is honored at the next
// batch boundary the profiler crosses.
//
// The profiler is single-goroutine by contract, so a snapshot needs no
// stop-the-world machinery of its own: the pause a snapshot costs the run
// is exactly the time spent materializing the profile clone, which the
// LiveSnapshot reports and the core/snapshot_pause_ns histogram records.
package core

import "time"

// LiveSnapshot is one consistent mid-run export of the profiler's state:
// the profile as of an exact event boundary, plus the run-progress and
// footprint figures a monitoring surface wants alongside it. The Profile
// field reuses the export codec (ProfileDump), so a snapshot serializes
// and restores exactly like a final profile.
type LiveSnapshot struct {
	// Events is the number of events the profiler had consumed when the
	// snapshot was taken; snapshots of one run carry strictly increasing
	// values.
	Events uint64 `json:"events"`

	// Partial is always true: a live snapshot reflects an unfinished run,
	// and readers must not treat its metrics as final.
	Partial bool `json:"partial"`

	// Renumbers counts the timestamp-renumbering passes so far.
	Renumbers uint64 `json:"renumbers"`

	// GlobalShadowBytes and ThreadShadowBytes report the shadow-memory
	// footprint at snapshot time.
	GlobalShadowBytes uint64 `json:"global_shadow_bytes"`
	ThreadShadowBytes uint64 `json:"thread_shadow_bytes"`

	// LiveThreads is the number of guest threads with live profiling state.
	LiveThreads int `json:"live_threads"`

	// Profile is the profile as of the snapshot boundary, in the export
	// codec's dump form.
	Profile *ProfileDump `json:"profile"`

	// Pause is how long the profiler was stopped to take the snapshot.
	Pause time.Duration `json:"pause_ns"`
}

// RequestSnapshot asks the profiler for a snapshot at the next batch
// boundary it crosses (memory-event batch, thread switch or thread start).
// It is the only Profiler method safe to call from another goroutine, and
// it is a no-op unless Options.OnSnapshot is set.
func (p *Profiler) RequestSnapshot() { p.snapReq.Store(true) }

// pollSnapshot runs on the batch-boundary paths (MemBatch, SwitchThread,
// ThreadStart) and honors a pending RequestSnapshot.
func (p *Profiler) pollSnapshot() {
	if p.snapReq.Load() {
		p.takeSnapshot()
	}
}

// takeSnapshot materializes a LiveSnapshot and delivers it to
// Options.OnSnapshot. The per-event paths only load the request flag;
// everything costly lives here, off the hot path.
func (p *Profiler) takeSnapshot() {
	p.snapReq.Store(false)
	cb := p.opts.OnSnapshot
	if cb == nil {
		return
	}
	start := time.Now()
	ls := &LiveSnapshot{
		Events:            p.events,
		Partial:           true,
		Renumbers:         p.renumbers,
		GlobalShadowBytes: p.GlobalShadowBytes(),
		ThreadShadowBytes: p.ThreadShadowBytes(),
		LiveThreads:       len(p.threads),
		Profile:           p.Profile().Dump(),
	}
	ls.Pause = time.Since(start)
	if reg := p.opts.Telemetry; reg != nil {
		reg.Counter("core/snapshots").Inc()
		reg.Histogram("core/snapshot_pause_ns").Observe(uint64(ls.Pause))
	}
	cb(ls)
}
