package trace

import (
	"errors"
	"io"

	"repro/internal/block"
	"repro/internal/guest"
	"repro/internal/telemetry"
)

// StreamRecorder is a guest.Tool that records the execution straight to an
// io.Writer in the segmented format: whenever a thread's buffered events
// reach the segment bound, the segment — preceded by the name-table entries
// it references — is framed, checksummed and written out immediately. A
// recording run killed at any point therefore leaves a file from which
// Recover salvages every completed segment; only the unflushed tails (at
// most the segment bound per thread) are lost. Recorder is this recorder
// writing into memory and decoding the result when the run finishes.
//
// Each callback is handled once: its events are encoded straight into
// their thread's open segment, and by default the annotator of annotate.go
// — global counter, kernel-bump tally and global write shadow — runs over
// them on the spot, encoding each read's stamp into the thread's pending
// stamp-annotation ('A') block. The recorded trace is thus born
// analysis-ready and the pipeline needs no offline Annotate pass. This is
// sound because tool callbacks arrive in strictly increasing timestamp
// order, which is exactly the merged order; the recorder verifies that
// invariant once per callback and silently stops annotating if it ever
// fails, leaving annotation coverage incomplete so decoders drop the
// annotations. SetAnnotations(false) disables the annotator wholesale.
//
// Errors are sticky: the first one stops all further recording and output
// and is reported by Err and Close. Besides write errors, a memory access
// at or above 1<<shadow.MaxAddrBits, or an alloc or free whose range does
// not fit below it, which no decoder would accept, is an *AddressError,
// and the event is dropped. A StreamRecorder must not be reused across
// runs.
type StreamRecorder struct {
	w   io.Writer
	env guest.Env

	perTh map[guest.ThreadID]*streamThread
	order []*streamThread
	last  *streamThread // the previous event's thread

	segCap                        int
	flushedRoutines, flushedSyncs int

	blocks   int
	events   int
	segments int
	written  int64

	// ann is the live annotator, nil when annotations are disabled or the
	// monotone-timestamp guard (annSeen/annLastTS), which protects the
	// merged-order assumption, has tripped.
	ann       *annotator
	annSeen   bool
	annLastTS uint64

	// Telemetry counter handles (nil, and thus free, unless SetTelemetry
	// ran) and the per-flush progress callback (SetProgress).
	tmBlocks   *telemetry.Counter
	tmSegments *telemetry.Counter
	tmEvents   *telemetry.Counter
	tmBytes    *telemetry.Counter
	onFlush    func(events, segments int, bytes int64)

	scratch []byte // reused block-framing buffer
	payload []byte // reused buffer for table and footer payloads and segment headers

	err      error
	finished bool
}

// streamThread holds one thread's open segment, already encoded but for
// its open memory run, and the annotation runs and encoded stamps that
// cover exactly its events.
type streamThread struct {
	id     guest.ThreadID
	body   []byte // the segment's encoded records
	events int    // the number of events in the segment, open run included
	lastTS uint64 // the timestamp of body's last event, 0 if it is empty
	// The open run: runLen accesses (none when 0) that body does not hold
	// yet, the first of which is run, at timestamp runTS.
	run    guest.MemEvent
	runLen int
	runTS  uint64
	runs   []StampRun
	stamps stampBuf // the encoded stamps of the segment's reads
}

// closeRun appends the open run, if there is one, to body as one record.
func (st *streamThread) closeRun() {
	if st.runLen > 0 {
		st.body = appendEvent(st.body, st.runTS-st.lastTS, memKind(st.run), uint64(st.run.Addr()), uint64(st.runLen-1))
		st.lastTS = st.runTS + uint64(st.runLen-1)
		st.runLen = 0
	}
}

// NewStreamRecorder returns a streaming recorder writing to w. The format
// prelude is written immediately; everything else follows as the recorded
// run progresses. Check Err (or Close) for write failures.
func NewStreamRecorder(w io.Writer) *StreamRecorder {
	r := &StreamRecorder{
		w:      w,
		perTh:  make(map[guest.ThreadID]*streamThread),
		segCap: DefaultSegmentEvents,
		ann:    newAnnotator(),
	}
	prelude := make([]byte, 0, preludeLen)
	prelude = append(prelude, magic[:]...)
	prelude = append(prelude, formatVersion)
	r.write(prelude)
	return r
}

// SetAnnotations enables or disables stamp-annotation emission (default
// enabled). Disabled, the recorder produces a stream without 'A' blocks,
// which analysis annotates offline first; the resulting profiles are
// byte-identical either way. Call it before recording starts.
func (r *StreamRecorder) SetAnnotations(on bool) {
	if !on {
		r.ann = nil
	} else if r.ann == nil {
		r.ann = newAnnotator()
	}
}

// SetSegmentEvents overrides the per-segment event bound (default
// DefaultSegmentEvents). Smaller segments tighten the crash-loss window at
// the cost of more framing overhead. Call it before recording starts.
func (r *StreamRecorder) SetSegmentEvents(n int) {
	if n > 0 {
		r.segCap = n
	}
}

// Err returns the first error encountered, if any: a write error or an
// *AddressError.
func (r *StreamRecorder) Err() error { return r.err }

// Written returns the number of bytes successfully written so far.
func (r *StreamRecorder) Written() int64 { return r.written }

// Events returns the number of events written out in segments so far:
// after Close, every event the decoded stream holds.
func (r *StreamRecorder) Events() int { return r.events }

// Annotated reports, after Close, whether the stream carries stamp
// annotations of complete coverage, which the decoder keeps: annotations
// were on, their timestamp guard held, and there is at least one event.
func (r *StreamRecorder) Annotated() bool { return r.ann != nil && r.events > 0 }

// Close flushes any buffered segments and the footer if the run's Finish
// hook has not already done so, and returns the first write error of the
// whole recording. It is idempotent.
func (r *StreamRecorder) Close() error {
	r.finish()
	return r.err
}

// write appends raw bytes to the output, converting short writes to errors
// and making the first failure sticky.
func (r *StreamRecorder) write(b []byte) {
	if r.err != nil {
		return
	}
	n, err := r.w.Write(b)
	if err == nil && n < len(b) {
		err = io.ErrShortWrite
	}
	if err != nil {
		r.err = err
		return
	}
	r.written += int64(len(b))
	r.tmBytes.Add(uint64(len(b)))
}

// writeBlock frames and writes one block.
func (r *StreamRecorder) writeBlock(kind byte, payload ...[]byte) {
	r.scratch = block.Append(r.scratch[:0], kind, payload...)
	r.write(r.scratch)
	if r.err == nil {
		r.blocks++
		r.tmBlocks.Inc()
	}
}

// flushTables writes any routine/sync names interned since the last flush,
// so every id referenced by a subsequently flushed segment resolves even in
// a partially recovered file.
func (r *StreamRecorder) flushTables() {
	if r.env == nil || r.err != nil {
		return
	}
	if n := r.env.NumRoutines(); n > r.flushedRoutines {
		names := make([]string, 0, n-r.flushedRoutines)
		for i := r.flushedRoutines; i < n; i++ {
			names = append(names, r.env.RoutineName(guest.RoutineID(i)))
		}
		r.writeBlock(blockRoutines, appendTablePayload(r.payload[:0], names))
		r.flushedRoutines = n
	}
	if n := r.env.NumSyncs(); n > r.flushedSyncs {
		names := make([]string, 0, n-r.flushedSyncs)
		for i := r.flushedSyncs; i < n; i++ {
			names = append(names, r.env.SyncName(guest.SyncID(i)))
		}
		r.writeBlock(blockSyncs, appendTablePayload(r.payload[:0], names))
		r.flushedSyncs = n
	}
}

// flushThread writes the thread's open segment, followed by the
// annotation block covering exactly its events.
func (r *StreamRecorder) flushThread(st *streamThread) {
	if st.events == 0 || r.err != nil {
		return
	}
	st.closeRun()
	r.flushTables()
	r.payload = appendSegmentHead(r.payload[:0], st.id, st.events)
	r.writeBlock(blockEvents, r.payload, st.body)
	if r.err == nil {
		r.events += st.events
		r.segments++
		r.tmSegments.Inc()
		r.tmEvents.Add(uint64(st.events))
		if r.onFlush != nil {
			r.onFlush(r.events, r.segments, r.written)
		}
	}
	st.body, st.events, st.lastTS = st.body[:0], 0, 0
	if r.ann != nil {
		if r.ann.runs == &st.runs {
			// Split the open run at the flush boundary: the flushed part is
			// emitted now, the continuation is reopened exactly.
			r.ann.closeRun()
		}
		if len(st.runs) > 0 || st.stamps.n > 0 {
			r.payload = appendAnnotationHead(r.payload[:0], st.id, st.runs, st.stamps.n)
			r.writeBlock(blockAnnotations, r.payload, st.stamps.enc)
			st.runs = st.runs[:0]
			st.stamps.reset()
		}
	}
}

// Flush writes out every thread's buffered events as segments (with their
// annotation blocks) immediately, without finishing the stream. After a
// Flush the underlying writer holds a complete block image of every event
// recorded so far — the property the continuous-profiling daemon's framing
// relies on: a frame cut at a Flush boundary delivers the whole prefix of
// the execution up to the last recorded timestamp. Open annotation runs
// are split exactly (see flushThread); recording continues unaffected.
func (r *StreamRecorder) Flush() {
	if r.finished {
		return
	}
	r.flushTables()
	for _, st := range r.order {
		r.flushThread(st)
	}
}

// finish flushes every buffered segment and the footer exactly once.
func (r *StreamRecorder) finish() {
	if r.finished {
		return
	}
	r.finished = true
	r.flushTables()
	for _, st := range r.order {
		r.flushThread(st)
	}
	r.writeBlock(blockFooter, appendFooterPayload(r.payload[:0], r.blocks, r.events, len(r.order)))
}

// thread returns t's buffer, creating it on t's first event. Consecutive
// events mostly share a thread, so the map is consulted only on a change.
func (r *StreamRecorder) thread(t guest.ThreadID) *streamThread {
	if st := r.last; st != nil && st.id == t {
		return st
	}
	st := r.perTh[t]
	if st == nil {
		st = &streamThread{id: t}
		r.perTh[t] = st
		r.order = append(r.order, st)
	}
	r.last = st
	return st
}

// ordered checks the timestamp guard for n > 0 events from timestamp ts
// on: they must all follow every event recorded before. On a violation the
// annotator shuts off for the rest of the run, leaving coverage incomplete
// so decoders discard what was emitted. It reports whether annotation
// goes on.
func (r *StreamRecorder) ordered(ts uint64, n int) bool {
	if r.annSeen && ts <= r.annLastTS {
		r.ann = nil
		return false
	}
	r.annSeen, r.annLastTS = true, ts+uint64(n-1)
	return true
}

func (r *StreamRecorder) add(t guest.ThreadID, k Kind, arg, aux uint64) {
	if r.finished || r.err != nil {
		return
	}
	st := r.thread(t)
	ts := r.env.Now()
	st.closeRun()
	st.body = appendEvent(st.body, ts-st.lastTS, k, arg, aux)
	st.lastTS = ts
	st.events++
	if r.ann != nil && r.ordered(ts, 1) {
		r.ann.enter(&st.runs, t)
		r.ann.observe([]Event{{Kind: k, Arg: arg}}, nil)
	}
	if st.events >= r.segCap {
		r.flushThread(st)
	}
}

// heap records an alloc or free of n cells from base, refusing one whose
// range leaves the analysed address space.
func (r *StreamRecorder) heap(t guest.ThreadID, k Kind, base guest.Addr, n int) {
	if outside(k, uint64(base), uint64(n)) {
		r.addrErr(k, uint64(base))
		return
	}
	r.add(t, k, uint64(base), uint64(n))
}

// addrErr makes an out-of-range event of kind k and argument arg the
// sticky error, unless one is already set. Its Event is the event's index
// in the recorded stream.
func (r *StreamRecorder) addrErr(k Kind, arg uint64) {
	if r.finished || r.err != nil {
		return
	}
	n := r.events
	for _, st := range r.order {
		n += st.events
	}
	r.err = addressError(n, k, arg)
}

// Attach implements guest.Tool.
func (r *StreamRecorder) Attach(env guest.Env) {
	if r.env != nil {
		r.err = errors.New("trace: StreamRecorder reused across runs")
		return
	}
	r.env = env
}

// Call implements guest.Tool.
func (r *StreamRecorder) Call(t guest.ThreadID, rt guest.RoutineID, bb uint64) {
	r.add(t, KindCall, uint64(rt), bb)
}

// Return implements guest.Tool.
func (r *StreamRecorder) Return(t guest.ThreadID, rt guest.RoutineID, bb uint64) {
	r.add(t, KindReturn, uint64(rt), bb)
}

// MemBatch implements guest.Tool: the batch's events, at timestamps
// startTS+i per the batch contract, are encoded and annotated in pieces
// that end where the thread's segment fills.
func (r *StreamRecorder) MemBatch(t guest.ThreadID, startTS uint64, events []guest.MemEvent) {
	if r.finished || r.err != nil || len(events) == 0 {
		return
	}
	st := r.thread(t)
	if r.ann != nil {
		r.ordered(startTS, len(events))
	}
	for len(events) > 0 && r.err == nil {
		n := min(len(events), r.segCap-st.events)
		if !r.encodeMem(st, startTS, events[:n]) {
			return
		}
		if r.ann != nil {
			r.ann.enter(&st.runs, t)
			r.ann.observeMem(events[:n], &st.stamps)
		}
		if st.events >= r.segCap {
			r.flushThread(st)
		}
		events, startTS = events[n:], startTS+uint64(n)
	}
}

// encodeMem appends memory accesses at timestamps from ts on to st's open
// segment. An access that extends st's open run (same kind, the next cell,
// the next timestamp, fewer than maxRun so far) joins it; any other closes
// the run into one record and opens the next, so runs are maximal however
// the accesses are batched. An access outside the analysed address space
// becomes the sticky error, and encodeMem reports whether there was none.
func (r *StreamRecorder) encodeMem(st *streamThread, ts uint64, events []guest.MemEvent) bool {
	body, last := st.body, st.lastTS
	run, n, start := st.run, st.runLen, st.runTS
	for i, e := range events {
		if addr := uint64(e.Addr()); addr >= addrLimit {
			st.events += i
			r.addrErr(memKind(e), addr)
			return false
		}
		if uint(n-1) < maxRun-1 && e == run+guest.MemEvent(n) && ts == start+uint64(n) {
			n++
		} else {
			if n > 0 {
				body = appendEvent(body, start-last, memKind(run), uint64(run.Addr()), uint64(n-1))
				last = start + uint64(n-1)
			}
			run, n, start = e, 1, ts
		}
		ts++
	}
	st.body, st.lastTS = body, last
	st.run, st.runLen, st.runTS = run, n, start
	st.events += len(events)
	return true
}

// SwitchThread implements guest.Tool: switches are dropped (the merge step
// re-synthesizes them).
func (r *StreamRecorder) SwitchThread(from, to guest.ThreadID) {}

// ThreadStart implements guest.Tool.
func (r *StreamRecorder) ThreadStart(t, parent guest.ThreadID) {
	r.add(t, KindThreadStart, uint64(uint32(parent)), 0)
}

// ThreadExit implements guest.Tool.
func (r *StreamRecorder) ThreadExit(t guest.ThreadID) { r.add(t, KindThreadExit, 0, 0) }

// Sync implements guest.Tool.
func (r *StreamRecorder) Sync(t guest.ThreadID, kind guest.SyncKind, s guest.SyncID) {
	k := KindSyncRelease
	if kind == guest.SyncAcquire {
		k = KindSyncAcquire
	}
	r.add(t, k, uint64(s), 0)
}

// Alloc implements guest.Tool.
func (r *StreamRecorder) Alloc(t guest.ThreadID, base guest.Addr, n int) {
	r.heap(t, KindAlloc, base, n)
}

// Free implements guest.Tool.
func (r *StreamRecorder) Free(t guest.ThreadID, base guest.Addr, n int) {
	r.heap(t, KindFree, base, n)
}

// Finish implements guest.Tool: remaining segments and the footer are
// flushed, completing the file.
func (r *StreamRecorder) Finish() { r.finish() }
