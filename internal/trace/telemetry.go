package trace

import (
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// ioStats tallies the package's decode traffic process-wide. The
// decode side (scanTrace) is shared by Decode, Verify and Recover, and may run
// from concurrent pipeline builds, so the tallies are atomic; they fire
// once per block (a segment holds up to DefaultSegmentEvents events) or
// once per call (decodeNS), so the cost is negligible whether or not
// telemetry is ever published.
var ioStats struct {
	blocksRead      atomic.Uint64 // framed blocks read back (all kinds)
	bytesRead       atomic.Uint64 // payload bytes of those blocks
	crcFailures     atomic.Uint64 // blocks whose CRC32-C did not match
	segmentsDecoded atomic.Uint64 // event segments materialized by builders
	eventsDecoded   atomic.Uint64 // events in those segments
	decodeNS        atomic.Uint64 // wall time inside Decode, Recover and Verify
}

// tallyDecode adds the wall time since start to ioStats.decodeNS; Decode,
// Recover and Verify defer it with their start time, one clock pair per
// call.
func tallyDecode(start time.Time) {
	ioStats.decodeNS.Add(uint64(time.Since(start)))
}

// PublishTelemetry copies the process-wide trace I/O tallies into reg as
// trace/* gauges. Gauges (Set, not Add) make publication idempotent: the
// tallies are global, so republishing reports current totals rather than
// double-counting. Streaming recorders publish their own trace/* counters
// incrementally instead (StreamRecorder.SetTelemetry). Safe with a nil
// registry.
func PublishTelemetry(reg *telemetry.Registry) {
	reg.Gauge("trace/blocks_read").Set(int64(ioStats.blocksRead.Load()))
	reg.Gauge("trace/bytes_read").Set(int64(ioStats.bytesRead.Load()))
	reg.Gauge("trace/crc_failures").Set(int64(ioStats.crcFailures.Load()))
	reg.Gauge("trace/segments_decoded").Set(int64(ioStats.segmentsDecoded.Load()))
	reg.Gauge("trace/events_decoded").Set(int64(ioStats.eventsDecoded.Load()))
	reg.Gauge("trace/decode_ns").Set(int64(ioStats.decodeNS.Load()))
}

// SetTelemetry attaches a registry to the streaming recorder: segments,
// events, blocks and bytes written are published incrementally as trace/*
// counters, one atomic add per flushed block. Call before recording
// starts; a nil registry leaves the recorder untelemetered (the default).
func (r *StreamRecorder) SetTelemetry(reg *telemetry.Registry) {
	r.tmBlocks = reg.Counter("trace/blocks_written")
	r.tmSegments = reg.Counter("trace/segments_written")
	r.tmEvents = reg.Counter("trace/events_written")
	r.tmBytes = reg.Counter("trace/bytes_written")
}

// SetProgress attaches a progress callback invoked after every flushed
// segment with the cumulative totals so far (events and segments written,
// bytes on the wire). It fires at segment granularity — once per
// SegmentEvents events — so the callback may update a live progress line
// without rate concerns. Works independently of SetTelemetry.
func (r *StreamRecorder) SetProgress(fn func(events, segments int, bytes int64)) {
	r.onFlush = fn
}

// Publish pushes an end-of-recovery summary into reg: what was salvaged
// and what was dropped, split by cause (recover/* counters). Safe with a
// nil registry.
func (r *RecoveryReport) Publish(reg *telemetry.Registry) {
	if reg == nil {
		return
	}
	reg.Counter("recover/blocks_seen").Add(uint64(r.BlocksSeen))
	reg.Counter("recover/blocks_salvaged").Add(uint64(r.SalvagedBlocks))
	reg.Counter("recover/segments_salvaged").Add(uint64(r.SalvagedSegments))
	reg.Counter("recover/events_salvaged").Add(uint64(r.SalvagedEvents))
	for _, d := range r.Dropped {
		reg.Counter("recover/blocks_dropped_" + d.Cause.String()).Inc()
	}
	if r.Truncated {
		reg.Counter("recover/truncated").Inc()
	}
}
