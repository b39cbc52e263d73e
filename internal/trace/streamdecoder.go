package trace

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/bits"
	"slices"
	"sync"

	"repro/internal/block"
	"repro/internal/guest"
)

// StreamSegment is one decoded event segment of an incremental stream:
// a run of one thread's events in recording order.
type StreamSegment struct {
	// Thread is the recording thread's id.
	Thread guest.ThreadID
	// Events are the segment's events with absolute timestamps restored,
	// in non-decreasing timestamp order. Their storage comes from a
	// process-wide pool: a consumer done with a segment may hand it back
	// with ReleaseSegment, and one that never does leaves it to the GC.
	Events []Event
}

// Segment storage is pooled by power-of-two capacity, from minSegmentCap
// to DefaultSegmentEvents events; larger segments are allocated exactly
// and never pooled. A decoder writes every event of the storage it takes,
// so recycled storage needs no clearing.
const (
	minSegmentShift = 6
	maxSegmentShift = 12 // DefaultSegmentEvents
	minSegmentCap   = 1 << minSegmentShift
)

var segmentPools [maxSegmentShift - minSegmentShift + 1]sync.Pool

// segmentClass returns the pool serving segments of n events, or -1.
func segmentClass(n int) int {
	c := bits.Len(uint(max(n, minSegmentCap)-1)) - minSegmentShift
	if c >= len(segmentPools) {
		return -1
	}
	return c
}

// segmentStorage returns storage for a segment of n events, recycled when
// the pool has some.
func segmentStorage(n int) []Event {
	c := segmentClass(n)
	if c < 0 {
		return make([]Event, n)
	}
	if p, ok := segmentPools[c].Get().(*[]Event); ok {
		return (*p)[:n]
	}
	return make([]Event, n, minSegmentCap<<c)
}

// ReleaseSegment hands the storage of a decoded StreamSegment's Events back
// to the decoders' pool. events must be the segment's Events as decoded
// (not a reslice past a prefix), and neither they nor any slice of them may
// be used afterwards: the next decoded segment may overwrite them. Storage
// the pool does not serve is left to the GC.
func ReleaseSegment(events []Event) {
	c := segmentClass(cap(events))
	if c < 0 || cap(events) != minSegmentCap<<c {
		return
	}
	segmentPools[c].Put(&events)
}

// StreamDelta is what one Feed call decoded: newly interned name-table
// entries (in id order, appended to the tables accumulated so far), event
// segments, and whether the stream's footer arrived.
type StreamDelta struct {
	// Routines and Syncs are name-table entries interned since the last
	// delta.
	Routines []string
	Syncs    []string
	// Segments are the event segments completed since the last delta.
	Segments []StreamSegment
	// Footer reports that the stream ended cleanly; no further data may
	// follow.
	Footer bool
}

// StreamDecoder incrementally decodes a trace stream from arbitrarily
// chunked byte deliveries, the receiving end of a StreamRecorder writing
// over a network connection. Feed consumes whatever whole blocks the
// buffered bytes contain and returns them decoded; a partial block simply
// waits for more bytes. Any framing fault, checksum mismatch or post-footer
// byte is a permanent error: unlike Recover, which salvages what it can
// from a damaged file at rest, a live stream that corrupts mid-flight has
// no trustworthy continuation, so the decoder stops at the last intact
// block. As in the batch decoders, a thread's segment that starts before
// its previous segment ended is such an error, and so is a call or return
// naming a routine id past the names received so far: a recorder always
// sends a name before the segment that uses it. Stamp-annotation blocks are
// validated, into scratch the decoder reuses, and skipped — a consumer
// merging several streams re-derives interleaving state itself.
type StreamDecoder struct {
	buf      bytes.Buffer
	preluded bool
	footer   bool
	err      error
	lastTS   map[guest.ThreadID]uint64 // each thread's last decoded timestamp
	routines int                       // routine names received so far
	runs     []StampRun                // scratch an 'A' block is parsed into
	stamps   []Stamp
}

// NewStreamDecoder returns a decoder expecting the format's prelude.
func NewStreamDecoder() *StreamDecoder {
	return &StreamDecoder{lastTS: make(map[guest.ThreadID]uint64)}
}

// errStreamEnded marks bytes arriving after the footer block.
var errStreamEnded = errors.New("trace: data after stream footer")

// Err returns the decoder's permanent error, if any.
func (d *StreamDecoder) Err() error { return d.err }

// Ended reports whether the stream's footer has been decoded.
func (d *StreamDecoder) Ended() bool { return d.footer }

// Buffered returns the number of fed bytes not yet consumed by complete
// blocks (the partial tail).
func (d *StreamDecoder) Buffered() int { return d.buf.Len() }

// Feed appends p to the decode buffer and decodes every complete block it
// now holds. The returned delta collects everything decoded by this call;
// an error is permanent and any delta content alongside it is the intact
// prefix decoded before the fault.
func (d *StreamDecoder) Feed(p []byte) (StreamDelta, error) {
	var delta StreamDelta
	if d.err != nil {
		return delta, d.err
	}
	d.buf.Write(p)
	if d.footer {
		if d.buf.Len() > 0 {
			d.err = errStreamEnded
		}
		return delta, d.err
	}
	if !d.preluded {
		if d.buf.Len() < preludeLen {
			return delta, nil
		}
		head := d.buf.Next(preludeLen)
		if !bytes.Equal(head[:len(magic)], magic[:]) {
			d.err = fmt.Errorf("trace: bad stream magic %q", head[:len(magic)])
			return delta, d.err
		}
		if v := head[len(magic)]; v != formatVersion {
			d.err = &VersionError{Want: formatVersion, Got: v}
			return delta, d.err
		}
		d.preluded = true
	}
	for {
		n, err := d.decodeBlock(&delta)
		if err != nil {
			d.err = err
			return delta, d.err
		}
		if n == 0 { // partial block: wait for more bytes
			return delta, nil
		}
		d.buf.Next(n)
		if d.footer {
			if d.buf.Len() > 0 {
				d.err = errStreamEnded
			}
			return delta, d.err
		}
	}
}

// decodeBlock decodes one block from the front of the buffer into delta,
// returning its total framed size, or 0 when the buffer holds only part of
// a block.
func (d *StreamDecoder) decodeBlock(delta *StreamDelta) (int, error) {
	f, err := traceFormat.Next(d.buf.Bytes(), 0)
	if err == io.EOF || errors.Is(err, block.ErrTruncated) {
		return 0, nil // wait for the rest of the block
	}
	if err != nil {
		return 0, fmt.Errorf("trace: %w", err)
	}
	if !f.CRCOK {
		return 0, fmt.Errorf("trace: block kind %q: checksum mismatch", f.Kind)
	}
	switch f.Kind {
	case blockRoutines, blockSyncs:
		names, err := parseTablePayload(f.Payload)
		if err != nil {
			return 0, fmt.Errorf("trace: name-table block: %w", err)
		}
		if f.Kind == blockRoutines {
			delta.Routines = append(delta.Routines, names...)
			d.routines += len(names)
		} else {
			delta.Syncs = append(delta.Syncs, names...)
		}
	case blockEvents:
		id, n, hdr, err := segmentHeader(f.Payload)
		if err != nil {
			return 0, fmt.Errorf("trace: segment block: %w", err)
		}
		events := segmentStorage(n)
		_, err = parseEvents(f.Payload[hdr:], id, events, d.routines)
		if err == nil && n > 0 {
			if err = segmentOrder(id, events, d.lastTS[id]); err == nil {
				d.lastTS[id] = events[n-1].TS
			}
		}
		if err != nil {
			ReleaseSegment(events)
			return 0, fmt.Errorf("trace: segment block: %w", err)
		}
		delta.Segments = append(delta.Segments, StreamSegment{Thread: id, Events: events})
	case blockAnnotations:
		_, nr, ns, hdr, err := annotationHeader(f.Payload)
		if err == nil {
			d.runs = slices.Grow(d.runs[:0], nr)[:nr]
			d.stamps = slices.Grow(d.stamps[:0], ns)[:ns]
			err = parseAnnotation(f.Payload[hdr:], d.runs, d.stamps)
		}
		if err != nil {
			return 0, fmt.Errorf("trace: annotation block: %w", err)
		}
	case blockFooter:
		if _, _, _, err := parseFooterPayload(f.Payload); err != nil {
			return 0, fmt.Errorf("trace: footer block: %w", err)
		}
		d.footer = true
		delta.Footer = true
	}
	return f.End, nil
}
