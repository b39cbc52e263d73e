package trace

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/guest"
)

// Wire-format v2: after the shared 9-byte prelude (magic + version byte)
// the stream is a sequence of self-describing, individually checksummed
// blocks:
//
//	kind byte | uvarint payload length | payload | CRC32-C (4 bytes, LE)
//
// The checksum covers the kind byte, the length varint and the payload, so
// any single corrupted bit inside a block is detected. Block kinds:
//
//	'R'  routine-name table delta: uvarint count, count × string
//	'Y'  sync-name table delta:    same layout
//	'E'  event segment:            uvarint thread id, uvarint event count,
//	                               then per event uvarint TS delta | kind
//	                               byte | uvarint arg | uvarint aux
//	'A'  stamp annotations:        uvarint thread id, run batch, stamp
//	                               batch (see annotate.go) — optional
//	                               analysis metadata the recorder computes
//	                               so the pipeline needs no Annotate pass
//	'F'  footer:                   uvarint block count (excluding the
//	                               footer), uvarint total event count,
//	                               uvarint thread count
//
// Table blocks append to the table accumulated so far, so a streaming
// recorder can flush names incrementally; every name id referenced by a
// segment is flushed before that segment. Timestamp deltas restart from an
// implicit previous value of 0 at each segment start, making every segment
// independently decodable: recovery can salvage any subset of intact
// segments. 'A' blocks likewise accumulate per thread in file order; they
// are additive within version 2, so decoders that predate them reject the
// unknown kind only in strict mode and older traces without them simply
// decode as unannotated. See docs/TRACE_FORMAT.md for the full
// specification.

// Block kind bytes of the v2 framing.
const (
	blockRoutines    = 'R'
	blockSyncs       = 'Y'
	blockEvents      = 'E'
	blockAnnotations = 'A'
	blockFooter      = 'F'
)

// DefaultSegmentEvents is the event-count bound of one v2 trace segment:
// Encode and the StreamRecorder cut each thread's stream into segments of at
// most this many events, so a crash loses at most this many trailing events
// per thread and recovery granularity stays fine-grained.
const DefaultSegmentEvents = 4096

// maxBlockPayload bounds a single block's declared payload length; anything
// larger is treated as framing corruption rather than trusted.
const maxBlockPayload = 1 << 28

// maxTableEntries bounds the accumulated routine/sync name tables, matching
// the v1 decoder's plausibility cap.
const maxTableEntries = 1 << 24

// maxNameLen bounds one table name, matching the v1 decoder's cap.
const maxNameLen = 1 << 16

// maxThreads bounds the per-trace thread count, matching the v1 decoder.
const maxThreads = 1 << 20

// castagnoli is the CRC32-C polynomial table used by every v2 checksum.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Sentinel causes for unreadable blocks; recovery classifies drops by them.
var (
	errFraming   = errors.New("invalid block framing")
	errTruncated = errors.New("truncated block")
)

// validBlockKind reports whether b is one of the five v2 block kinds.
func validBlockKind(b byte) bool {
	return b == blockRoutines || b == blockSyncs || b == blockEvents ||
		b == blockAnnotations || b == blockFooter
}

// appendBlock frames payload as one v2 block (kind, length, payload,
// CRC32-C) appended to dst.
func appendBlock(dst []byte, kind byte, payload []byte) []byte {
	start := len(dst)
	dst = append(dst, kind)
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	dst = append(dst, payload...)
	sum := crc32.Checksum(dst[start:], castagnoli)
	return binary.LittleEndian.AppendUint32(dst, sum)
}

// appendTablePayload encodes a run of names as an R/Y block payload.
func appendTablePayload(dst []byte, names []string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(names)))
	for _, s := range names {
		dst = binary.AppendUvarint(dst, uint64(len(s)))
		dst = append(dst, s...)
	}
	return dst
}

// appendSegmentPayload encodes one segment of thread id's events as an E
// block payload. Timestamp deltas restart from 0, so the segment decodes
// independently of its predecessors.
func appendSegmentPayload(dst []byte, id guest.ThreadID, events []Event) []byte {
	dst = binary.AppendUvarint(dst, uint64(uint32(id)))
	dst = binary.AppendUvarint(dst, uint64(len(events)))
	prev := uint64(0)
	for i := range events {
		e := &events[i]
		dst = binary.AppendUvarint(dst, e.TS-prev)
		prev = e.TS
		dst = append(dst, byte(e.Kind))
		dst = binary.AppendUvarint(dst, e.Arg)
		dst = binary.AppendUvarint(dst, e.Aux)
	}
	return dst
}

// appendFooterPayload encodes the F block payload.
func appendFooterPayload(dst []byte, blocks, events, threads int) []byte {
	dst = binary.AppendUvarint(dst, uint64(blocks))
	dst = binary.AppendUvarint(dst, uint64(events))
	dst = binary.AppendUvarint(dst, uint64(threads))
	return dst
}

// writeAll writes b fully to w, converting a silent short write into an
// explicit error so no partial block ever passes as success.
func writeAll(w io.Writer, b []byte) error {
	n, err := w.Write(b)
	if err == nil && n < len(b) {
		err = io.ErrShortWrite
	}
	return err
}

// Encode writes the trace in the current (v2) segmented binary format —
// checksummed name-table blocks, per-thread event segments of at most
// DefaultSegmentEvents events, and a final footer — and returns the number
// of bytes written. Any write or flush error is reported; on error the
// returned count is the number of bytes successfully handed to w.
func (tr *Trace) Encode(w io.Writer) (int64, error) {
	var total int64
	emit := func(b []byte) error {
		err := writeAll(w, b)
		if err != nil {
			// Count only what certainly reached w.
			return err
		}
		total += int64(len(b))
		return nil
	}

	prelude := make([]byte, 0, 9)
	prelude = append(prelude, magic[:]...)
	prelude = append(prelude, formatVersion)
	if err := emit(prelude); err != nil {
		return total, err
	}

	blocks := 0
	var scratch []byte
	writeBlock := func(kind byte, payload []byte) error {
		scratch = appendBlock(scratch[:0], kind, payload)
		if err := emit(scratch); err != nil {
			return err
		}
		blocks++
		return nil
	}

	if err := writeBlock(blockRoutines, appendTablePayload(nil, tr.Routines)); err != nil {
		return total, err
	}
	if err := writeBlock(blockSyncs, appendTablePayload(nil, tr.Syncs)); err != nil {
		return total, err
	}
	events := 0
	for i := range tr.Threads {
		tt := &tr.Threads[i]
		events += len(tt.Events)
		// A thread with no events still gets one empty segment so its
		// presence survives a round-trip.
		for lo := 0; ; lo += DefaultSegmentEvents {
			hi := min(lo+DefaultSegmentEvents, len(tt.Events))
			if err := writeBlock(blockEvents, appendSegmentPayload(nil, tt.ID, tt.Events[lo:hi])); err != nil {
				return total, err
			}
			if hi == len(tt.Events) {
				break
			}
		}
		// Re-emit the thread's stamp annotations, chunked so no single block
		// grows unbounded; batches concatenate back at decode time.
		if tr.Annotated && tt.Ann != nil {
			runs, stamps := tt.Ann.Runs, tt.Ann.Stamps
			for len(runs) > 0 || len(stamps) > 0 {
				nr := min(len(runs), DefaultSegmentEvents)
				ns := min(len(stamps), DefaultSegmentEvents)
				if err := writeBlock(blockAnnotations, appendAnnotationPayload(nil, tt.ID, runs[:nr], stamps[:ns])); err != nil {
					return total, err
				}
				runs, stamps = runs[nr:], stamps[ns:]
			}
		}
	}
	// The footer counts distinct thread ids, matching what a decoder's
	// builder reconstructs even if the in-memory trace (e.g. a hand-built or
	// legacy-decoded one) carries duplicate ids that decoding would merge.
	distinct := make(map[guest.ThreadID]bool, len(tr.Threads))
	for i := range tr.Threads {
		distinct[tr.Threads[i].ID] = true
	}
	footer := appendFooterPayload(nil, blocks, events, len(distinct))
	scratch = appendBlock(scratch[:0], blockFooter, footer)
	if err := emit(scratch); err != nil {
		return total, err
	}
	ioStats.bytesEncoded.Add(uint64(total))
	ioStats.blocksEncoded.Add(uint64(blocks + 1))
	return total, nil
}

// trackReader reads from a bufio.Reader while tracking exactly how many
// bytes of the underlying stream have been consumed, so block offsets in
// errors and recovery reports are real file offsets.
type trackReader struct {
	br *bufio.Reader
	n  int64 // bytes consumed so far, including any prelude
}

// ReadByte implements io.ByteReader.
func (t *trackReader) ReadByte() (byte, error) {
	b, err := t.br.ReadByte()
	if err == nil {
		t.n++
	}
	return b, err
}

// Read implements io.Reader.
func (t *trackReader) Read(p []byte) (int, error) {
	n, err := t.br.Read(p)
	t.n += int64(n)
	return n, err
}

// block is one framed unit read back from a v2 stream.
type block struct {
	offset  int64 // stream offset of the kind byte
	kind    byte
	payload []byte
	crcOK   bool
}

// readBlock reads the next block. It returns io.EOF exactly at a clean
// block boundary; a mid-block end of input is reported as errTruncated and
// an unknown kind or implausible length as errFraming (both wrapped).
// Checksum mismatches are NOT errors: the block is returned with crcOK
// false so callers choose between strict rejection and recovery.
func readBlock(t *trackReader) (block, error) {
	blk := block{offset: t.n}
	kind, err := t.ReadByte()
	if err != nil {
		if err == io.EOF {
			return blk, io.EOF
		}
		return blk, err
	}
	blk.kind = kind
	if !validBlockKind(kind) {
		return blk, fmt.Errorf("%w: unknown block kind 0x%02x", errFraming, kind)
	}
	crc := crc32.Update(0, castagnoli, []byte{kind})
	plen, lenBytes, err := readUvarintTracked(t)
	if err != nil {
		return blk, fmt.Errorf("%w: block length: %v", errTruncated, err)
	}
	crc = crc32.Update(crc, castagnoli, lenBytes)
	if plen > maxBlockPayload {
		return blk, fmt.Errorf("%w: implausible block length %d", errFraming, plen)
	}
	payload, err := readFullCapped(t, int(plen))
	if err != nil {
		return blk, fmt.Errorf("%w: block payload: %v", errTruncated, err)
	}
	blk.payload = payload
	crc = crc32.Update(crc, castagnoli, payload)
	var sum [4]byte
	if _, err := io.ReadFull(t, sum[:]); err != nil {
		return blk, fmt.Errorf("%w: block checksum: %v", errTruncated, err)
	}
	blk.crcOK = binary.LittleEndian.Uint32(sum[:]) == crc
	ioStats.blocksRead.Add(1)
	ioStats.bytesRead.Add(uint64(len(payload)))
	if !blk.crcOK {
		ioStats.crcFailures.Add(1)
	}
	return blk, nil
}

// readUvarintTracked reads a uvarint and also returns its encoded bytes (for
// checksumming).
func readUvarintTracked(t *trackReader) (uint64, []byte, error) {
	var buf [binary.MaxVarintLen64]byte
	n := 0
	for {
		b, err := t.ReadByte()
		if err != nil {
			return 0, nil, err
		}
		if n == len(buf) {
			return 0, nil, errors.New("uvarint overflows 64 bits")
		}
		buf[n] = b
		n++
		if b < 0x80 {
			break
		}
	}
	v, w := binary.Uvarint(buf[:n])
	if w <= 0 {
		return 0, nil, errors.New("malformed uvarint")
	}
	return v, buf[:n], nil
}

// readFullCapped reads exactly n bytes, growing the buffer in bounded chunks
// so a corrupted length field cannot force one huge allocation before the
// short read is noticed.
func readFullCapped(t *trackReader, n int) ([]byte, error) {
	const chunk = 1 << 16
	buf := make([]byte, 0, min(n, chunk))
	for len(buf) < n {
		lo := len(buf)
		hi := min(lo+chunk, n)
		buf = append(buf, make([]byte, hi-lo)...)
		if _, err := io.ReadFull(t, buf[lo:hi]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

// byteParser is a bounds-checked cursor over one block payload.
type byteParser struct {
	b   []byte
	off int
}

func (p *byteParser) uvarint() (uint64, error) {
	v, n := binary.Uvarint(p.b[p.off:])
	if n <= 0 {
		return 0, errors.New("malformed uvarint")
	}
	p.off += n
	return v, nil
}

func (p *byteParser) readByte() (byte, error) {
	if p.off >= len(p.b) {
		return 0, errors.New("unexpected end of payload")
	}
	b := p.b[p.off]
	p.off++
	return b, nil
}

func (p *byteParser) take(n int) ([]byte, error) {
	if n < 0 || p.off+n > len(p.b) {
		return nil, errors.New("unexpected end of payload")
	}
	b := p.b[p.off : p.off+n]
	p.off += n
	return b, nil
}

func (p *byteParser) done() bool { return p.off == len(p.b) }

// parseTablePayload decodes an R/Y block payload into its names. Counts and
// name lengths are bounded by the payload size before any allocation.
func parseTablePayload(payload []byte) ([]string, error) {
	p := &byteParser{b: payload}
	n, err := p.uvarint()
	if err != nil {
		return nil, err
	}
	// Every name costs at least one length byte, so n is bounded by the
	// payload size; reject before allocating.
	if n > uint64(len(payload)) {
		return nil, fmt.Errorf("implausible name count %d in %d-byte block", n, len(payload))
	}
	names := make([]string, 0, n)
	for i := uint64(0); i < n; i++ {
		l, err := p.uvarint()
		if err != nil {
			return nil, err
		}
		if l > maxNameLen {
			return nil, fmt.Errorf("implausible name length %d", l)
		}
		raw, err := p.take(int(l))
		if err != nil {
			return nil, err
		}
		names = append(names, string(raw))
	}
	if !p.done() {
		return nil, errors.New("trailing bytes after name table")
	}
	return names, nil
}

// parseSegmentPayload decodes an E block payload into its thread id and
// events. The event count is bounded by the payload size (every event is at
// least four bytes) before allocating.
func parseSegmentPayload(payload []byte) (guest.ThreadID, []Event, error) {
	p := &byteParser{b: payload}
	idWire, err := p.uvarint()
	if err != nil {
		return 0, nil, err
	}
	id := threadIDFromWire(idWire)
	n, err := p.uvarint()
	if err != nil {
		return id, nil, err
	}
	if n > uint64(len(payload))/4+1 {
		return id, nil, fmt.Errorf("implausible event count %d in %d-byte segment", n, len(payload))
	}
	events := make([]Event, 0, n)
	prev := uint64(0)
	for i := uint64(0); i < n; i++ {
		delta, err := p.uvarint()
		if err != nil {
			return id, nil, fmt.Errorf("event %d: %w", i, err)
		}
		prev += delta
		kb, err := p.readByte()
		if err != nil {
			return id, nil, fmt.Errorf("event %d: %w", i, err)
		}
		if Kind(kb) >= numKinds {
			return id, nil, fmt.Errorf("event %d: invalid event kind %d", i, kb)
		}
		arg, err := p.uvarint()
		if err != nil {
			return id, nil, fmt.Errorf("event %d: %w", i, err)
		}
		aux, err := p.uvarint()
		if err != nil {
			return id, nil, fmt.Errorf("event %d: %w", i, err)
		}
		events = append(events, Event{TS: prev, Thread: id, Kind: Kind(kb), Arg: arg, Aux: aux})
	}
	if !p.done() {
		return id, nil, errors.New("trailing bytes after segment events")
	}
	return id, events, nil
}

// parseFooterPayload decodes the F block payload.
func parseFooterPayload(payload []byte) (blocks, events, threads uint64, err error) {
	p := &byteParser{b: payload}
	if blocks, err = p.uvarint(); err != nil {
		return
	}
	if events, err = p.uvarint(); err != nil {
		return
	}
	if threads, err = p.uvarint(); err != nil {
		return
	}
	if !p.done() {
		err = errors.New("trailing bytes after footer fields")
	}
	return
}

// traceBuilder accumulates decoded blocks into a Trace, shared by the strict
// v2 decoder and Recover.
type traceBuilder struct {
	tr *Trace
	// byID maps a thread id to its index in tr.Threads: indices stay valid
	// when appends reallocate the slice, pointers would not.
	byID map[guest.ThreadID]int
	// reads counts each thread's read events, and anns accumulates its 'A'
	// blocks; build checks the two against each other before trusting the
	// annotations.
	reads map[guest.ThreadID]int
	anns  map[guest.ThreadID]*ThreadAnnotation
}

func newTraceBuilder() *traceBuilder {
	return &traceBuilder{
		tr:    &Trace{Version: formatVersion},
		byID:  make(map[guest.ThreadID]int),
		reads: make(map[guest.ThreadID]int),
		anns:  make(map[guest.ThreadID]*ThreadAnnotation),
	}
}

func (b *traceBuilder) addRoutines(names []string) error {
	if len(b.tr.Routines)+len(names) > maxTableEntries {
		return fmt.Errorf("implausible routine-table size %d", len(b.tr.Routines)+len(names))
	}
	b.tr.Routines = append(b.tr.Routines, names...)
	return nil
}

func (b *traceBuilder) addSyncs(names []string) error {
	if len(b.tr.Syncs)+len(names) > maxTableEntries {
		return fmt.Errorf("implausible sync-table size %d", len(b.tr.Syncs)+len(names))
	}
	b.tr.Syncs = append(b.tr.Syncs, names...)
	return nil
}

func (b *traceBuilder) addSegment(id guest.ThreadID, events []Event) error {
	ioStats.segmentsDecoded.Add(1)
	ioStats.eventsDecoded.Add(uint64(len(events)))
	idx, ok := b.byID[id]
	if !ok {
		if len(b.tr.Threads) >= maxThreads {
			return fmt.Errorf("implausible thread count %d", len(b.tr.Threads)+1)
		}
		idx = len(b.tr.Threads)
		b.tr.Threads = append(b.tr.Threads, ThreadTrace{ID: id})
		b.byID[id] = idx
	}
	tt := &b.tr.Threads[idx]
	tt.Events = append(tt.Events, events...)
	b.reads[id] += numReads(events)
	return nil
}

// addAnnotation accumulates one 'A' block's run and stamp batches onto the
// thread's annotation; batches concatenate in file order.
func (b *traceBuilder) addAnnotation(id guest.ThreadID, runs []StampRun, stamps []Stamp) error {
	ann := b.anns[id]
	if ann == nil {
		ann = &ThreadAnnotation{}
		b.anns[id] = ann
	}
	if len(ann.Stamps)+len(stamps) > maxBlockPayload || len(ann.Runs)+len(runs) > maxBlockPayload {
		return fmt.Errorf("implausible accumulated annotation size for thread %d", id)
	}
	ann.Runs = append(ann.Runs, runs...)
	ann.Stamps = append(ann.Stamps, stamps...)
	return nil
}

// build finalizes the accumulated trace, attaching stamp annotations if —
// and only if — their coverage is provably complete: every thread's run
// lengths sum to its event count, its stamp count equals its read count,
// and no annotation references an unknown thread. Anything inconsistent
// (e.g. a recording whose annotator shut off mid-run, or a hand-damaged
// file that still checksums) silently degrades the trace to unannotated,
// never to wrong analysis inputs.
func (b *traceBuilder) build() *Trace {
	tr := b.tr
	if len(b.anns) == 0 {
		return tr
	}
	for id := range b.anns {
		if _, ok := b.byID[id]; !ok {
			return tr // annotation for a thread with no events: drop all
		}
	}
	for i := range tr.Threads {
		tt := &tr.Threads[i]
		ann := b.anns[tt.ID]
		if ann == nil {
			if len(tt.Events) == 0 {
				continue // an empty thread is vacuously annotated
			}
			return tr
		}
		sum := 0
		for _, r := range ann.Runs {
			if sum += r.Events; sum > len(tt.Events) {
				return tr
			}
		}
		if sum != len(tt.Events) || len(ann.Stamps) != b.reads[tt.ID] {
			return tr
		}
	}
	for i := range tr.Threads {
		tt := &tr.Threads[i]
		if ann := b.anns[tt.ID]; ann != nil {
			tt.Ann = ann
		} else {
			tt.Ann = &ThreadAnnotation{}
		}
	}
	tr.Annotated = true
	return tr
}

// decodeV2 strictly decodes a v2 block stream positioned just past the
// prelude: any checksum mismatch, framing fault, truncation, missing footer,
// footer/count disagreement or trailing data is an error. Use Recover for
// best-effort salvage instead.
func decodeV2(t *trackReader) (*Trace, error) {
	b := newTraceBuilder()
	nblocks := 0
	nevents := 0
	for {
		blk, err := readBlock(t)
		if err == io.EOF {
			return nil, fmt.Errorf("trace: truncated: stream ends at offset %d without a footer", t.n)
		}
		if err != nil {
			return nil, fmt.Errorf("trace: block at offset %d: %w", blk.offset, err)
		}
		if !blk.crcOK {
			return nil, fmt.Errorf("trace: block at offset %d (kind %q): checksum mismatch", blk.offset, blk.kind)
		}
		switch blk.kind {
		case blockRoutines, blockSyncs:
			names, err := parseTablePayload(blk.payload)
			if err != nil {
				return nil, fmt.Errorf("trace: name-table block at offset %d: %w", blk.offset, err)
			}
			if blk.kind == blockRoutines {
				err = b.addRoutines(names)
			} else {
				err = b.addSyncs(names)
			}
			if err != nil {
				return nil, fmt.Errorf("trace: name-table block at offset %d: %w", blk.offset, err)
			}
		case blockEvents:
			id, events, err := parseSegmentPayload(blk.payload)
			if err != nil {
				return nil, fmt.Errorf("trace: segment at offset %d: %w", blk.offset, err)
			}
			if err := b.addSegment(id, events); err != nil {
				return nil, fmt.Errorf("trace: segment at offset %d: %w", blk.offset, err)
			}
			nevents += len(events)
		case blockAnnotations:
			id, runs, stamps, err := parseAnnotationPayload(blk.payload)
			if err != nil {
				return nil, fmt.Errorf("trace: annotation at offset %d: %w", blk.offset, err)
			}
			if err := b.addAnnotation(id, runs, stamps); err != nil {
				return nil, fmt.Errorf("trace: annotation at offset %d: %w", blk.offset, err)
			}
		case blockFooter:
			fb, fe, ft, err := parseFooterPayload(blk.payload)
			if err != nil {
				return nil, fmt.Errorf("trace: footer at offset %d: %w", blk.offset, err)
			}
			tr := b.build()
			if fb != uint64(nblocks) || fe != uint64(nevents) || ft != uint64(len(tr.Threads)) {
				return nil, fmt.Errorf("trace: footer mismatch: footer says %d blocks/%d events/%d threads, stream has %d/%d/%d",
					fb, fe, ft, nblocks, nevents, len(tr.Threads))
			}
			if _, err := t.ReadByte(); err != io.EOF {
				return nil, fmt.Errorf("trace: trailing data after footer at offset %d", t.n-1)
			}
			return tr, nil
		}
		nblocks++
	}
}
