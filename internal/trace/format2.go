package trace

import (
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/block"
	"repro/internal/guest"
	"repro/internal/shadow"
)

// Wire-format v3: after the shared 9-byte prelude (magic + version byte)
// the stream is a sequence of self-describing, individually checksummed
// blocks in the framing of internal/block:
//
//	kind byte | uvarint payload length | payload | CRC32-C (4 bytes, LE)
//
// The checksum covers the kind byte, the length varint and the payload, so
// any single corrupted bit inside a block is detected. Block kinds:
//
//	'R'  routine-name table delta: uvarint count, count × string
//	'Y'  sync-name table delta:    same layout
//	'E'  event segment:            uvarint thread id, uvarint event count,
//	                               then per record uvarint TS delta | kind
//	                               byte | uvarint arg | uvarint aux; a
//	                               memory record's aux is its run length
//	                               minus one (see StreamRecorder.encodeMem)
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
// segments. 'A' blocks likewise accumulate per thread in file order; a
// trace without them decodes as unannotated. See docs/TRACE_FORMAT.md for
// the full specification.

// Block kind bytes of the framing.
const (
	blockRoutines    = 'R'
	blockSyncs       = 'Y'
	blockEvents      = 'E'
	blockAnnotations = 'A'
	blockFooter      = 'F'
)

// DefaultSegmentEvents is the event-count bound of one trace segment: the
// StreamRecorder cuts each thread's stream into segments of at most this
// many events, so a crash loses at most this many trailing events per
// thread and recovery granularity stays fine-grained.
const DefaultSegmentEvents = 4096

// maxRun caps the accesses one memory record carries: a run of up to this
// many same-kind accesses to adjacent ascending cells at consecutive
// timestamps is one record whose aux is the run length minus one.
const maxRun = 16

// maxBlockPayload bounds a single block's declared payload length; anything
// larger is treated as framing corruption rather than trusted.
const maxBlockPayload = 1 << 28

// maxTableEntries bounds the accumulated routine/sync name tables.
const maxTableEntries = 1 << 24

// maxNameLen bounds one table name.
const maxNameLen = 1 << 16

// maxThreads bounds the per-trace thread count.
const maxThreads = 1 << 20

// traceFormat is the block framing: the five kinds and the payload bound.
var traceFormat = block.Format{
	Kinds:      string([]byte{blockRoutines, blockSyncs, blockEvents, blockAnnotations, blockFooter}),
	MaxPayload: maxBlockPayload,
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

// appendSegmentHead encodes an E block payload's header: the thread id and
// the count of the events that follow.
func appendSegmentHead(dst []byte, id guest.ThreadID, events int) []byte {
	dst = binary.AppendUvarint(dst, uint64(uint32(id)))
	return binary.AppendUvarint(dst, uint64(events))
}

// appendEvent encodes one event of a segment: its timestamp's delta from
// the segment's previous event (from 0 for the first), its kind, argument
// and aux. The common shape, a one-byte delta and aux around a two-byte
// argument, is written with one append.
func appendEvent(dst []byte, delta uint64, k Kind, arg, aux uint64) []byte {
	if delta|aux < 1<<7 && arg-1<<7 < 1<<14-1<<7 {
		return append(dst, byte(delta), byte(k), byte(arg)|0x80, byte(arg>>7), byte(aux))
	}
	dst = append(binary.AppendUvarint(dst, delta), byte(k))
	return binary.AppendUvarint(binary.AppendUvarint(dst, arg), aux)
}

// appendFooterPayload encodes the F block payload.
func appendFooterPayload(dst []byte, blocks, events, threads int) []byte {
	dst = binary.AppendUvarint(dst, uint64(blocks))
	dst = binary.AppendUvarint(dst, uint64(events))
	dst = binary.AppendUvarint(dst, uint64(threads))
	return dst
}

// parseTablePayload decodes an R/Y block payload into its names. Counts and
// name lengths are bounded by the payload size before any allocation.
func parseTablePayload(payload []byte) ([]string, error) {
	p := block.NewParser(payload)
	n := p.Uvarint()
	if p.Err() != nil {
		return nil, p.Err()
	}
	// Every name costs at least one length byte, so n is bounded by the
	// payload size; reject before allocating.
	if n > uint64(len(payload)) {
		return nil, fmt.Errorf("implausible name count %d in %d-byte block", n, len(payload))
	}
	names := make([]string, 0, n)
	for i := uint64(0); i < n && p.Err() == nil; i++ {
		l := p.Uvarint()
		if l > maxNameLen {
			return nil, fmt.Errorf("implausible name length %d", l)
		}
		names = append(names, string(p.Take(int(l))))
	}
	if err := p.End("trailing bytes after name table"); err != nil {
		return nil, err
	}
	return names, nil
}

// segmentHeader parses an E block payload's header: the thread id and the
// event count, and the header's length, where the events begin. The count
// is bounded by the payload size (every record is at least four bytes and
// carries at most maxRun events), so callers may allocate it.
func segmentHeader(payload []byte) (id guest.ThreadID, n, hdr int, err error) {
	p := block.NewParser(payload)
	idWire := p.Uvarint()
	count := p.Uvarint()
	if p.Err() != nil {
		return threadIDFromWire(idWire), 0, 0, p.Err()
	}
	if count > (uint64(len(payload))/4+1)*maxRun {
		return threadIDFromWire(idWire), 0, 0, fmt.Errorf("implausible event count %d in %d-byte segment", count, len(payload))
	}
	return threadIDFromWire(idWire), int(count), p.Off(), nil
}

// AddressError reports an event that leaves the analysed address space,
// the addresses below 1<<shadow.MaxAddrBits: a memory access at or above
// the limit, or an alloc or free whose range [Arg, Arg+Aux) does not fit
// below it. The guest machine never issues one, and every consumer of
// events (the annotator, the profiler, aprofd, tools that shadow the heap)
// indexes shadow memory by address, so the event parser rejects it, and so
// do Replay, Annotate and the Feeder for events that never passed the
// parser.
type AddressError struct {
	// Event is the event's index in the input that held it: its segment
	// for the parser, counting every access of a run, its thread for
	// Replay, FeedTrace and Annotate, its run for FeedRun.
	Event int
	// Kind is the event's kind: a memory access, alloc or free.
	Kind Kind
	// Addr is the first address of the event that lies outside: the
	// access's address, or the lowest out-of-range address in the alloc's
	// or free's range.
	Addr uint64
}

// Error names the event, its kind and its address.
func (e *AddressError) Error() string {
	what := "address"
	if e.Kind == KindAlloc || e.Kind == KindFree {
		what = "range reaches address"
	}
	return fmt.Sprintf("event %d: %s %s %#x outside the %d-bit analysed address space", e.Event, e.Kind, what, e.Addr, shadow.MaxAddrBits)
}

// addrLimit is the first address outside the analysed address space.
const addrLimit = uint64(1) << shadow.MaxAddrBits

// outside reports whether an event of kind k with arguments arg and aux
// leaves the analysed address space: a memory access at or above
// addrLimit, or an alloc or free of the aux cells from arg that do not all
// lie below it. A range may end exactly at the limit.
func outside(k Kind, arg, aux uint64) bool {
	if k == KindAlloc || k == KindFree {
		return arg >= addrLimit || aux > addrLimit-arg
	}
	return arg >= addrLimit && k.IsMemory()
}

// addressError is the *AddressError for event i, of kind k and argument
// arg, which outside rejects. An access's arg is already at or above
// addrLimit; a range's first outside address is addrLimit unless its base
// is past it.
func addressError(i int, k Kind, arg uint64) *AddressError {
	return &AddressError{Event: i, Kind: k, Addr: max(arg, addrLimit)}
}

// segmentOrder rejects a thread's segment that starts before last, the
// timestamp its previous segment ended at: a thread's events never go back
// in time, within a segment (parseEvents) or across its segments.
func segmentOrder(id guest.ThreadID, events []Event, last uint64) error {
	if events[0].TS < last {
		return fmt.Errorf("thread %d: segment starts at timestamp %d, before the previous segment's %d", id, events[0].TS, last)
	}
	return nil
}

// parseEvents decodes a segment's events, the payload after its header,
// into dst, which holds exactly the header's count: timestamps restart from
// 0 at each segment and come back absolute, and each memory record's run
// comes back as one Event per access, with Aux 0. A delta that overflows
// the timestamp is an error, so a parsed segment's timestamps never
// decrease; so is a run longer than maxRun or than the events the segment
// has left. A memory access, alloc or free outside the analysed address
// space is an *AddressError (a run may end exactly at the limit), and a
// call or return must name one of the first routines entries of the
// routine table. It returns how many of the events are reads, the stamps a
// complete annotation carries for them.
func parseEvents(body []byte, id guest.ThreadID, dst []Event, routines int) (reads int, err error) {
	p := block.NewParser(body)
	ts := uint64(0)
	for i := 0; i < len(dst); {
		delta, ok := p.Short()
		if !ok {
			delta = p.Uvarint()
		}
		k := Kind(p.Byte())
		arg, ok := p.Short()
		if !ok {
			arg = p.Uvarint()
		}
		aux, ok := p.Short()
		if !ok {
			aux = p.Uvarint()
		}
		if p.Err() != nil {
			return 0, fmt.Errorf("event %d: %w", i, p.Err())
		}
		if k >= numKinds {
			return 0, fmt.Errorf("event %d: invalid event kind %d", i, k)
		}
		if !k.IsMemory() {
			if outside(k, arg, aux) {
				return 0, addressError(i, k, arg)
			}
			// A routine id indexes the analyzers' per-routine tables, so an
			// unbounded one would let a tiny input claim unbounded memory.
			if k <= KindReturn && arg >= uint64(routines) {
				return 0, fmt.Errorf("event %d: %s of routine %d outside the %d-name routine table", i, k, arg, routines)
			}
			if ts+delta < ts {
				return 0, fmt.Errorf("event %d: timestamp delta %d overflows from %d", i, delta, ts)
			}
			ts += delta
			dst[i] = Event{TS: ts, Thread: id, Kind: k, Arg: arg, Aux: aux}
			i++
			continue
		}
		if aux >= maxRun {
			return 0, fmt.Errorf("event %d: %s run of aux %d exceeds the %d-access cap", i, k, aux, maxRun)
		}
		n := int(aux) + 1
		if n > len(dst)-i {
			return 0, fmt.Errorf("event %d: %s run of %d accesses overruns the segment's %d remaining events", i, k, n, len(dst)-i)
		}
		if arg >= addrLimit || uint64(n) > addrLimit-arg {
			first := i // the first access at or past the limit
			if arg < addrLimit {
				first += int(addrLimit - arg)
			}
			return 0, addressError(first, k, arg)
		}
		if ts+delta < ts || ts+delta+uint64(n-1) < ts+delta {
			return 0, fmt.Errorf("event %d: timestamp delta %d with a run of %d overflows from %d", i, delta, n, ts)
		}
		ts += delta
		run := dst[i : i+n]
		for j := range run {
			run[j] = Event{TS: ts + uint64(j), Thread: id, Kind: k, Arg: arg + uint64(j)}
		}
		ts += uint64(n - 1)
		if k == KindRead || k == KindKernelRead {
			reads += n
		}
		i += n
	}
	return reads, p.End("trailing bytes after segment events")
}

// parseFooterPayload decodes the F block payload.
func parseFooterPayload(payload []byte) (blocks, events, threads uint64, err error) {
	p := block.NewParser(payload)
	blocks, events, threads = p.Uvarint(), p.Uvarint(), p.Uvarint()
	return blocks, events, threads, p.End("trailing bytes after footer fields")
}

// readInput reads all of r into one buffer. A reader that reports its
// length (*bytes.Reader, *bytes.Buffer) or a regular file sizes the buffer
// up front, so the input is copied exactly once; any other reader falls
// back to io.ReadAll.
func readInput(r io.Reader) ([]byte, error) {
	size := -1
	switch v := r.(type) {
	case interface{ Len() int }:
		size = v.Len()
	case interface{ Stat() (fs.FileInfo, error) }:
		if fi, err := v.Stat(); err == nil && fi.Mode().IsRegular() {
			size = int(fi.Size())
		}
	}
	if size < 0 {
		return io.ReadAll(r)
	}
	// The spare byte lets the last Read report io.EOF without growing.
	buf := make([]byte, 0, size+1)
	for {
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)] // more than the size said: grow
		}
	}
}

// scanMode selects how a walk of the blocks treats a bad block.
type scanMode int

const (
	// scanStrict (Decode): the first bad block ends the walk.
	scanStrict scanMode = iota
	// scanSalvage (Recover): bad blocks are skipped, but a lost name-table
	// delta ends the walk, since later name ids would not resolve.
	scanSalvage
	// scanVerify (Verify): every bad block is skipped and payloads are
	// parsed into reused scratch, so no trace is materialized.
	scanVerify
)

// scanBlock is one walked block and what the two passes made of it.
type scanBlock struct {
	block.Frame
	// err is why the block is bad, nil when it is intact: a framing error
	// (block.ErrFraming, block.ErrTruncated), block.ErrChecksum, or a
	// payload that did not parse or add up.
	err error
	// id is the thread an E or A payload names; hasID reports that it was
	// parsed (for a checksum failure, only from an E payload's first
	// varint).
	id    guest.ThreadID
	hasID bool
	// slot indexes traceScan.threads (intact E and A blocks) and hdr is the
	// payload's header length.
	slot, hdr int
	// n counts the block's names (R, Y), events (E) or runs (A); ns counts
	// an A block's stamps.
	n, ns int
	// next indexes the thread's next intact E or A block in file order, -1
	// after its last (see threadSlot.first).
	next int
}

// threadSlot is one thread's size-pass tallies and, after the fill pass,
// its exactly sized slices.
type threadSlot struct {
	id                      guest.ThreadID
	nEvents, nRuns, nStamps int
	// first and last index the thread's first and last intact E or A block
	// (-1 when it has none); the size pass chains them through
	// scanBlock.next, so the fill pass walks one thread's blocks alone.
	first, last int
	events      []Event
	runs        []StampRun
	stamps      []Stamp
	reads       int
	// listed reports a filled segment, so the thread appears in the trace
	// (at its position in traceScan.order); annotated reports a filled A
	// block.
	listed, annotated bool
}

// traceScan decodes one in-memory input in two passes (see scanTrace).
type traceScan struct {
	data            []byte
	mode            scanMode
	blocks          []scanBlock // every block walked, in file order
	routines, syncs []string
	threads         []threadSlot
	slots           map[guest.ThreadID]int
	order           []int // slots in order of their first filled segment
	// footer indexes the intact footer in blocks (-1 if none was reached);
	// fb, fe and ft are its block, event and thread counts.
	footer     int
	fb, fe, ft uint64
	// truncated reports that the walk stopped early: the input ended
	// without a footer, a block's framing failed, or a salvage lost a
	// name-table delta.
	truncated bool
}

// scanTrace decodes data, a whole input including its prelude, in mode.
// The size pass walks the blocks up to the footer: it frames each one,
// verifies its checksum, parses the name tables and, from segment and
// annotation headers alone, tallies every thread's event, run and stamp
// counts and chains its intact blocks. The fill pass then gives each thread
// to one goroutine, which allocates the thread's slices at exactly those
// sizes and parses its payloads straight into them, so no slice reallocates
// and no per-segment buffer exists. Counts come only from checksummed
// headers that pass the per-block plausibility bounds, so what is allocated
// stays proportional to len(data); a payload that fails to parse in the
// fill pass leaves only unused capacity. A strict scan stops at the first
// bad block and skips the fill pass if there is one.
func scanTrace(data []byte, mode scanMode) *traceScan {
	s := &traceScan{data: data, mode: mode, slots: make(map[guest.ThreadID]int), footer: -1}
	s.sizePass()
	if mode != scanStrict || (s.footer >= 0 && s.firstBad() < 0) {
		s.fillPass()
		s.checkEnd()
	}
	return s
}

// firstBad returns the index of the first bad block, or -1.
func (s *traceScan) firstBad() int {
	for i := range s.blocks {
		if s.blocks[i].err != nil {
			return i
		}
	}
	return -1
}

// sizePass walks the blocks up to the footer; see scanTrace.
func (s *traceScan) sizePass() {
	for off := preludeLen; ; {
		f, err := traceFormat.Next(s.data, off)
		if err == io.EOF {
			s.truncated = true
			return
		}
		s.blocks = append(s.blocks, scanBlock{Frame: f, err: err})
		b := &s.blocks[len(s.blocks)-1]
		if err != nil {
			s.truncated = true
			return
		}
		off = f.End
		ioStats.blocksRead.Add(1)
		ioStats.bytesRead.Add(uint64(len(f.Payload)))
		s.size(b)
		if b.err == nil && (b.Kind == blockEvents || b.Kind == blockAnnotations) {
			s.chain(len(s.blocks) - 1)
		}
		table := b.Kind == blockRoutines || b.Kind == blockSyncs
		switch {
		case b.err == nil && b.Kind == blockFooter:
			s.footer = len(s.blocks) - 1
			return
		case b.err == nil:
		case s.mode == scanStrict:
			return
		case s.mode == scanSalvage && table:
			s.truncated = true
			return
		}
	}
}

// size checks one framed block and tallies its header.
func (s *traceScan) size(b *scanBlock) {
	if !b.CRCOK {
		ioStats.crcFailures.Add(1)
		b.err = block.ErrChecksum
		if b.Kind == blockEvents {
			p := block.NewParser(b.Payload)
			if v := p.Uvarint(); p.Err() == nil {
				b.id, b.hasID = threadIDFromWire(v), true
			}
		}
		return
	}
	switch b.Kind {
	case blockRoutines, blockSyncs:
		names, err := parseTablePayload(b.Payload)
		if err == nil {
			table := &s.routines
			if b.Kind == blockSyncs {
				table = &s.syncs
			}
			if len(*table)+len(names) > maxTableEntries {
				err = fmt.Errorf("implausible name-table size %d", len(*table)+len(names))
			} else {
				*table = append(*table, names...)
			}
		}
		b.n, b.err = len(names), err
	case blockEvents:
		b.id, b.n, b.hdr, b.err = segmentHeader(b.Payload)
		b.hasID = true
		if b.err == nil {
			b.slot, b.err = s.slot(b.id)
		}
		if b.err == nil {
			s.threads[b.slot].nEvents += b.n
		}
	case blockAnnotations:
		b.id, b.n, b.ns, b.hdr, b.err = annotationHeader(b.Payload)
		b.hasID = true
		if b.err == nil {
			b.slot, b.err = s.slot(b.id)
		}
		if b.err == nil {
			t := &s.threads[b.slot]
			if t.nRuns+b.n > maxBlockPayload || t.nStamps+b.ns > maxBlockPayload {
				b.err = fmt.Errorf("implausible accumulated annotation size for thread %d", b.id)
				return
			}
			t.nRuns += b.n
			t.nStamps += b.ns
		}
	case blockFooter:
		s.fb, s.fe, s.ft, b.err = parseFooterPayload(b.Payload)
	}
}

// slot returns the index of thread id's slot, creating it on first use
// within the maxThreads cap.
func (s *traceScan) slot(id guest.ThreadID) (int, error) {
	k, ok := s.slots[id]
	if !ok {
		if len(s.threads) >= maxThreads {
			return 0, fmt.Errorf("implausible thread count %d", len(s.threads)+1)
		}
		k = len(s.threads)
		s.threads = append(s.threads, threadSlot{id: id, first: -1, last: -1})
		s.slots[id] = k
	}
	return k, nil
}

// chain appends block i, an intact E or A block, to its thread's chain.
func (s *traceScan) chain(i int) {
	b := &s.blocks[i]
	b.next = -1
	t := &s.threads[b.slot]
	if t.first < 0 {
		t.first = i
	} else {
		s.blocks[t.last].next = i
	}
	t.last = i
}

// fillPass parses every intact segment and annotation payload; see scanTrace.
// Threads are independent once the size pass is done, so up to GOMAXPROCS
// goroutines each claim whole threads, largest first, and fill them; with
// one thread or one processor the fill runs inline. What crosses threads
// (the trace's thread order and the decode tallies) is settled after the
// join, in file order. A payload that fails marks its block bad, and a
// strict scan stops filling that thread there; every other thread is
// filled up to its own first bad block, so firstBad finds the first bad
// block in file order whichever goroutine fails first.
func (s *traceScan) fillPass() {
	if workers := min(runtime.GOMAXPROCS(0), len(s.threads)); workers <= 1 {
		var f filler
		for k := range s.threads {
			f.fill(s, k)
		}
	} else {
		byEvents := make([]int, len(s.threads))
		for k := range byEvents {
			byEvents[k] = k
		}
		slices.SortStableFunc(byEvents, func(a, b int) int { return cmp.Compare(s.threads[b].nEvents, s.threads[a].nEvents) })
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for range workers {
			go func() {
				defer wg.Done()
				var f filler
				for i := next.Add(1) - 1; i < int64(len(byEvents)); i = next.Add(1) - 1 {
					f.fill(s, byEvents[i])
				}
			}()
		}
		wg.Wait()
	}
	if s.mode == scanStrict && s.firstBad() >= 0 {
		return
	}
	var segments, events uint64
	for i := range s.blocks {
		b := &s.blocks[i]
		if b.err != nil || b.Kind != blockEvents {
			continue
		}
		if t := &s.threads[b.slot]; !t.listed {
			t.listed = true
			s.order = append(s.order, b.slot)
		}
		segments++
		events += uint64(b.n)
	}
	if s.mode != scanVerify {
		ioStats.segmentsDecoded.Add(segments)
		ioStats.eventsDecoded.Add(events)
	}
}

// filler is one fill goroutine's scratch: the reused buffers a verify scan
// parses into, since it keeps nothing.
type filler struct {
	events []Event
	runs   []StampRun
	stamps []Stamp
}

// fill allocates thread k's slices and parses its chained blocks in file
// order.
func (f *filler) fill(s *traceScan, k int) {
	t := &s.threads[k]
	keep := s.mode != scanVerify
	if keep {
		t.events = makeExact[Event](t.nEvents)
		t.runs = makeExact[StampRun](t.nRuns)
		t.stamps = makeExact[Stamp](t.nStamps)
	}
	// lastTS is the timestamp of the thread's last filled event: a later
	// segment that starts below it makes the block bad.
	var lastTS uint64
	for i := t.first; i >= 0; i = s.blocks[i].next {
		b := &s.blocks[i]
		body := b.Payload[b.hdr:]
		if b.Kind == blockEvents {
			var events []Event
			if keep {
				events = t.events[len(t.events) : len(t.events)+b.n]
			} else {
				f.events = slices.Grow(f.events[:0], b.n)[:b.n]
				events = f.events
			}
			var reads int
			reads, b.err = parseEvents(body, b.id, events, len(s.routines))
			if b.err == nil && b.n > 0 {
				if b.err = segmentOrder(b.id, events, lastTS); b.err == nil {
					lastTS = events[b.n-1].TS
				}
			}
			if b.err == nil {
				if keep {
					t.events = t.events[:len(t.events)+b.n]
				}
				t.reads += reads
			}
		} else {
			var runs []StampRun
			var stamps []Stamp
			if keep {
				runs = t.runs[len(t.runs) : len(t.runs)+b.n]
				stamps = t.stamps[len(t.stamps) : len(t.stamps)+b.ns]
			} else {
				f.runs = slices.Grow(f.runs[:0], b.n)[:b.n]
				f.stamps = slices.Grow(f.stamps[:0], b.ns)[:b.ns]
				runs, stamps = f.runs, f.stamps
			}
			if b.err = parseAnnotation(body, runs, stamps); b.err == nil {
				if keep {
					t.runs = t.runs[:len(t.runs)+b.n]
					t.stamps = t.stamps[:len(t.stamps)+b.ns]
				}
				t.annotated = true
			}
		}
		if b.err != nil && s.mode == scanStrict {
			return
		}
	}
}

// makeExact returns an empty slice with capacity n, or nil when n is 0.
func makeExact[T any](n int) []T {
	if n == 0 {
		return nil
	}
	return make([]T, 0, n)
}

// checkEnd catches the two ways a stream whose blocks are all intact can
// still be wrong: an intact footer whose counts disagree with the stream,
// and bytes after the footer. Both mark a block bad, so Decode rejects,
// Recover drops and Verify reports them alike. The counts are compared
// only when every block before the footer is intact; after a loss they
// disagree by construction, and the loss is already reported.
func (s *traceScan) checkEnd() {
	if s.footer < 0 {
		return
	}
	events := 0
	for i := range s.blocks[:s.footer] {
		if b := &s.blocks[i]; b.err != nil {
			events = -1
			break
		} else if b.Kind == blockEvents {
			events += b.n
		}
	}
	if events >= 0 && (s.fb != uint64(s.footer) || s.fe != uint64(events) || s.ft != uint64(len(s.order))) {
		s.blocks[s.footer].err = fmt.Errorf("footer mismatch: footer says %d blocks/%d events/%d threads, stream has %d/%d/%d",
			s.fb, s.fe, s.ft, s.footer, events, len(s.order))
	}
	if end := s.blocks[s.footer].End; end < len(s.data) {
		s.blocks = append(s.blocks, scanBlock{
			Frame: block.Frame{Off: end, Kind: s.data[end]},
			err:   fmt.Errorf("%w: %d bytes of trailing data after the footer", block.ErrFraming, len(s.data)-end),
		})
	}
}

// trace assembles the filled threads into a Trace, in order of their first
// segment, attaching the stamp annotations if — and only if — their
// coverage is provably complete (annotationsComplete).
func (s *traceScan) trace() *Trace {
	tr := &Trace{Routines: s.routines, Syncs: s.syncs}
	tr.Threads = make([]ThreadTrace, len(s.order))
	for i, k := range s.order {
		tr.Threads[i] = ThreadTrace{ID: s.threads[k].id, Events: s.threads[k].events}
	}
	if !s.annotationsComplete() {
		return tr
	}
	anns := make([]ThreadAnnotation, len(s.order))
	for i, k := range s.order {
		anns[i] = ThreadAnnotation{Runs: s.threads[k].runs, Stamps: s.threads[k].stamps}
		tr.Threads[i].Ann = &anns[i]
	}
	tr.Annotated = true
	return tr
}

// annotationsComplete reports whether the filled annotations cover the
// trace exactly: every thread's run lengths sum to its event count, its
// stamp count equals its read count, and no annotation names a thread with
// no segment. Anything inconsistent (e.g. a recording whose annotator shut
// off mid-run, or a hand-damaged file that still checksums) degrades the
// trace to unannotated, never to wrong analysis inputs.
func (s *traceScan) annotationsComplete() bool {
	found := false
	for i := range s.threads {
		if t := &s.threads[i]; t.annotated {
			if !t.listed {
				return false
			}
			found = true
		}
	}
	if !found {
		return false
	}
	for _, k := range s.order {
		t := &s.threads[k]
		if !t.annotated {
			if len(t.events) == 0 {
				continue // an empty thread is vacuously annotated
			}
			return false
		}
		sum := 0
		for _, r := range t.runs {
			if sum += r.Events; sum > len(t.events) {
				return false
			}
		}
		if sum != len(t.events) || len(t.stamps) != t.reads {
			return false
		}
	}
	return true
}

// strictErr renders the first bad block of a strict scan as Decode's
// error, naming the block's offset; nil when every block is intact and
// the footer was reached.
func (s *traceScan) strictErr() error {
	i := s.firstBad()
	if i < 0 {
		if s.footer < 0 {
			return fmt.Errorf("trace: truncated: stream ends at offset %d without a footer", len(s.data))
		}
		return nil
	}
	b := &s.blocks[i]
	what := "block"
	switch {
	case errors.Is(b.err, block.ErrFraming), errors.Is(b.err, block.ErrTruncated):
	case errors.Is(b.err, block.ErrChecksum):
		return fmt.Errorf("trace: block at offset %d (kind %q): checksum mismatch", b.Off, b.Kind)
	case b.Kind == blockRoutines, b.Kind == blockSyncs:
		what = "name-table block"
	case b.Kind == blockEvents:
		what = "segment"
	case b.Kind == blockAnnotations:
		what = "annotation"
	case b.Kind == blockFooter:
		what = "footer"
	}
	return fmt.Errorf("trace: %s at offset %d: %w", what, b.Off, b.err)
}

// decodeTrace strictly decodes data, a whole input: any checksum mismatch,
// framing fault, truncation, missing footer, footer/count disagreement or
// trailing data is an error. Use Recover for best-effort salvage instead.
func decodeTrace(data []byte) (*Trace, error) {
	s := scanTrace(data, scanStrict)
	if err := s.strictErr(); err != nil {
		return nil, err
	}
	return s.trace(), nil
}
