package trace

import (
	"context"
	"encoding/binary"
	"fmt"

	"repro/internal/block"
	"repro/internal/guest"
	"repro/internal/shadow"
)

// Stamp annotations ('A' blocks) carry the global half of the paper's
// multithreaded algorithm: the global counter value at every same-thread
// run boundary and the global write-shadow observation of every read. They
// come from one sequential pass over the merged order, the annotator below.
// StreamRecorder runs it live while recording, so its traces are "born
// analysis-ready"; Annotate runs it offline over any other trace
// (recorded without annotations, hand-built, lossily recovered). Given annotations, the
// parallel pipeline assembles its plan in O(#segments) and analyzes threads
// independently. Annotations are pure acceleration metadata: stripping them
// never changes a profile, and the decoder drops them whenever their
// coverage is not provably complete.

// KernelWriter is the provenance code of a shadow cell whose latest write
// was performed by the kernel (external input). Writer codes follow the
// inline profiler's encoding: 0 means "never written", guest thread t is
// encoded as t+1, and KernelWriter marks kernel writes.
const KernelWriter = ^uint32(0)

// Stamp is the global write-shadow observation of one read event: the
// timestamp (global counter value) and provenance of the cell's latest
// write at the moment the read executed. WTS 0 with Writer 0 means the cell
// had never been written.
type Stamp struct {
	// WTS is the global counter value of the latest write.
	WTS uint64
	// Writer is the write's provenance code (see KernelWriter).
	Writer uint32
}

// StampRun annotates one maximal run of a thread's events in the merged
// order (or a recorder-flush-bounded prefix of one): the unit the pipeline
// turns into an analysis segment without scanning the trace.
type StampRun struct {
	// Events is the number of consecutive events the run covers.
	Events int
	// StartCount is the global counter value on entry to the run, under the
	// full counting scheme (calls, thread switches and kernel writes bump).
	StartCount uint64
	// KernelBumps is the number of kernel-write counter bumps that happened
	// before the run, so an rms-only analysis — whose counter skips kernel
	// writes — can recover its entry count as StartCount - KernelBumps.
	KernelBumps uint64
}

// ThreadAnnotation is one thread's record-time analysis metadata: its runs
// in merged order, whose Events fields sum to the thread's event count, and
// one Stamp per read event (KindRead or KindKernelRead), in event order.
type ThreadAnnotation struct {
	// Runs lists the thread's merged-order runs.
	Runs []StampRun
	// Stamps lists the write-shadow observations of the thread's reads.
	Stamps []Stamp
}

// StripAnnotations removes all stamp annotations from the trace, turning an
// annotated trace into its legacy twin: analysis then annotates it offline
// first, and profiles are unchanged (the round-trip tests assert byte
// identity). Annotate recomputes what it removes.
func (tr *Trace) StripAnnotations() {
	tr.Annotated = false
	for i := range tr.Threads {
		tr.Threads[i].Ann = nil
	}
}

// Annotate returns an annotated copy of tr: the annotator runs over the
// merged order WalkRuns(tr, tieSeed) yields, so every StampRun is one
// maximal merged-order run. The copy shares tr's name tables and event
// slices; tr itself, including any annotations it carries, is left
// unchanged. ctx is polled once per merged run.
//
// Annotations are kept per ThreadTrace, so Annotate rejects traces they
// cannot describe: two ThreadTraces with the same ID, or an event whose
// Thread differs from its ThreadTrace's ID. Recorders and the decoders
// never produce either. A memory access, alloc or free outside the
// analysed address space is an *AddressError.
func Annotate(ctx context.Context, tr *Trace, tieSeed int64) (*Trace, error) {
	out := *tr
	out.Threads = make([]ThreadTrace, len(tr.Threads))
	anns := make([]ThreadAnnotation, len(tr.Threads))
	seen := make(map[guest.ThreadID]bool, len(tr.Threads))
	for i := range tr.Threads {
		tt := &tr.Threads[i]
		if seen[tt.ID] {
			return nil, fmt.Errorf("trace: cannot annotate: thread %d has more than one ThreadTrace", tt.ID)
		}
		seen[tt.ID] = true
		// One pass checks the events and counts the reads, so the stamps
		// are allocated once at their final size.
		reads := 0
		for j := range tt.Events {
			e := &tt.Events[j]
			if e.Thread != tt.ID {
				return nil, fmt.Errorf("trace: cannot annotate: event %d of thread %d belongs to thread %d", j, tt.ID, e.Thread)
			}
			if err := e.checkAddr(j); err != nil {
				return nil, err
			}
			if e.Kind == KindRead || e.Kind == KindKernelRead {
				reads++
			}
		}
		anns[i].Stamps = make([]Stamp, 0, reads)
		out.Threads[i] = *tt
		out.Threads[i].Ann = &anns[i]
	}

	a := newAnnotator()
	var err error
	WalkRuns(tr, tieSeed, func(ti, lo, hi int) {
		if err != nil {
			return
		}
		if err = ctx.Err(); err != nil {
			return
		}
		tt := &tr.Threads[ti]
		a.enter(&anns[ti].Runs, tt.ID)
		anns[ti].Stamps = a.observe(tt.Events[lo:hi], anns[ti].Stamps)
	})
	if err != nil {
		return nil, fmt.Errorf("trace: annotate canceled: %w", err)
	}
	a.closeRun()
	out.Annotated = true
	return &out, nil
}

// annotator is the sequential pass that derives stamp annotations from the
// merged order: the global counter, which bumps at calls, thread switches
// (synthesized between runs of different threads, or explicit KindSwitch
// events) and kernel writes; the tally of kernel-write bumps; and the
// global write shadow, which writes stamp with (count, provenance) and
// reads observe. It is fed one thread's run at a time, as events (observe)
// or as a recorder's batch of memory accesses (observeMem). Both apply a
// write through write and let a read observe its cell through the cursor,
// whose lookups inline into their loops.
type annotator struct {
	global shadow.Cursor[Stamp] // the global write shadow
	count  uint64               // global counter
	kernel uint64               // kernel-write bumps included in count
	runs   *[]StampRun          // runs of the open run's thread
	writer uint32               // provenance code of the open run's thread
	open   StampRun             // the open run so far
}

func newAnnotator() *annotator {
	return &annotator{global: shadow.NewTable[Stamp]().Cursor()}
}

// enter makes thread id, whose runs collect in runs, the owner of the open
// run. A change of thread closes the open run and bumps the counter, as
// the switch the merge synthesizes there does.
func (a *annotator) enter(runs *[]StampRun, id guest.ThreadID) {
	if a.runs == runs {
		return
	}
	if a.runs != nil {
		a.count++
		a.closeRun()
	}
	a.runs, a.writer = runs, uint32(id)+1
}

// write applies a write to cell, its cell of the global write shadow. A
// kernel write bumps the counter and stamps the cell as the kernel's; a
// thread's write stamps it as the open run's thread's.
func (a *annotator) write(cell *Stamp, kernel bool) {
	if kernel {
		a.count++
		a.kernel++
		*cell = Stamp{WTS: a.count, Writer: KernelWriter}
		return
	}
	*cell = Stamp{WTS: a.count, Writer: a.writer}
}

// observe advances the annotator past events of the open run's thread and
// appends the stamps of their reads to stamps.
func (a *annotator) observe(events []Event, stamps []Stamp) []Stamp {
	for i := range events {
		e := &events[i]
		addr := guest.Addr(e.Arg)
		switch e.Kind {
		case KindCall, KindSwitch:
			a.count++
		case KindWrite, KindKernelWrite:
			a.write(&a.global.Chunk(addr)[addr&(shadow.ChunkSize-1)], e.Kind == KindKernelWrite)
		case KindRead, KindKernelRead:
			stamps = append(stamps, a.global.Peek(addr))
		}
	}
	a.open.Events += len(events)
	return stamps
}

// observeMem advances the annotator past a batch of memory accesses of the
// open run's thread and appends the wire encoding of their reads' stamps
// to sb.
func (a *annotator) observeMem(events []guest.MemEvent, sb *stampBuf) {
	enc, prev, n := sb.enc, sb.prev, sb.n
	for _, e := range events {
		addr := e.Addr()
		if e.IsWrite() {
			a.write(&a.global.Chunk(addr)[addr&(shadow.ChunkSize-1)], e.IsKernel())
		} else {
			st := a.global.Peek(addr)
			enc = appendStamp(enc, st, prev)
			prev = st.WTS
			n++
		}
	}
	sb.enc, sb.prev, sb.n = enc, prev, n
	a.open.Events += len(events)
}

// stampBuf is an 'A' block's stamps as the recorder encodes them: their
// wire encoding, their count, and the last one's WTS, from which the next
// stamp's delta counts.
type stampBuf struct {
	enc  []byte
	n    int
	prev uint64
}

// reset empties the buffer for the next block.
func (sb *stampBuf) reset() { sb.enc, sb.n, sb.prev = sb.enc[:0], 0, 0 }

// closeRun appends the open run, unless it is empty, to its thread's runs,
// and reopens it at the current counter. Splitting a run this way is exact:
// the counter right after an event is the counter on entry to the next.
func (a *annotator) closeRun() {
	if a.open.Events > 0 {
		*a.runs = append(*a.runs, a.open)
	}
	a.open = StampRun{StartCount: a.count, KernelBumps: a.kernel}
}

// writerToWire maps a Stamp provenance code to its wire encoding: 0 stays 0
// (never written), KernelWriter becomes 1, and thread codes t+1 shift up by
// one so every realistic value stays a short varint.
func writerToWire(w uint32) uint64 {
	switch w {
	case 0:
		return 0
	case KernelWriter:
		return 1
	default:
		return uint64(w) + 1
	}
}

// writerFromWire inverts writerToWire.
func writerFromWire(v uint64) (uint32, error) {
	switch {
	case v == 0:
		return 0, nil
	case v == 1:
		return KernelWriter, nil
	case v-1 <= uint64(^uint32(0)):
		return uint32(v - 1), nil
	default:
		return 0, fmt.Errorf("implausible writer code %d", v)
	}
}

// maxRunEvents bounds one annotated run's declared event count; anything
// larger is treated as corruption rather than trusted into a sum.
const maxRunEvents = 1 << 40

// appendAnnotationHead encodes an 'A' block payload up to its stamps: the
// thread id, the runs and the count of the stamps that follow.
func appendAnnotationHead(dst []byte, id guest.ThreadID, runs []StampRun, stamps int) []byte {
	dst = binary.AppendUvarint(dst, uint64(uint32(id)))
	dst = binary.AppendUvarint(dst, uint64(len(runs)))
	for _, r := range runs {
		dst = binary.AppendUvarint(dst, uint64(r.Events))
		dst = binary.AppendUvarint(dst, r.StartCount)
		dst = binary.AppendUvarint(dst, r.KernelBumps)
	}
	return binary.AppendUvarint(dst, uint64(stamps))
}

// appendStamp encodes one stamp of an 'A' block: the zigzag varint of
// WTS - prev - 1, where prev is the block's previous stamp's WTS (0 for
// its first), then the writer. Reads of a buffer the kernel filled see
// consecutive WTS, and reads of one a thread wrote in one run see equal
// ones, so the delta takes one byte where the WTS would take three or
// four. The arithmetic wraps, so every WTS has an encoding.
func appendStamp(dst []byte, s Stamp, prev uint64) []byte {
	d := int64(s.WTS - prev - 1)
	z, w := uint64(d<<1)^uint64(d>>63), writerToWire(s.Writer)
	if z|w < 1<<7 {
		return append(dst, byte(z), byte(w))
	}
	return binary.AppendUvarint(binary.AppendUvarint(dst, z), w)
}

// annotationHeader parses an 'A' block payload's thread id, run count and
// stamp count, and returns the header's length, where the runs begin. The
// stamp count follows the runs, which it steps over. Both counts are
// bounded by the payload size (a run costs at least three bytes, a stamp at
// least two), so callers may allocate them.
func annotationHeader(payload []byte) (id guest.ThreadID, nr, ns, hdr int, err error) {
	p := block.NewParser(payload)
	id = threadIDFromWire(p.Uvarint())
	runs := p.Uvarint()
	if p.Err() != nil {
		return id, 0, 0, 0, p.Err()
	}
	if runs > uint64(len(payload))/3+1 {
		return id, 0, 0, 0, fmt.Errorf("implausible run count %d in %d-byte annotation", runs, len(payload))
	}
	hdr = p.Off()
	for i := 0; i < 3*int(runs) && p.Err() == nil; i++ {
		p.Uvarint()
	}
	stamps := p.Uvarint()
	if p.Err() != nil {
		return id, 0, 0, 0, p.Err()
	}
	if stamps > uint64(len(payload))/2+1 {
		return id, 0, 0, 0, fmt.Errorf("implausible stamp count %d in %d-byte annotation", stamps, len(payload))
	}
	return id, int(runs), int(stamps), hdr, nil
}

// parseAnnotation decodes an 'A' block's runs and stamps, the payload after
// its header, into runs and stamps, which hold exactly the header's counts.
// Stamps come back with absolute WTS (see appendStamp).
func parseAnnotation(body []byte, runs []StampRun, stamps []Stamp) error {
	p := block.NewParser(body)
	for i := range runs {
		ev, start, kb := p.Uvarint(), p.Uvarint(), p.Uvarint()
		if p.Err() != nil {
			return fmt.Errorf("run %d: %w", i, p.Err())
		}
		if ev > maxRunEvents {
			return fmt.Errorf("run %d: implausible event count %d", i, ev)
		}
		runs[i] = StampRun{Events: int(ev), StartCount: start, KernelBumps: kb}
	}
	p.Uvarint() // the stamp count, read by annotationHeader
	prev := uint64(0)
	for i := range stamps {
		z, ok := p.Short()
		if !ok {
			z = p.Uvarint()
		}
		ww, ok := p.Short()
		if !ok {
			ww = p.Uvarint()
		}
		if p.Err() != nil {
			return fmt.Errorf("stamp %d: %w", i, p.Err())
		}
		writer, err := writerFromWire(ww)
		if err != nil {
			return fmt.Errorf("stamp %d: %w", i, err)
		}
		wts := prev + 1 + uint64(int64(z>>1)^-int64(z&1))
		stamps[i] = Stamp{WTS: wts, Writer: writer}
		prev = wts
	}
	return p.End("trailing bytes after annotation stamps")
}
