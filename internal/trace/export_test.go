package trace

import (
	"io"

	"repro/internal/block"
	"repro/internal/guest"
)

// EncodeUnchecked is the reference encoder: it writes tr whole as a v3
// file, with no checks, so tests can build the files no recorder writes (a
// thread whose timestamps go back, an access past the shadowed address
// space, a routine id past the table, a thread with no events,
// annotations made up by hand). It writes each thread's segments of at
// most DefaultSegmentEvents events, then its annotations, thread by
// thread, and forms memory runs as StreamRecorder.encodeMem does. It
// returns the number of bytes written.
func (tr *Trace) EncodeUnchecked(w io.Writer) (int64, error) {
	out := append(append([]byte(nil), magic[:]...), formatVersion)
	blocks := 0
	writeBlock := func(kind byte, payload []byte) {
		out = block.Append(out, kind, payload)
		blocks++
	}
	writeBlock(blockRoutines, appendTablePayload(nil, tr.Routines))
	writeBlock(blockSyncs, appendTablePayload(nil, tr.Syncs))
	events := 0
	distinct := make(map[guest.ThreadID]bool, len(tr.Threads))
	for i := range tr.Threads {
		tt := &tr.Threads[i]
		distinct[tt.ID] = true
		events += len(tt.Events)
		// A thread with no events still gets one empty segment.
		for lo := 0; ; lo += DefaultSegmentEvents {
			hi := min(lo+DefaultSegmentEvents, len(tt.Events))
			writeBlock(blockEvents, appendSegmentPayload(nil, tt.ID, tt.Events[lo:hi]))
			if hi == len(tt.Events) {
				break
			}
		}
		if tr.Annotated && tt.Ann != nil {
			runs, stamps := tt.Ann.Runs, tt.Ann.Stamps
			for len(runs) > 0 || len(stamps) > 0 {
				nr := min(len(runs), DefaultSegmentEvents)
				ns := min(len(stamps), DefaultSegmentEvents)
				writeBlock(blockAnnotations, appendAnnotationPayload(nil, tt.ID, runs[:nr], stamps[:ns]))
				runs, stamps = runs[nr:], stamps[ns:]
			}
		}
	}
	out = block.Append(out, blockFooter, appendFooterPayload(nil, blocks, events, len(distinct)))
	n, err := w.Write(out)
	return int64(n), err
}

// appendSegmentPayload encodes events as one E block payload of thread id:
// each maximal run of up to maxRun memory accesses of one kind, at
// adjacent ascending cells and consecutive timestamps, is one record whose
// aux is the run length minus one.
func appendSegmentPayload(dst []byte, id guest.ThreadID, events []Event) []byte {
	dst = appendSegmentHead(dst, id, len(events))
	prev := uint64(0)
	for i := 0; i < len(events); {
		e := &events[i]
		n, aux := 1, e.Aux
		if e.Kind.IsMemory() {
			for n < maxRun && i+n < len(events) {
				f := &events[i+n]
				if f.Kind != e.Kind || f.Arg != e.Arg+uint64(n) || f.TS != e.TS+uint64(n) {
					break
				}
				n++
			}
			aux = uint64(n - 1)
		}
		dst = appendEvent(dst, e.TS-prev, e.Kind, e.Arg, aux)
		prev = e.TS + uint64(n-1)
		i += n
	}
	return dst
}

// appendAnnotationPayload encodes one 'A' block payload: the thread id, a
// batch of runs and a batch of stamps.
func appendAnnotationPayload(dst []byte, id guest.ThreadID, runs []StampRun, stamps []Stamp) []byte {
	dst = appendAnnotationHead(dst, id, runs, len(stamps))
	prev := uint64(0)
	for _, s := range stamps {
		dst = appendStamp(dst, s, prev)
		prev = s.WTS
	}
	return dst
}
