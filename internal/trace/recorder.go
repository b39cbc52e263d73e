package trace

import (
	"bytes"

	"repro/internal/guest"
)

// Recorder is a guest.Tool that records the execution in memory: a
// StreamRecorder, unannotated unless SetAnnotations(true) is called,
// encodes it into a buffer that Finish strictly decodes, so every
// in-memory trace comes from the one encoder and the one decoder. Threads
// appear in the order of their first events. Thread switches are not
// recorded: the merge step re-derives them, as in the paper's trace model
// where switchThread events are inserted between operations of different
// threads.
//
// The stream recorder's rules apply: an event outside the analysed address
// space (a memory access at or above 1<<shadow.MaxAddrBits, or an alloc or
// free whose range does not fit below it) stops the recording, Err and
// Close report it as an *AddressError, and Trace returns nil.
type Recorder struct {
	*StreamRecorder
	buf   bytes.Buffer
	trace *Trace
}

// NewRecorder returns an empty Recorder.
func NewRecorder() *Recorder {
	r := &Recorder{}
	r.StreamRecorder = NewStreamRecorder(&r.buf)
	r.SetAnnotations(false)
	return r
}

// Trace returns the recorded trace; valid after the run finishes without
// error.
func (r *Recorder) Trace() *Trace { return r.trace }

// Finish implements guest.Tool: the stream is completed and decoded, and
// the decoded threads are put back in the order of their first events.
func (r *Recorder) Finish() {
	if r.finished {
		return
	}
	r.finish()
	if r.err != nil {
		return
	}
	tr, err := Decode(bytes.NewReader(r.buf.Bytes()))
	if err != nil {
		r.err = err
		return
	}
	r.buf = bytes.Buffer{}
	byID := make(map[guest.ThreadID]ThreadTrace, len(tr.Threads))
	for _, tt := range tr.Threads {
		byID[tt.ID] = tt
	}
	for i, st := range r.order {
		tr.Threads[i] = byID[st.id]
	}
	r.trace = tr
}

// Close finishes the recording if the run has not, and returns its first
// error.
func (r *Recorder) Close() error {
	r.Finish()
	return r.err
}
