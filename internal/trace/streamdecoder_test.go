package trace_test

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/block"
	"repro/internal/guest"
	"repro/internal/trace"
)

// decodeAll feeds the encoded stream to a StreamDecoder in chunks of the
// given size and reassembles a per-thread event map plus the name tables.
func decodeAll(t *testing.T, raw []byte, chunk int) (map[guest.ThreadID][]trace.Event, []string, []string, *trace.StreamDecoder) {
	t.Helper()
	d := trace.NewStreamDecoder()
	events := make(map[guest.ThreadID][]trace.Event)
	var routines, syncs []string
	for off := 0; off < len(raw); off += chunk {
		end := off + chunk
		if end > len(raw) {
			end = len(raw)
		}
		delta, err := d.Feed(raw[off:end])
		if err != nil {
			t.Fatalf("chunk=%d: Feed at offset %d: %v", chunk, off, err)
		}
		routines = append(routines, delta.Routines...)
		syncs = append(syncs, delta.Syncs...)
		for _, seg := range delta.Segments {
			events[seg.Thread] = append(events[seg.Thread], seg.Events...)
		}
	}
	return events, routines, syncs, d
}

// TestStreamDecoderMatchesDecode: feeding the recorder's output through the
// incremental decoder — at every chunking granularity — must reproduce
// exactly the events and name tables the batch decoder reads, with absolute
// timestamps restored across segment restarts.
func TestStreamDecoderMatchesDecode(t *testing.T) {
	var buf bytes.Buffer
	sr := trace.NewStreamRecorder(&buf)
	sr.SetSegmentEvents(8) // many segments: exercises per-segment TS restarts
	exampleRun(t, 5, sr)
	if err := sr.Close(); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	want, err := trace.Decode(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}

	for _, chunk := range []int{1, 7, 1 << 20} {
		events, routines, syncs, d := decodeAll(t, raw, chunk)
		if !d.Ended() {
			t.Fatalf("chunk=%d: footer not reached", chunk)
		}
		if d.Buffered() != 0 {
			t.Fatalf("chunk=%d: %d undecoded bytes after footer", chunk, d.Buffered())
		}
		if len(routines) != len(want.Routines) {
			t.Fatalf("chunk=%d: %d routines, want %d", chunk, len(routines), len(want.Routines))
		}
		for i := range routines {
			if routines[i] != want.Routines[i] {
				t.Fatalf("chunk=%d: routine %d = %q, want %q", chunk, i, routines[i], want.Routines[i])
			}
		}
		if len(syncs) != len(want.Syncs) {
			t.Fatalf("chunk=%d: %d syncs, want %d", chunk, len(syncs), len(want.Syncs))
		}
		for i := range want.Threads {
			tt := &want.Threads[i]
			got := events[tt.ID]
			if len(got) != len(tt.Events) {
				t.Fatalf("chunk=%d thread %d: %d events, want %d", chunk, tt.ID, len(got), len(tt.Events))
			}
			for j := range got {
				if got[j] != tt.Events[j] {
					t.Fatalf("chunk=%d thread %d event %d = %+v, want %+v", chunk, tt.ID, j, got[j], tt.Events[j])
				}
			}
		}
	}
}

// TestStreamDecoderPermanentErrors: corruption anywhere — magic, version,
// block body, post-footer garbage — is a permanent, sticky error.
func TestStreamDecoderPermanentErrors(t *testing.T) {
	var buf bytes.Buffer
	sr := trace.NewStreamRecorder(&buf)
	exampleRun(t, 5, sr)
	if err := sr.Close(); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	t.Run("bad-magic", func(t *testing.T) {
		bad := append([]byte(nil), raw...)
		bad[0] ^= 0xff
		d := trace.NewStreamDecoder()
		if _, err := d.Feed(bad); err == nil {
			t.Fatal("corrupt magic accepted")
		}
	})

	t.Run("bad-version", func(t *testing.T) {
		bad := append([]byte(nil), raw...)
		bad[8] = 99
		d := trace.NewStreamDecoder()
		_, err := d.Feed(bad)
		var ve *trace.VersionError
		if !errors.As(err, &ve) || ve.Got != 99 {
			t.Fatalf("Feed error = %v, want *trace.VersionError{Got:99}", err)
		}
	})

	t.Run("corrupt-body-sticky", func(t *testing.T) {
		bad := append([]byte(nil), raw...)
		bad[len(bad)/2] ^= 0xff // somewhere inside a block: checksum must catch it
		d := trace.NewStreamDecoder()
		_, err := d.Feed(bad)
		if err == nil {
			t.Fatal("mid-stream corruption accepted")
		}
		if _, err2 := d.Feed(nil); err2 == nil {
			t.Fatal("error not sticky")
		}
		if d.Err() == nil {
			t.Fatal("Err() should report the permanent error")
		}
	})

	t.Run("post-footer-bytes", func(t *testing.T) {
		d := trace.NewStreamDecoder()
		if _, err := d.Feed(raw); err != nil {
			t.Fatal(err)
		}
		if !d.Ended() {
			t.Fatal("footer not reached")
		}
		if _, err := d.Feed([]byte{0}); err == nil {
			t.Fatal("bytes after the footer accepted")
		}
	})
}

// TestStreamDecoderSegmentOrder: as in the batch decoders, a thread's
// segment that starts before its previous segment ended is a permanent
// error, while another thread's earlier timestamps in between, or a
// segment starting at the very timestamp the last one ended, are fine.
func TestStreamDecoderSegmentOrder(t *testing.T) {
	ev := func(th int32, ts uint64) trace.Event {
		return trace.Event{TS: ts, Thread: guest.ThreadID(th), Kind: trace.KindWrite, Arg: 8}
	}
	ok := &trace.Trace{Threads: []trace.ThreadTrace{
		{ID: 3, Events: []trace.Event{ev(3, 5), ev(3, 7)}},
		{ID: 4, Events: []trace.Event{ev(4, 1)}},
		{ID: 3, Events: []trace.Event{ev(3, 7), ev(3, 9)}},
	}}
	back := &trace.Trace{Threads: []trace.ThreadTrace{
		{ID: 3, Events: []trace.Event{ev(3, 5), ev(3, 7)}},
		{ID: 4, Events: []trace.Event{ev(4, 9)}},
		{ID: 3, Events: []trace.Event{ev(3, 6)}},
	}}
	for _, c := range []struct {
		name string
		tr   *trace.Trace
		want string
	}{
		{"in order", ok, ""},
		{"steps back", back, "thread 3: segment starts at timestamp 6, before the previous segment's 7"},
	} {
		var buf bytes.Buffer
		if _, err := c.tr.EncodeUnchecked(&buf); err != nil {
			t.Fatal(err)
		}
		_, batchErr := trace.Decode(bytes.NewReader(buf.Bytes()))
		d := trace.NewStreamDecoder()
		delta, err := d.Feed(buf.Bytes())
		if c.want == "" {
			if err != nil || batchErr != nil {
				t.Fatalf("%s: stream %v, batch %v, want both accepted", c.name, err, batchErr)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: Feed error %v, want %q", c.name, err, c.want)
		}
		if batchErr == nil || !strings.Contains(batchErr.Error(), c.want) {
			t.Fatalf("%s: Decode error %v, want the same message %q", c.name, batchErr, c.want)
		}
		if len(delta.Segments) != 2 {
			t.Errorf("%s: %d segments delivered before the error, want 2", c.name, len(delta.Segments))
		}
		if _, err := d.Feed(nil); err == nil {
			t.Errorf("%s: error not sticky", c.name)
		}
	}
}

// TestStreamDecoderPartialBlockWaits: a partially delivered block produces
// no delta and no error — the decoder waits for the rest.
func TestStreamDecoderPartialBlockWaits(t *testing.T) {
	var buf bytes.Buffer
	sr := trace.NewStreamRecorder(&buf)
	exampleRun(t, 5, sr)
	if err := sr.Close(); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	d := trace.NewStreamDecoder()
	half := len(raw) / 2
	if _, err := d.Feed(raw[:half]); err != nil {
		t.Fatal(err)
	}
	if d.Ended() {
		t.Fatal("half the stream should not contain the footer")
	}
	delta, err := d.Feed(raw[half:])
	if err != nil {
		t.Fatal(err)
	}
	if !delta.Footer || !d.Ended() {
		t.Fatal("second half should complete the stream")
	}
	if d.Buffered() != 0 {
		t.Fatalf("%d bytes left undecoded", d.Buffered())
	}
}

// TestStreamDecoderRoutinesSoFar: the StreamDecoder bounds a call's routine
// id by the names received before its segment, since a recorder sends each
// name before the first segment using it; the batch decoders, which see
// the whole file, bound it by the whole table.
func TestStreamDecoderRoutinesSoFar(t *testing.T) {
	prelude := append([]byte("ISPTRACE"), trace.FormatVersion())
	segment := []byte{1, 2, 1, byte(trace.KindCall), 0, 0, 1, byte(trace.KindReturn), 0, 1}
	data := block.Append(prelude, 'R', []byte{0})
	data = block.Append(data, 'E', segment)
	data = block.Append(data, 'R', []byte{1, 4, 'm', 'a', 'i', 'n'})
	data = block.Append(data, 'F', []byte{3, 2, 1})
	if _, err := trace.Decode(bytes.NewReader(data)); err != nil {
		t.Fatalf("Decode: %v", err)
	}
	const want = "call of routine 0 outside the 0-name routine table"
	if _, err := trace.NewStreamDecoder().Feed(data); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("StreamDecoder: got %v, want %q", err, want)
	}
}
