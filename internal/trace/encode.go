package trace

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"repro/internal/guest"
)

// Binary trace format, common prelude:
//
//	magic "ISPTRACE" | version byte | version-specific body
//
// Version 2 (current) is the crash-safe segmented format implemented in
// format2.go: checksummed name-table blocks, per-thread event segments and a
// footer. Version 1 is the legacy unframed stream decoded below:
//
//	routine table: uvarint count, then uvarint length + bytes per name
//	sync table:    same layout
//	threads:       uvarint count, then per thread:
//	                 uvarint thread id (uint32 image)
//	                 uvarint event count, then per event:
//	                   uvarint timestamp delta | kind byte | uvarint arg | uvarint aux
//
// Timestamps are delta-encoded within each thread's stream (per segment in
// v2), which keeps typical events at 4-6 bytes. See docs/TRACE_FORMAT.md.

var magic = [8]byte{'I', 'S', 'P', 'T', 'R', 'A', 'C', 'E'}

// formatVersion is the current wire-format version. Encode always writes
// it; Decode additionally accepts the legacy version below.
const formatVersion = 2

// legacyVersion is the v1 unframed format, still decodable (read-only
// compatibility; Encode never writes it).
const legacyVersion = 1

// FormatVersion returns the current binary trace-format version byte.
func FormatVersion() byte { return formatVersion }

// VersionError reports a trace wire-format version the current code cannot
// process: Decode returns it for traces written by an unknown format
// revision, and Combine returns it when asked to join traces of differing
// versions. Unwrap with errors.As.
type VersionError struct {
	// Want is the version this build supports (Decode) or the version of
	// the first trace (Combine); Got is the offending version.
	Want, Got byte
}

// Error implements error.
func (e *VersionError) Error() string {
	return fmt.Sprintf("trace: format version %d not supported (want %d)", e.Got, e.Want)
}

// Decode reads a trace in the binary format, strictly: in the current
// segmented format every checksum must verify and the footer must be
// present, consistent and last, and in the legacy v1 format the stream must
// parse to its end. Decode reads all of r before decoding; see
// docs/TRACE_FORMAT.md for what that costs in memory. Use Recover to
// salvage intact segments from damaged v2 traces instead.
func Decode(r io.Reader) (*Trace, error) {
	defer tallyDecode(time.Now())
	data, ver, err := readTrace(r)
	if err != nil {
		return nil, err
	}
	switch ver {
	case legacyVersion:
		return decodeV1(bytes.NewReader(data[preludeLen:]))
	case formatVersion:
		return decodeV2(data)
	default:
		return nil, &VersionError{Want: formatVersion, Got: ver}
	}
}

// preludeLen is the size of the shared prelude: 8 magic bytes + 1 version.
const preludeLen = 9

// readTrace reads all of r (readInput) and validates the magic, returning
// the whole input, prelude included, and its version byte.
func readTrace(r io.Reader) ([]byte, byte, error) {
	data, err := readInput(r)
	if err != nil {
		return nil, 0, fmt.Errorf("trace: reading input: %w", err)
	}
	if len(data) < len(magic) {
		return nil, 0, fmt.Errorf("trace: reading magic: %d of %d bytes", len(data), len(magic))
	}
	if [8]byte(data) != magic {
		return nil, 0, fmt.Errorf("trace: bad magic %q", data[:len(magic)])
	}
	if len(data) < preludeLen {
		return nil, 0, fmt.Errorf("trace: reading version: %w", io.EOF)
	}
	return data, data[len(magic)], nil
}

// decodeV1 reads the legacy v1 body (everything after the version byte).
// Table counts, name lengths and thread/event counts are bounded before any
// allocation, so hostile inputs cannot force huge allocations. A thread id
// listed twice is an error: one ThreadTrace per id is what the v2 decoder
// and Combine guarantee too.
func decodeV1(br *bytes.Reader) (*Trace, error) {
	readStrings := func() ([]string, error) {
		n, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		if n > maxTableEntries {
			return nil, fmt.Errorf("trace: implausible name-table size %d", n)
		}
		ss := make([]string, 0, min(n, 4096))
		for i := uint64(0); i < n; i++ {
			l, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, err
			}
			if l > maxNameLen {
				return nil, fmt.Errorf("trace: implausible name length %d", l)
			}
			buf := make([]byte, l)
			if _, err := io.ReadFull(br, buf); err != nil {
				return nil, err
			}
			ss = append(ss, string(buf))
		}
		return ss, nil
	}
	tr := &Trace{Version: legacyVersion}
	var err error
	if tr.Routines, err = readStrings(); err != nil {
		return nil, fmt.Errorf("trace: routine table: %w", err)
	}
	if tr.Syncs, err = readStrings(); err != nil {
		return nil, fmt.Errorf("trace: sync table: %w", err)
	}
	nThreads, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, err
	}
	if nThreads > maxThreads {
		return nil, fmt.Errorf("trace: implausible thread count %d", nThreads)
	}
	seen := make(map[guest.ThreadID]bool)
	for i := uint64(0); i < nThreads; i++ {
		id, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		tid := threadIDFromWire(id)
		if seen[tid] {
			return nil, fmt.Errorf("trace: thread %d listed twice", tid)
		}
		seen[tid] = true
		nEvents, err := binary.ReadUvarint(br)
		if err != nil {
			return nil, err
		}
		tt := ThreadTrace{ID: tid}
		tt.Events = make([]Event, 0, min(nEvents, 1<<20))
		prev := uint64(0)
		for j := uint64(0); j < nEvents; j++ {
			delta, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, fmt.Errorf("trace: thread %d event %d: %w", id, j, err)
			}
			prev += delta
			kb, err := br.ReadByte()
			if err != nil {
				return nil, err
			}
			if Kind(kb) >= numKinds {
				return nil, fmt.Errorf("trace: invalid event kind %d", kb)
			}
			arg, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, err
			}
			aux, err := binary.ReadUvarint(br)
			if err != nil {
				return nil, err
			}
			tt.Events = append(tt.Events, Event{
				TS:     prev,
				Thread: tt.ID,
				Kind:   Kind(kb),
				Arg:    arg,
				Aux:    aux,
			})
		}
		tr.Threads = append(tr.Threads, tt)
	}
	return tr, nil
}

func threadIDFromWire(v uint64) guest.ThreadID { return guest.ThreadID(int32(uint32(v))) }
