package trace

import (
	"fmt"
	"io"
	"time"

	"repro/internal/guest"
)

// Binary trace format, common prelude:
//
//	magic "ISPTRACE" | version byte | version-specific body
//
// Version 3 is the crash-safe segmented format implemented in format2.go:
// checksummed name-table blocks, per-thread event segments and a footer.
// Timestamps are delta-encoded per segment, and one memory record carries
// a run of up to maxRun same-kind accesses to adjacent cells at
// consecutive timestamps, so a run of adjacent accesses costs one record
// of 4-6 bytes instead of one per access. Version 1, an unframed stream without checksums,
// and version 2, whose memory records carry one access each, are no
// longer read. See docs/TRACE_FORMAT.md.

var magic = [8]byte{'I', 'S', 'P', 'T', 'R', 'A', 'C', 'E'}

// formatVersion is the wire-format version the StreamRecorder writes and
// the only one Decode, Recover, Verify and the StreamDecoder read.
const formatVersion = 3

// FormatVersion returns the current binary trace-format version byte.
func FormatVersion() byte { return formatVersion }

// VersionError reports a trace wire-format version the current code cannot
// process: the decoders return it for traces written by an unknown format
// revision. Unwrap with errors.As.
type VersionError struct {
	// Want is the version this build supports; Got is the offending
	// version.
	Want, Got byte
}

// Error implements error.
func (e *VersionError) Error() string {
	return fmt.Sprintf("trace: format version %d not supported (want %d)", e.Got, e.Want)
}

// Decode reads a trace in the binary format, strictly: every checksum must
// verify and the footer must be present, consistent and last. Decode reads
// all of r before decoding; see docs/TRACE_FORMAT.md for what that costs in
// memory. Use Recover to salvage intact segments from damaged traces
// instead.
func Decode(r io.Reader) (*Trace, error) {
	defer tallyDecode(time.Now())
	data, err := readTrace(r)
	if err != nil {
		return nil, err
	}
	return decodeTrace(data)
}

// preludeLen is the size of the shared prelude: 8 magic bytes + 1 version.
const preludeLen = 9

// readTrace reads all of r (readInput) and validates the prelude, returning
// the whole input, prelude included. A version other than formatVersion is
// a *VersionError.
func readTrace(r io.Reader) ([]byte, error) {
	data, err := readInput(r)
	if err != nil {
		return nil, fmt.Errorf("trace: reading input: %w", err)
	}
	if len(data) < len(magic) {
		return nil, fmt.Errorf("trace: reading magic: %d of %d bytes", len(data), len(magic))
	}
	if [8]byte(data) != magic {
		return nil, fmt.Errorf("trace: bad magic %q", data[:len(magic)])
	}
	if len(data) < preludeLen {
		return nil, fmt.Errorf("trace: reading version: %w", io.EOF)
	}
	if ver := data[len(magic)]; ver != formatVersion {
		return nil, &VersionError{Want: formatVersion, Got: ver}
	}
	return data, nil
}

func threadIDFromWire(v uint64) guest.ThreadID { return guest.ThreadID(int32(uint32(v))) }
