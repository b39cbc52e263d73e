// Package block is the one block codec behind every file the profiler
// persists: trace files and streams (internal/trace) and aprofd tenant
// checkpoints (internal/daemon). After a format's own prelude, each of those is a
// sequence of blocks framed as
//
//	kind byte | uvarint payload length | payload | CRC32-C (4 bytes, LE)
//
// where the checksum covers the kind byte, the length varint and the
// payload, so any single corrupted bit inside a block is detected. The
// package knows the framing and nothing about what the kinds mean: each
// format names its kinds in a Format and parses payloads with Parser.
package block

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"strings"
)

// castagnoli is the CRC32-C polynomial table of every block checksum.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Sentinel causes of an unreadable block, for errors.Is.
var (
	// ErrFraming: an unknown kind byte or a bad length.
	ErrFraming = errors.New("invalid block framing")
	// ErrTruncated: the input ends inside the block.
	ErrTruncated = errors.New("truncated block")
	// ErrChecksum: the block's CRC32-C does not match.
	ErrChecksum = errors.New("CRC32-C mismatch")
)

// Append frames the concatenation of the payload parts as one block of the
// given kind appended to dst. Passing a payload in parts (a header and a
// body, say) frames it without first joining them into one buffer.
func Append(dst []byte, kind byte, payload ...[]byte) []byte {
	start := len(dst)
	n := 0
	for _, p := range payload {
		n += len(p)
	}
	dst = append(dst, kind)
	dst = binary.AppendUvarint(dst, uint64(n))
	for _, p := range payload {
		dst = append(dst, p...)
	}
	sum := crc32.Checksum(dst[start:], castagnoli)
	return binary.LittleEndian.AppendUint32(dst, sum)
}

// Frame is one block framed in place: Payload aliases the input.
type Frame struct {
	// Off is the input offset of the kind byte; End is the offset just
	// past the checksum.
	Off, End int
	// Kind is the block's kind byte.
	Kind byte
	// Payload is the block's payload.
	Payload []byte
	// CRCOK reports that the checksum matched.
	CRCOK bool
}

// Format is one file format's view of the framing: the kind bytes it
// defines and the largest payload length it trusts.
type Format struct {
	// Kinds lists the valid kind bytes.
	Kinds string
	// MaxPayload bounds a declared payload length; a larger one is framing
	// corruption rather than a reason to wait for more bytes.
	MaxPayload uint64
}

// Next frames the block that starts at data[off]. It returns io.EOF when
// off is exactly the end of data, an error wrapping ErrTruncated when data
// ends inside the block (a stream reader waits for more bytes), and one
// wrapping ErrFraming for a kind not in f.Kinds, a length over
// f.MaxPayload or a length varint longer than it needs to be. A checksum
// mismatch is not an error: the frame comes back with CRCOK false, so
// callers choose between rejection and salvage.
func (f Format) Next(data []byte, off int) (Frame, error) {
	fr := Frame{Off: off}
	if off >= len(data) {
		return fr, io.EOF
	}
	fr.Kind = data[off]
	if strings.IndexByte(f.Kinds, fr.Kind) < 0 {
		return fr, fmt.Errorf("%w: unknown block kind 0x%02x", ErrFraming, fr.Kind)
	}
	plen, w := binary.Uvarint(data[off+1:])
	if w == 0 {
		return fr, fmt.Errorf("%w: block length: unexpected end of input", ErrTruncated)
	}
	if w < 0 || plen > f.MaxPayload {
		return fr, fmt.Errorf("%w: implausible block length %d", ErrFraming, plen)
	}
	if w > 1 && data[off+w] == 0 {
		// A zero last byte pads the varint: each length has one encoding.
		return fr, fmt.Errorf("%w: non-minimal block length", ErrFraming)
	}
	start := off + 1 + w
	if uint64(len(data)-start) < plen+4 {
		return fr, fmt.Errorf("%w: %d-byte payload and checksum need %d bytes, %d remain",
			ErrTruncated, plen, plen+4, len(data)-start)
	}
	body := start + int(plen)
	fr.End = body + 4
	fr.Payload = data[start:body]
	fr.CRCOK = crc32.Checksum(data[off:body], castagnoli) == binary.LittleEndian.Uint32(data[body:])
	return fr, nil
}

// Split frames data[off:] strictly into consecutive blocks. Any framing
// fault, truncation or checksum mismatch is an error, so the frames it
// returns are all intact and together cover data[off:] exactly.
func (f Format) Split(data []byte, off int) ([]Frame, error) {
	var out []Frame
	for {
		fr, err := f.Next(data, off)
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		if !fr.CRCOK {
			return nil, fmt.Errorf("block at offset %d (kind %q): %w", fr.Off, fr.Kind, ErrChecksum)
		}
		out = append(out, fr)
		off = fr.End
	}
}

// Sentinel errors of Parser; fixed values keep the hot parse loops free of
// allocation.
var (
	errVarint       = errors.New("malformed uvarint")
	errShortPayload = errors.New("unexpected end of payload")
	errCount        = errors.New("implausible element count")
)

// Parser is a bounds-checked cursor over one block payload. The first
// failure sticks in Err and the cursor never passes the end, so a parse
// loop may read a whole record and check Err once; values read after a
// failure are meaningless.
type Parser struct {
	b   []byte
	off int
	err error
}

// NewParser returns a parser at the start of payload.
func NewParser(payload []byte) Parser { return Parser{b: payload} }

func (p *Parser) fail(err error) {
	if p.err == nil {
		p.err = err
	}
}

// Err returns the first failure, or nil.
func (p *Parser) Err() error { return p.err }

// Off returns how many bytes have been consumed.
func (p *Parser) Off() int { return p.off }

// Short reads the next uvarint if it is one or two bytes long, the common
// case on the wire (timestamp deltas, addresses), accepting exactly the
// byte strings binary.Uvarint accepts at those lengths (non-minimal
// two-byte forms included). Unlike Uvarint, which is over the compiler's
// inlining budget, it inlines, so hot loops try it first.
func (p *Parser) Short() (uint64, bool) {
	if b := p.b[p.off:]; len(b) > 0 && b[0] < 0x80 {
		p.off++
		return uint64(b[0]), true
	} else if len(b) > 1 && b[1] < 0x80 {
		p.off += 2
		return uint64(b[0]&0x7f) | uint64(b[1])<<7, true
	}
	return 0, false
}

// Uvarint reads one uvarint.
func (p *Parser) Uvarint() uint64 {
	v, n := binary.Uvarint(p.b[p.off:])
	if n <= 0 {
		p.fail(errVarint)
		return 0
	}
	p.off += n
	return v
}

// Varint reads one zigzag varint.
func (p *Parser) Varint() int64 {
	v, n := binary.Varint(p.b[p.off:])
	if n <= 0 {
		p.fail(errVarint)
		return 0
	}
	p.off += n
	return v
}

// Byte reads one byte.
func (p *Parser) Byte() byte {
	if p.off >= len(p.b) {
		p.fail(errShortPayload)
		return 0
	}
	p.off++
	return p.b[p.off-1]
}

// Take reads the next n bytes, aliasing the payload.
func (p *Parser) Take(n int) []byte {
	if n < 0 || p.off+n > len(p.b) {
		p.fail(errShortPayload)
		return nil
	}
	p.off += n
	return p.b[p.off-n : p.off]
}

// Count reads a uvarint element count and fails unless the remaining
// payload could hold that many elements of at least size bytes each, so a
// corrupt count cannot drive a huge allocation.
func (p *Parser) Count(size int) int {
	v := p.Uvarint()
	if p.err == nil && v > uint64((len(p.b)-p.off)/max(size, 1)) {
		p.fail(errCount)
	}
	if p.err != nil {
		return 0
	}
	return int(v)
}

// End reports the parse outcome: the sticky error, or an error saying
// trailing if bytes remain after the last field.
func (p *Parser) End(trailing string) error {
	if p.err == nil && p.off != len(p.b) {
		return errors.New(trailing)
	}
	return p.err
}
