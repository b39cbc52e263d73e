// The aprofd wire protocol: a hello identifying the guest, then
// length-framed chunks of the standard trace stream.
//
// Framing carries meaning beyond transport: guests cut frames only at
// StreamRecorder.Flush boundaries, where the recorder guarantees the
// written bytes hold every event recorded so far. A complete frame
// therefore delivers a prefix of the guest's execution closed under
// timestamp order — the property the daemon's watermark merge is built on.
// A partial frame (connection died mid-write) is discarded whole; its
// connection's watermark stays at the last complete frame.
package daemon

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
)

// Wire constants. The hello magic is distinct from the trace-file magic so
// a trace file accidentally piped at the daemon fails immediately.
const (
	helloMagic   = "APRD"
	helloVersion = 1

	// maxNameLen bounds the tenant and process identifiers.
	maxNameLen = 256

	// maxFrame bounds one frame's payload. Guests flush far more often
	// than this; a larger length is a framing fault, not a big frame.
	maxFrame = 1 << 26

	// frameReadStep bounds how far readFrame grows its buffer ahead of the
	// bytes that have actually arrived.
	frameReadStep = 1 << 16
)

// hello identifies a guest connection: the tenant whose rolling profile the
// stream feeds, and a free-form process label for status surfaces.
type hello struct {
	Tenant  string
	Process string
}

// writeHello writes the connection preamble.
func writeHello(w io.Writer, h hello) error {
	if err := validName("tenant", h.Tenant); err != nil {
		return err
	}
	if err := validName("process", h.Process); err != nil {
		return err
	}
	buf := make([]byte, 0, len(helloMagic)+1+2*binary.MaxVarintLen64+len(h.Tenant)+len(h.Process))
	buf = append(buf, helloMagic...)
	buf = append(buf, helloVersion)
	buf = binary.AppendUvarint(buf, uint64(len(h.Tenant)))
	buf = append(buf, h.Tenant...)
	buf = binary.AppendUvarint(buf, uint64(len(h.Process)))
	buf = append(buf, h.Process...)
	_, err := w.Write(buf)
	return err
}

// readHello reads and validates the connection preamble.
func readHello(r *bufio.Reader) (hello, error) {
	var h hello
	head := make([]byte, len(helloMagic)+1)
	if _, err := io.ReadFull(r, head); err != nil {
		return h, fmt.Errorf("daemon: reading hello: %w", err)
	}
	if string(head[:len(helloMagic)]) != helloMagic {
		return h, fmt.Errorf("daemon: bad hello magic %q", head[:len(helloMagic)])
	}
	if v := head[len(helloMagic)]; v != helloVersion {
		return h, fmt.Errorf("daemon: unsupported protocol version %d (want %d)", v, helloVersion)
	}
	var err error
	if h.Tenant, err = readName(r, "tenant"); err != nil {
		return h, err
	}
	if h.Process, err = readName(r, "process"); err != nil {
		return h, err
	}
	return h, nil
}

func validName(what, s string) error {
	if s == "" {
		return fmt.Errorf("daemon: empty %s name", what)
	}
	if len(s) > maxNameLen {
		return fmt.Errorf("daemon: %s name exceeds %d bytes", what, maxNameLen)
	}
	return nil
}

// byteCounter counts the bytes a uvarint decode consumes.
type byteCounter struct {
	r *bufio.Reader
	n int
}

func (c *byteCounter) ReadByte() (byte, error) {
	c.n++
	return c.r.ReadByte()
}

// readName reads one length-prefixed name. The length must be a minimal
// uvarint, so an accepted hello re-encodes to exactly the bytes it came from.
func readName(r *bufio.Reader, what string) (string, error) {
	c := &byteCounter{r: r}
	n, err := binary.ReadUvarint(c)
	if err != nil {
		return "", fmt.Errorf("daemon: reading %s name: %w", what, err)
	}
	if c.n != len(binary.AppendUvarint(nil, n)) {
		return "", fmt.Errorf("daemon: non-minimal %s name length encoding", what)
	}
	if n == 0 || n > maxNameLen {
		return "", fmt.Errorf("daemon: implausible %s name length %d", what, n)
	}
	buf := make([]byte, n)
	if _, err := io.ReadFull(r, buf); err != nil {
		return "", fmt.Errorf("daemon: reading %s name: %w", what, err)
	}
	return string(buf), nil
}

// writeFrame writes one length-framed stream chunk. Empty payloads are
// skipped — the framing layer never produces zero-length frames.
func writeFrame(w io.Writer, payload []byte) error {
	if len(payload) == 0 {
		return nil
	}
	if len(payload) > maxFrame {
		return fmt.Errorf("daemon: frame of %d bytes exceeds the %d-byte bound", len(payload), maxFrame)
	}
	var head [4]byte
	binary.BigEndian.PutUint32(head[:], uint32(len(payload)))
	if _, err := w.Write(head[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readFrame reads one complete frame, reusing buf when it is large enough.
// io.EOF at a frame boundary is a clean end of input; any other truncation
// surfaces as io.ErrUnexpectedEOF. The length header is untrusted, so the
// buffer grows with the payload bytes that actually arrive, never to the
// claimed length up front.
func readFrame(r io.Reader, buf []byte) ([]byte, error) {
	var head [4]byte
	if _, err := io.ReadFull(r, head[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("daemon: truncated frame header: %w", err)
		}
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(head[:]))
	if n == 0 || n > maxFrame {
		return nil, fmt.Errorf("daemon: implausible frame length %d", n)
	}
	buf = buf[:0]
	for len(buf) < n {
		step := min(n-len(buf), frameReadStep)
		if cap(buf)-len(buf) < step {
			// Grow geometrically, so a large frame costs amortized O(1)
			// copies.
			buf = slices.Grow(buf, max(step, len(buf)))
		}
		m, err := io.ReadFull(r, buf[len(buf):len(buf)+step])
		buf = buf[:len(buf)+m]
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, fmt.Errorf("daemon: truncated frame: %w", err)
		}
	}
	return buf, nil
}
