package daemon

import (
	"fmt"
	"net"

	"repro/internal/guest"
	"repro/internal/trace"
)

// Client is a guest-side connection to aprofd: a trace.StreamRecorder whose
// output is shipped to the daemon in flush-aligned frames. Use the recorder
// as a tool on a live run (Recorder), or replay an existing trace into it
// (Stream). Not safe for concurrent use.
type Client struct {
	conn   net.Conn
	buf    frameBuffer
	rec    *trace.StreamRecorder
	closed bool
	err    error
}

// frameBuffer accumulates recorder output between flushes.
type frameBuffer struct {
	b []byte
}

// Write implements io.Writer.
func (f *frameBuffer) Write(p []byte) (int, error) {
	f.b = append(f.b, p...)
	return len(p), nil
}

// Dial connects to a daemon at network/addr (e.g. "tcp", "127.0.0.1:9121"
// or "unix", "/run/aprofd.sock") and sends the hello identifying the guest.
// The client's recorder emits no stamp annotations ('A' blocks): the
// daemon's merge re-derives the interleaving itself and its stream decoder
// only validates and drops them, so annotating on the guest would be pure
// cost on this route.
func Dial(network, addr, tenant, process string) (*Client, error) {
	conn, err := net.Dial(network, addr)
	if err != nil {
		return nil, fmt.Errorf("daemon: dial %s %s: %w", network, addr, err)
	}
	if err := writeHello(conn, hello{Tenant: tenant, Process: process}); err != nil {
		conn.Close()
		return nil, err
	}
	c := &Client{conn: conn}
	c.rec = trace.NewStreamRecorder(&c.buf)
	c.rec.SetAnnotations(false)
	return c, nil
}

// Recorder returns the client's stream recorder, to be attached as a tool
// to a live guest run. Call Flush at the cadence rolling-profile updates
// are wanted, and Close when the run ends.
func (c *Client) Recorder() *trace.StreamRecorder { return c.rec }

// Flush flushes the recorder's buffered segments and ships everything
// accumulated since the last flush as one frame. The frame boundary is the
// daemon's watermark boundary: after this returns, every event recorded so
// far is on the wire.
func (c *Client) Flush() error {
	if c.err != nil {
		return c.err
	}
	c.rec.Flush()
	if err := c.rec.Err(); err != nil {
		c.err = err
		return err
	}
	if len(c.buf.b) == 0 {
		return nil
	}
	if err := writeFrame(c.conn, c.buf.b); err != nil {
		c.err = err
		return err
	}
	c.buf.b = c.buf.b[:0]
	return nil
}

// Close ends the stream cleanly: the recorder's footer is written, the
// final frame shipped, and the connection closed. The daemon treats the
// footer as this guest's promise that no further events exist.
func (c *Client) Close() error {
	if c.closed {
		return c.err
	}
	c.closed = true
	err := c.rec.Close()
	if err == nil {
		err = writeFrame(c.conn, c.buf.b)
		c.buf.b = c.buf.b[:0]
	}
	if cerr := c.conn.Close(); err == nil {
		err = cerr
	}
	if c.err == nil {
		c.err = err
	}
	return err
}

// Abort drops the connection without a footer — the crash case. The daemon
// freezes this guest's watermark at the last complete frame and degrades
// the tenant's rolling profile to that window.
func (c *Client) Abort() error {
	if c.closed {
		return nil
	}
	c.closed = true
	return c.conn.Close()
}

// streamEnv is the guest.Env of a trace replay into the recorder: the
// trace's name tables and the current event's timestamp as the clock.
type streamEnv struct {
	routines []string
	syncs    []string
	now      uint64
}

// RoutineName implements guest.Env.
func (e *streamEnv) RoutineName(r guest.RoutineID) string {
	if int(r) < len(e.routines) {
		return e.routines[r]
	}
	return fmt.Sprintf("routine#%d", int(r))
}

// SyncName implements guest.Env.
func (e *streamEnv) SyncName(s guest.SyncID) string {
	if int(s) < len(e.syncs) {
		return e.syncs[s]
	}
	return fmt.Sprintf("sync#%d", int(s))
}

// NumRoutines implements guest.Env.
func (e *streamEnv) NumRoutines() int { return len(e.routines) }

// NumSyncs implements guest.Env.
func (e *streamEnv) NumSyncs() int { return len(e.syncs) }

// Now implements guest.Env.
func (e *streamEnv) Now() uint64 { return e.now }

// Stream replays an already-recorded trace into the daemon: the trace's
// merged event order is dispatched through the recorder with a frame flush
// every flushEvery events (0 means one frame at Close). It does not Close —
// callers end with Close for a clean stream or Abort to simulate a crash.
func (c *Client) Stream(tr *trace.Trace, tieSeed int64, flushEvery int) error {
	env := &streamEnv{routines: tr.Routines, syncs: tr.Syncs}
	c.rec.Attach(env)
	merged := trace.Merge(tr, tieSeed)
	tools := []guest.Tool{c.rec}
	n := 0
	for i := range merged {
		env.now = merged[i].TS
		if err := trace.Dispatch(merged[i], tools); err != nil {
			return err
		}
		if merged[i].Kind == trace.KindSwitch {
			continue // synthesized; not a recorded event
		}
		n++
		if flushEvery > 0 && n%flushEvery == 0 {
			if err := c.Flush(); err != nil {
				return err
			}
		}
	}
	return c.Flush()
}
