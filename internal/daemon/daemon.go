// Package daemon is aprofd's engine: a long-running server that accepts
// concurrent trace-segment streams from many guest processes, shards
// incremental analysis per tenant, and maintains a rolling merged profile
// per tenant that is byte-identical to a batch analysis of the same events.
//
// The merge is watermark-driven. Guests frame their stream at
// trace.StreamRecorder.Flush boundaries, so a complete frame delivers
// every event the guest recorded up to the frame's maximum timestamp; that
// maximum is the connection's watermark. The tenant feeds its analyzer
// (core.Incremental) exactly the events at or below the minimum watermark
// across its connections — the largest prefix of the merged order known to
// be complete — cuts a window per frontier advance, and folds the window's
// PartialProfile into the rolling profile. A connection that dies without
// a footer freezes its watermark at its last complete frame: the rolling
// profile degrades to that frontier, never ingesting a torn suffix.
//
// Tenants persist across daemon restarts through per-tenant checkpoints
// (the rolling profile plus its window accounting) and serve live state
// through the shared observability plane: /profile?tenant= and
// /progress?tenant= via internal/obs resolvers, /tenants.json via
// Daemon.WireObs.
package daemon

import (
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// Options configures Start.
type Options struct {
	// Network and Addr are the listen endpoint: "tcp" with a host:port, or
	// "unix" with a socket path. Network defaults to "tcp", Addr to
	// "127.0.0.1:0".
	Network string
	Addr    string

	// CheckpointDir, when non-empty, enables per-tenant checkpoints:
	// <dir>/<tenant>.aprofdck, written at every window cut (each one an
	// export of the rolling profile) and restored when a tenant first
	// appears after a restart.
	CheckpointDir string

	// Registry receives the daemon's telemetry: daemon/* counters and
	// the self-timing histograms (see timing). May be nil, which also
	// turns the timing off.
	Registry *telemetry.Registry

	// Profile configures each tenant's analyzer (core.New options).
	Profile core.Options

	// Log, when non-nil, receives per-connection error reports.
	Log io.Writer
}

// Daemon is a running continuous-profiling daemon. Create with Start; stop
// with Close.
type Daemon struct {
	opts Options
	ln   net.Listener
	tm   timing

	mu      sync.Mutex
	tenants map[string]*Tenant
	closed  bool

	connSeq atomic.Uint64
	wg      sync.WaitGroup
}

// Start binds the listen endpoint and begins accepting guest streams in
// background goroutines. It returns once the listener is bound.
func Start(opts Options) (*Daemon, error) {
	if opts.Network == "" {
		opts.Network = "tcp"
	}
	if opts.Addr == "" {
		if opts.Network != "tcp" {
			return nil, fmt.Errorf("daemon: %s listener needs an explicit address", opts.Network)
		}
		opts.Addr = "127.0.0.1:0"
	}
	if opts.CheckpointDir != "" {
		if err := os.MkdirAll(opts.CheckpointDir, 0o777); err != nil {
			return nil, fmt.Errorf("daemon: checkpoint dir: %w", err)
		}
	}
	ln, err := net.Listen(opts.Network, opts.Addr)
	if err != nil {
		return nil, fmt.Errorf("daemon: listen %s %s: %w", opts.Network, opts.Addr, err)
	}
	reg := opts.Registry
	d := &Daemon{opts: opts, ln: ln, tenants: make(map[string]*Tenant), tm: timing{
		decode:   reg.Histogram("daemon/decode_ns"),
		feed:     reg.Histogram("daemon/feed_ns"),
		cut:      reg.Histogram("daemon/cut_ns"),
		flush:    reg.Histogram("daemon/flush_ns"),
		lockWait: reg.Histogram("daemon/lock_wait_ns"),
	}}
	d.wg.Add(1)
	go d.acceptLoop()
	return d, nil
}

// Addr returns the bound listen address (resolving ":0" to the chosen
// port, or the unix socket path).
func (d *Daemon) Addr() string { return d.ln.Addr().String() }

// Close stops accepting, waits for in-flight connection handlers, then
// runs every tenant's final publish and checkpoint.
func (d *Daemon) Close() error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return nil
	}
	d.closed = true
	d.mu.Unlock()
	err := d.ln.Close()
	d.wg.Wait()
	for _, t := range d.tenantList() {
		t.close()
	}
	return err
}

func (d *Daemon) acceptLoop() {
	defer d.wg.Done()
	for {
		conn, err := d.ln.Accept()
		if err != nil {
			return // listener closed
		}
		d.wg.Add(1)
		go func() {
			defer d.wg.Done()
			d.serveConn(conn)
		}()
	}
}

// serveConn ingests one guest stream: hello, then complete frames fed to a
// per-connection stream decoder and committed to the tenant. Any fault —
// torn frame, decode error, table mismatch, late events — kills the
// connection and freezes its watermark at the last committed frame.
func (d *Daemon) serveConn(conn net.Conn) {
	defer conn.Close()
	br := bufioReader(conn)
	h, err := readHello(br)
	if err != nil {
		d.logf("aprofd: %s: %v", conn.RemoteAddr(), err)
		return
	}
	t := d.Tenant(h.Tenant)
	c := t.connect(d.connSeq.Add(1), h.Process)
	dec := trace.NewStreamDecoder()
	var frame []byte
	for {
		frame, err = readFrame(br, frame)
		if err != nil {
			if errors.Is(err, io.EOF) {
				if dec.Ended() {
					t.complete(c)
				} else {
					// Clean TCP close, but no footer: the stream itself is
					// incomplete — treat it as a crash.
					t.fail(c)
				}
				return
			}
			t.fail(c)
			d.logf("aprofd: %s %s/%s: %v", conn.RemoteAddr(), h.Tenant, h.Process, err)
			return
		}
		t0 := d.tm.start()
		delta, err := dec.Feed(frame)
		observe(d.tm.decode, t0)
		if err != nil {
			// The frame is block-aligned, so a decode fault means the
			// stream corrupted in flight; nothing of this frame commits.
			t.fail(c)
			d.logf("aprofd: %s %s/%s: %v", conn.RemoteAddr(), h.Tenant, h.Process, err)
			return
		}
		if err := t.deliver(c, delta); err != nil {
			d.logf("aprofd: %s %s/%s: %v", conn.RemoteAddr(), h.Tenant, h.Process, err)
			return
		}
	}
}

// Tenant returns the named tenant, creating (and checkpoint-restoring) it
// on first use.
func (d *Daemon) Tenant(name string) *Tenant {
	d.mu.Lock()
	defer d.mu.Unlock()
	t := d.tenants[name]
	if t == nil {
		t = newTenant(d, name)
		d.tenants[name] = t
		d.reg().Gauge("daemon/tenants").Set(int64(len(d.tenants)))
	}
	return t
}

// Lookup returns the named tenant, or nil if it has never been seen.
func (d *Daemon) Lookup(name string) *Tenant {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.tenants[name]
}

// Tenants returns every known tenant's status, sorted by name.
func (d *Daemon) Tenants() []Status {
	list := d.tenantList()
	out := make([]Status, 0, len(list))
	for _, t := range list {
		out = append(out, t.Status())
	}
	return out
}

func (d *Daemon) tenantList() []*Tenant {
	d.mu.Lock()
	defer d.mu.Unlock()
	list := make([]*Tenant, 0, len(d.tenants))
	for _, t := range d.tenants {
		list = append(list, t)
	}
	sort.Slice(list, func(i, j int) bool { return list[i].name < list[j].name })
	return list
}

func (d *Daemon) reg() *telemetry.Registry { return d.opts.Registry }

// timing holds the daemon's self-timing histograms (daemon/*_ns, see
// docs/OBSERVABILITY.md). Without a registry every handle is nil and start
// returns the zero time, so no clock is read.
type timing struct {
	decode, feed, cut, flush, lockWait *telemetry.Histogram
}

// start returns the current time, or the zero time when timing is off.
func (tm *timing) start() time.Time {
	if tm.decode == nil {
		return time.Time{}
	}
	return time.Now()
}

// observe records the time since t0 in h; a zero t0 records nothing.
func observe(h *telemetry.Histogram, t0 time.Time) {
	if !t0.IsZero() {
		h.Observe(uint64(time.Since(t0)))
	}
}

// profOpts returns the per-tenant analyzer options. Telemetry flows into
// the daemon's registry so /metrics aggregates core counters across
// tenants.
func (d *Daemon) profOpts() core.Options {
	opts := d.opts.Profile
	if opts.Telemetry == nil {
		opts.Telemetry = d.opts.Registry
	}
	return opts
}

// checkpointPath returns the tenant's checkpoint file, or "" when
// checkpointing is disabled.
func (d *Daemon) checkpointPath(tenant string) string {
	if d.opts.CheckpointDir == "" {
		return ""
	}
	return filepath.Join(d.opts.CheckpointDir, sanitizeName(tenant)+checkpointExt)
}

// sanitizeName maps a tenant name to a safe file stem.
func sanitizeName(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
			return r
		default:
			return '_'
		}
	}, s)
}

func (d *Daemon) logf(format string, args ...any) {
	if d.opts.Log != nil {
		fmt.Fprintf(d.opts.Log, format+"\n", args...)
	}
}
