// Command aprofd is the continuous-profiling daemon: it accepts
// trace-segment streams from concurrently running guest processes, shards
// incremental analysis per tenant, and maintains a rolling merged profile
// per tenant that is byte-identical to a one-shot batch analysis of the
// same events (see internal/daemon and docs/ARCHITECTURE.md).
//
// Usage:
//
//	aprofd [-listen tcp:127.0.0.1:9121 | -listen unix:/run/aprofd.sock]
//	       [-checkpoint-dir dir] [-http :9120] [-telemetry[=file.json]]
//
// Guests connect with the internal/daemon client, identify a tenant and a
// process label, and ship recorder output in flush-aligned frames. The
// observability plane (-http, see docs/OBSERVABILITY.md) serves each
// tenant's live rolling profile at /profile?tenant=NAME, its ingest
// progress at /progress?tenant=NAME, and a status summary of all tenants
// at /tenants.json.
//
// With -checkpoint-dir, every tenant's rolling profile is checkpointed
// atomically at each window cut and restored on restart, so the merged
// aggregate survives daemon crashes. SIGINT/SIGTERM shut down gracefully:
// in-flight connections are drained and final checkpoints written.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"repro/internal/daemon"
	"repro/internal/profflag"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "aprofd:", err)
		os.Exit(1)
	}
}

// parseListen splits a -listen value into (network, address). A "tcp:" or
// "unix:" prefix selects the network; a bare value is a TCP host:port.
func parseListen(s string) (network, addr string, err error) {
	switch {
	case strings.HasPrefix(s, "tcp:"):
		return "tcp", s[len("tcp:"):], nil
	case strings.HasPrefix(s, "unix:"):
		return "unix", s[len("unix:"):], nil
	case strings.Contains(s, ":"):
		return "tcp", s, nil
	default:
		return "", "", fmt.Errorf("-listen %q: want tcp:host:port, unix:/path, or host:port", s)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("aprofd", flag.ExitOnError)
	listen := fs.String("listen", "tcp:127.0.0.1:9121", "guest stream endpoint (tcp:host:port or unix:/path)")
	ckptDir := fs.String("checkpoint-dir", "", "checkpoint each tenant's rolling profile under this `dir`")
	prof := profflag.Register(fs)
	if err := profflag.FlagsOnly(fs, args); err != nil {
		return err
	}
	network, addr, err := parseListen(*listen)
	if err != nil {
		return err
	}
	if err := prof.Start(); err != nil {
		return err
	}
	d, err := daemon.Start(daemon.Options{
		Network:       network,
		Addr:          addr,
		CheckpointDir: *ckptDir,
		Registry:      prof.Registry(),
		Log:           os.Stderr,
	})
	if err != nil {
		prof.Stop()
		return err
	}
	d.WireObs(prof.ObsServer())
	// Printed only after the obs endpoints are wired, so anything that
	// parses this line may immediately hit /tenants.json and friends.
	fmt.Fprintf(os.Stderr, "aprofd: listening on %s://%s\n", network, d.Addr())

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	<-sig
	fmt.Fprintln(os.Stderr, "aprofd: shutting down")
	err = d.Close()
	if serr := prof.Stop(); err == nil {
		err = serr
	}
	return err
}
