package daemon_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/daemon"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// TestDaemonSmoke is the end-to-end gate for the continuous-profiling
// daemon: it builds cmd/aprofd and cmd/aprof-trace, starts a real aprofd
// process with -http, streams a recorded mysqld workload into it as two
// concurrent guest connections (disjoint thread shards of one execution),
// waits for the tenant's complete phase on /progress, scrapes the rolling
// profile from /profile?tenant=, and requires it byte-identical to a
// one-shot `aprof-trace analyze -export` of the combined trace. Gated
// behind APROF_DAEMON_SMOKE=1 because it builds two binaries and runs a
// real workload; verify.sh runs it.
func TestDaemonSmoke(t *testing.T) {
	if os.Getenv("APROF_DAEMON_SMOKE") == "" {
		t.Skip("set APROF_DAEMON_SMOKE=1 to run the subprocess smoke test")
	}
	dir := t.TempDir()
	aprofd := filepath.Join(dir, "aprofd")
	aproftrace := filepath.Join(dir, "aprof-trace")
	for bin, pkg := range map[string]string{aprofd: "./cmd/aprofd", aproftrace: "./cmd/aprof-trace"} {
		build := exec.Command("go", "build", "-o", bin, pkg)
		build.Dir = "../.."
		if out, err := build.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", pkg, err, out)
		}
	}

	// One recorded mysqld execution, split into two per-connection shards.
	rec := trace.NewRecorder()
	tracePath := filepath.Join(dir, "run.trace")
	err := trace.AtomicWrite(tracePath, func(w io.Writer) error {
		sr := trace.NewStreamRecorder(w)
		if _, err := workloads.RunByName("mysqld", workloads.Params{Threads: 6, Size: 96}, rec, sr); err != nil {
			return err
		}
		return sr.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	tr := rec.Trace()
	shards := make([]*trace.Trace, 2)
	for i := range shards {
		shards[i] = &trace.Trace{Routines: tr.Routines, Syncs: tr.Syncs}
	}
	for i := range tr.Threads {
		s := shards[i%2]
		s.Threads = append(s.Threads, trace.ThreadTrace{ID: tr.Threads[i].ID, Events: tr.Threads[i].Events})
	}

	cmd := exec.Command(aprofd, "-listen", "tcp:127.0.0.1:0", "-http", "127.0.0.1:0")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer cmd.Process.Kill()
	httpBase, streamAddr, err := daemonAddrs(stderr)
	if err != nil {
		t.Fatalf("parsing aprofd listen lines: %v", err)
	}
	t.Logf("aprofd: http %s, stream %s", httpBase, streamAddr)
	client := &http.Client{Timeout: 15 * time.Second}

	// Connect both guests, and wait until the daemon has registered both
	// hellos before either streams: a connection's watermark starts at
	// zero, so the merge frontier cannot run past an unregistered peer.
	clients := make([]*daemon.Client, 2)
	for i := range clients {
		if clients[i], err = daemon.Dial("tcp", streamAddr, "smoke", fmt.Sprintf("mysqld-%d", i)); err != nil {
			t.Fatal(err)
		}
		defer clients[i].Abort()
	}
	waitForSmoke(t, func() bool {
		var statuses []daemon.Status
		if err := json.Unmarshal(tryGetSmoke(client, httpBase+"/tenants.json"), &statuses); err != nil {
			return false
		}
		return len(statuses) == 1 && len(statuses[0].Connections) == 2
	}, "both guest connections registered")

	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := range clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if err := clients[i].Stream(shards[i], 1, 4096); err != nil {
				errs[i] = err
				return
			}
			errs[i] = clients[i].Close()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("guest %d: %v", i, err)
		}
	}
	waitForSmoke(t, func() bool {
		return bytes.Contains(tryGetSmoke(client, httpBase+"/progress?tenant=smoke&once=1"),
			[]byte(`"phase":"complete"`))
	}, "tenant complete phase")

	var doc struct {
		Degraded bool            `json:"degraded"`
		Events   uint64          `json:"events"`
		Profile  json.RawMessage `json:"profile"`
	}
	if err := json.Unmarshal(mustGetSmoke(t, client, httpBase+"/profile?tenant=smoke"), &doc); err != nil {
		t.Fatalf("/profile document does not parse: %v", err)
	}
	if doc.Degraded {
		t.Fatal("clean two-guest run reported degraded")
	}
	if doc.Events != uint64(tr.NumEvents()) {
		t.Errorf("daemon fed %d events, trace has %d", doc.Events, tr.NumEvents())
	}

	// Ground truth: the one-shot pipeline analysis of the combined trace.
	exportPath := filepath.Join(dir, "batch.json")
	oneshot := exec.Command(aproftrace, "analyze", "-progress=false", "-export", exportPath, tracePath)
	var oneshotErr bytes.Buffer
	oneshot.Stdout = io.Discard
	oneshot.Stderr = &oneshotErr
	if err := oneshot.Run(); err != nil {
		t.Fatalf("one-shot analyze: %v\n%s", err, oneshotErr.Bytes())
	}
	want, err := os.ReadFile(exportPath)
	if err != nil {
		t.Fatal(err)
	}
	got := append(append([]byte(nil), doc.Profile...), '\n')
	if !bytes.Equal(got, want) {
		t.Fatalf("daemon rolling profile differs from one-shot analyze (%d vs %d bytes)", len(got), len(want))
	}
	t.Logf("rolling profile byte-identical to one-shot analyze (%d bytes, %d events)", len(want), doc.Events)

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Errorf("aprofd did not shut down cleanly: %v", err)
	}
}

// daemonAddrs scans aprofd's stderr for the obs and stream listen lines;
// remaining stderr is drained in the background.
func daemonAddrs(stderr io.Reader) (httpBase, streamAddr string, err error) {
	sc := bufio.NewScanner(stderr)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "obs: listening on "); ok {
			httpBase = strings.TrimSpace(rest)
		}
		if rest, ok := strings.CutPrefix(line, "aprofd: listening on tcp://"); ok {
			streamAddr = strings.TrimSpace(rest)
		}
		if httpBase != "" && streamAddr != "" {
			go io.Copy(io.Discard, stderr)
			return httpBase, streamAddr, nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", "", err
	}
	return "", "", fmt.Errorf("stderr closed before both listen lines appeared")
}

func waitForSmoke(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// tryGetSmoke fetches url, returning nil on any error or non-200 —
// poll-loop food, where a transient failure just means "not yet".
func tryGetSmoke(client *http.Client, url string) []byte {
	resp, err := client.Get(url)
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		return nil
	}
	return body
}

func mustGetSmoke(t *testing.T, client *http.Client, url string) []byte {
	t.Helper()
	resp, err := client.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d\n%s", url, resp.StatusCode, body)
	}
	return body
}
