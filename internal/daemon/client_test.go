package daemon

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"testing"

	"repro/internal/guest"
	"repro/internal/trace"
	"repro/internal/workloads"
)

// streamEnv is the guest.Env of a test that drives a client's recorder
// event by event: name tables and the current event's timestamp.
type streamEnv struct {
	routines []string
	syncs    []string
	now      uint64
}

func (e *streamEnv) RoutineName(r guest.RoutineID) string {
	if int(r) < len(e.routines) {
		return e.routines[r]
	}
	return fmt.Sprintf("routine#%d", int(r))
}

func (e *streamEnv) SyncName(s guest.SyncID) string {
	if int(s) < len(e.syncs) {
		return e.syncs[s]
	}
	return fmt.Sprintf("sync#%d", int(s))
}

func (e *streamEnv) NumRoutines() int { return len(e.routines) }
func (e *streamEnv) NumSyncs() int    { return len(e.syncs) }
func (e *streamEnv) Now() uint64      { return e.now }

// pipeBytes runs drive on a client whose connection is one end of a
// net.Pipe and returns every byte the client wrote to it.
func pipeBytes(t *testing.T, drive func(*Client) error) []byte {
	t.Helper()
	client, server := net.Pipe()
	got := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(server)
		got <- b
	}()
	err := drive(newClient(client))
	client.Close() // ends the reader if drive failed before Close
	b := <-got
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestStreamMatchesPerEventDispatch: Client.Stream, which feeds a trace's
// merged order run by run, sends the bytes that dispatching the merged
// order one event at a time into the client's recorder sends, with a
// Flush after every flushEvery recorded events, frame boundaries included.
func TestStreamMatchesPerEventDispatch(t *testing.T) {
	rec := trace.NewRecorder()
	if _, err := workloads.RunByName("mysqld", workloads.Params{Threads: 4, Size: 12}, rec); err != nil {
		t.Fatal(err)
	}
	tr := rec.Trace()
	shards := []*trace.Trace{{Routines: tr.Routines, Syncs: tr.Syncs}, {Routines: tr.Routines, Syncs: tr.Syncs}}
	for i, th := range tr.Threads {
		shards[i%2].Threads = append(shards[i%2].Threads, th)
	}
	for si, sh := range shards {
		for _, flushEvery := range []int{1, 16, 4096} {
			want := pipeBytes(t, func(c *Client) error {
				env := &streamEnv{routines: sh.Routines, syncs: sh.Syncs}
				c.Recorder().Attach(env)
				tools := []guest.Tool{c.Recorder()}
				n := 0
				for _, e := range trace.Merge(sh, 1) {
					env.now = e.TS
					if err := trace.Dispatch(e, tools); err != nil {
						return err
					}
					if e.Kind == trace.KindSwitch {
						continue
					}
					if n++; n%flushEvery == 0 {
						if err := c.Flush(); err != nil {
							return err
						}
					}
				}
				if err := c.Flush(); err != nil {
					return err
				}
				return c.Close()
			})
			got := pipeBytes(t, func(c *Client) error {
				if err := c.Stream(sh, 1, flushEvery); err != nil {
					return err
				}
				return c.Close()
			})
			if !bytes.Equal(got, want) {
				t.Errorf("shard %d, flushEvery %d: Stream sent %d bytes, per-event dispatch %d, and they differ", si, flushEvery, len(got), len(want))
			}
		}
	}
}
