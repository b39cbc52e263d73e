package trace

import (
	"bytes"
	"errors"
	"io"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/guest"
)

// failSyncs redirects the atomic-write path's fsync seams through inj for
// the duration of the test: file syncs charge one Tick each when failFile
// is set, directory syncs when failDir is set.
func failSyncs(t *testing.T, inj faultinject.Injector, failFile, failDir bool) {
	t.Helper()
	oldFile, oldDir := syncFile, syncDir
	t.Cleanup(func() { syncFile, syncDir = oldFile, oldDir })
	if failFile {
		syncFile = func(f *os.File) error {
			if err := inj.Tick(); err != nil {
				return err
			}
			return f.Sync()
		}
	}
	if failDir {
		syncDir = func(d *os.File) error {
			if err := inj.Tick(); err != nil {
				return err
			}
			return d.Sync()
		}
	}
}

// writeTrace writes tr to path as aprof-trace record writes a recording:
// a StreamRecorder writing into the temporary file of AtomicWrite.
func writeTrace(path string, tr *Trace) error {
	return AtomicWrite(path, func(w io.Writer) error {
		sr := NewStreamRecorder(w)
		if err := Replay(tr, 0, sr); err != nil {
			return err
		}
		return sr.Close()
	})
}

func smallTrace(t *testing.T) *Trace {
	t.Helper()
	tt := ThreadTrace{ID: guest.ThreadID(1)}
	ts := uint64(0)
	add := func(k Kind, arg, aux uint64) {
		ts++
		tt.Events = append(tt.Events, Event{TS: ts, Thread: tt.ID, Kind: k, Arg: arg, Aux: aux})
	}
	add(KindThreadStart, 0, 0)
	add(KindCall, 0, 0)
	add(KindWrite, 64, 0)
	add(KindRead, 64, 0)
	add(KindReturn, 0, 5)
	add(KindThreadExit, 0, 0)
	return &Trace{Routines: []string{"main"}, Threads: []ThreadTrace{tt}}
}

// TestWriteFileFailingSync: a failing file fsync must fail the recording,
// leave no file at the target, and leave no temp litter behind.
func TestWriteFileFailingSync(t *testing.T) {
	failSyncs(t, faultinject.After(0), true, false)
	dir := t.TempDir()
	target := filepath.Join(dir, "out.trace")
	if err := writeTrace(target, smallTrace(t)); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("writeTrace error = %v, want injected fault", err)
	}
	assertDirEmpty(t, dir)
}

// TestAtomicWriteFileFailingSync covers the same for the raw byte writer.
func TestAtomicWriteFileFailingSync(t *testing.T) {
	failSyncs(t, faultinject.After(0), true, false)
	dir := t.TempDir()
	target := filepath.Join(dir, "out.ckpt")
	if _, err := AtomicWriteFile(target, []byte("payload")); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("AtomicWriteFile error = %v, want injected fault", err)
	}
	assertDirEmpty(t, dir)
}

// TestAtomicWriteFileFailingDirSync: the write must also report a failure
// to make the rename durable — success may only be reported once the
// directory entry is on stable storage.
func TestAtomicWriteFileFailingDirSync(t *testing.T) {
	failSyncs(t, faultinject.After(0), false, true)
	dir := t.TempDir()
	target := filepath.Join(dir, "out.ckpt")
	if _, err := AtomicWriteFile(target, []byte("payload")); !errors.Is(err, faultinject.ErrInjected) {
		t.Fatalf("AtomicWriteFile error = %v, want injected dir-sync fault", err)
	}
}

// TestAtomicWriteFileReplaces: a successful atomic write replaces prior
// contents completely and syncs both levels exactly once.
func TestAtomicWriteFileReplaces(t *testing.T) {
	dir := t.TempDir()
	target := filepath.Join(dir, "out.ckpt")
	for _, payload := range [][]byte{[]byte("first version"), []byte("v2")} {
		n, err := AtomicWriteFile(target, payload)
		if err != nil {
			t.Fatal(err)
		}
		if n != int64(len(payload)) {
			t.Fatalf("wrote %d bytes, want %d", n, len(payload))
		}
		got, err := os.ReadFile(target)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("target holds %q, want %q", got, payload)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory has %d entries, want only the target", len(entries))
	}
}

// TestAtomicWriteFileMode: AtomicWriteFile and AtomicWrite give the target
// the mode os.Create gives a new file in the same directory (0666 less the
// umask), not the 0600 of os.CreateTemp.
func TestAtomicWriteFileMode(t *testing.T) {
	dir := t.TempDir()
	mode := func(path string) os.FileMode {
		t.Helper()
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		return st.Mode()
	}
	created := filepath.Join(dir, "created")
	f, err := os.Create(created)
	if err != nil {
		t.Fatal(err)
	}
	f.Close()
	raw, tr := filepath.Join(dir, "raw.ckpt"), filepath.Join(dir, "out.trace")
	if _, err := AtomicWriteFile(raw, []byte("payload")); err != nil {
		t.Fatal(err)
	}
	if err := writeTrace(tr, smallTrace(t)); err != nil {
		t.Fatal(err)
	}
	want := mode(created)
	for _, path := range []string{raw, tr} {
		if got := mode(path); got != want {
			t.Errorf("%s has mode %v, want %v as from os.Create", filepath.Base(path), got, want)
		}
	}
}

// TestWriteFileRoundTrip: a trace recorded through AtomicWrite reads back
// whole.
func TestWriteFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	target := filepath.Join(dir, "rt.trace")
	tr := smallTrace(t)
	if err := writeTrace(target, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(target)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumEvents() != tr.NumEvents() {
		t.Fatalf("round trip lost events: %d != %d", got.NumEvents(), tr.NumEvents())
	}
}

func assertDirEmpty(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("unexpected file left behind: %s", e.Name())
	}
}
