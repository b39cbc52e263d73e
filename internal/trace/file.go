package trace

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strconv"
)

// syncFile and syncDir are the durability syscalls behind the atomic write
// path, declared as variables so the fault-injection tests can make fsync
// fail deterministically (a failure mode a real test cannot provoke).
var (
	syncFile = func(f *os.File) error { return f.Sync() }
	syncDir  = func(d *os.File) error { return d.Sync() }
)

// AtomicWriteFile writes data to path durably and atomically; see
// AtomicWrite. It returns the number of bytes written.
func AtomicWriteFile(path string, data []byte) (int64, error) {
	err := AtomicWrite(path, func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	})
	if err != nil {
		return 0, err
	}
	return int64(len(data)), nil
}

// AtomicWrite runs write against a new temporary file beside path and
// commits what it wrote durably and atomically: the file is fsynced and
// closed, renamed over path, and the parent directory is fsynced so the
// rename itself — not just the data — survives power loss. Readers see
// either the old contents or the complete new contents, never a mix, and a
// nil return means the new contents are on stable storage. When write
// fails, the temporary file is removed and path is left as it was; a
// process killed inside write leaves the temporary file (path + ".tmp" and
// a random suffix) behind. The file gets mode 0666 less the umask, as with
// os.Create.
func AtomicWrite(path string, write func(io.Writer) error) error {
	f, err := createTemp(path)
	if err != nil {
		return err
	}
	tmp := f.Name()
	cleanup := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := write(f); err != nil {
		return cleanup(fmt.Errorf("trace: writing %s: %w", path, err))
	}
	if err := syncFile(f); err != nil {
		return cleanup(fmt.Errorf("trace: syncing %s: %w", tmp, err))
	}
	if err := f.Close(); err != nil {
		return cleanup(fmt.Errorf("trace: closing %s: %w", tmp, err))
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	// Commit the rename: without fsyncing the parent directory the new
	// directory entry may still be lost to a crash, leaving the old file
	// in place after a "successful" write.
	return fsyncParent(path)
}

// createTemp creates a new file named path + ".tmp" and a random suffix.
// Unlike os.CreateTemp, which fixes the mode at 0600, it asks for 0666 and
// lets the umask apply.
func createTemp(path string) (*os.File, error) {
	for try := 0; ; try++ {
		name := path + ".tmp" + strconv.FormatUint(uint64(rand.Uint32()), 10)
		f, err := os.OpenFile(name, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o666)
		if errors.Is(err, fs.ErrExist) && try < 10000 {
			continue
		}
		return f, err
	}
}

// fsyncParent fsyncs the directory containing path, making a just-renamed
// entry durable.
func fsyncParent(path string) error {
	dir := filepath.Dir(path)
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("trace: opening %s to sync: %w", dir, err)
	}
	defer d.Close()
	if err := syncDir(d); err != nil {
		return fmt.Errorf("trace: syncing directory %s: %w", dir, err)
	}
	return nil
}

// ReadFile strictly decodes the trace stored at path.
func ReadFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Decode(f)
}

// RecoverFile salvages what it can from the (possibly damaged) trace stored
// at path; see Recover.
func RecoverFile(path string) (*Trace, *RecoveryReport, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return Recover(f)
}

// VerifyFile runs a checksum walk over the trace stored at path; see Verify.
func VerifyFile(path string) (*VerifyReport, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Verify(f)
}
