package chaos

import (
	"errors"
	"fmt"
	"os"
	"sync"
)

// This file extends the injector family to the filesystem: FS is the
// seam the surrogate registry does all its mutating I/O through, OSFS is
// the real thing, and FaultFS is the crash simulator — it fails the n-th
// filesystem operation (torn writes included) and then fails everything
// after it, which is exactly what a process that died at that instant
// would have left on disk. The registry crash-consistency test walks the
// fail point across every operation of a publish and asserts recovery.

// ErrInjectedFault marks the operation a FaultFS was armed to fail.
var ErrInjectedFault = errors.New("chaos: injected fs fault")

// ErrCrashed marks operations attempted after the injected fault: the
// simulated process is dead, nothing else reaches the disk.
var ErrCrashed = errors.New("chaos: fs crashed")

// File is the mutable-file surface the registry needs: stream writes,
// durability, close.
type File interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

// FS abstracts the filesystem operations behind atomic publish. Methods
// mirror the os package; SyncDir is the directory-fsync that makes a
// rename durable.
type FS interface {
	MkdirAll(path string, perm os.FileMode) error
	Create(path string) (File, error)
	Rename(oldpath, newpath string) error
	Remove(path string) error
	ReadFile(path string) ([]byte, error)
	// ReadDir returns the names (not paths) of the directory's entries.
	ReadDir(path string) ([]string, error)
	SyncDir(path string) error
}

// OSFS is the real filesystem.
type OSFS struct{}

func (OSFS) MkdirAll(path string, perm os.FileMode) error { return os.MkdirAll(path, perm) }

func (OSFS) Create(path string) (File, error) { return os.Create(path) }

func (OSFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (OSFS) Remove(path string) error { return os.Remove(path) }

func (OSFS) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }

func (OSFS) ReadDir(path string) ([]string, error) {
	ents, err := os.ReadDir(path)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(ents))
	for i, e := range ents {
		names[i] = e.Name()
	}
	return names, nil
}

func (OSFS) SyncDir(path string) error {
	d, err := os.Open(path)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// tornFraction is how much of a failing write's buffer still reaches the
// disk.
const tornFraction = 0.5

// FaultFS wraps an FS with deterministic crash injection. Arm(n) makes
// the n-th subsequent operation (1-based) fail with ErrInjectedFault —
// a Write fails torn, committing tornFraction of the buffer first — and
// every mutating operation after that fails with ErrCrashed, emulating
// the process dying at that exact point. Reads can instead be truncated
// with SetShortRead to model a torn read of an otherwise-durable file.
// All methods are safe for concurrent use.
type FaultFS struct {
	mu     sync.Mutex
	inner  FS
	ops    int     // operations observed since the last Arm/Disarm
	failAt int     // 1-based op index to fail, 0 = disarmed
	short  float64 // >0: ReadFile returns only this fraction, no error
	crash  bool
	faults int64
}

// NewFaultFS wraps inner (nil = the real filesystem) with a disarmed
// injector.
func NewFaultFS(inner FS) *FaultFS {
	if inner == nil {
		inner = OSFS{}
	}
	return &FaultFS{inner: inner}
}

// Arm schedules the n-th subsequent operation (1-based) to fail and
// resets the operation counter and crash state.
func (f *FaultFS) Arm(n int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.ops = 0
	f.failAt = n
	f.crash = false
}

// Disarm clears the fail point and crash state; the op counter restarts.
func (f *FaultFS) Disarm() { f.Arm(0) }

// SetShortRead makes every ReadFile return only the leading frac of the
// file without an error — the torn-read fault only checksums catch.
// frac <= 0 or >= 1 disables it.
func (f *FaultFS) SetShortRead(frac float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.short = frac
}

// Ops reports operations observed since the last Arm/Disarm — the count
// a crash-consistency test sweeps its fail point across.
func (f *FaultFS) Ops() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ops
}

// Faults reports injected faults since construction.
func (f *FaultFS) Faults() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.faults
}

// Crashed reports whether the fail point has fired.
func (f *FaultFS) Crashed() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.crash
}

// step accounts one operation and decides its fate.
func (f *FaultFS) step() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crash {
		return ErrCrashed
	}
	f.ops++
	if f.failAt > 0 && f.ops == f.failAt {
		f.crash = true
		f.faults++
		return ErrInjectedFault
	}
	return nil
}

func (f *FaultFS) MkdirAll(path string, perm os.FileMode) error {
	if err := f.step(); err != nil {
		return fmt.Errorf("mkdir %s: %w", path, err)
	}
	return f.inner.MkdirAll(path, perm)
}

func (f *FaultFS) Create(path string) (File, error) {
	if err := f.step(); err != nil {
		return nil, fmt.Errorf("create %s: %w", path, err)
	}
	file, err := f.inner.Create(path)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, f: file, path: path}, nil
}

func (f *FaultFS) Rename(oldpath, newpath string) error {
	if err := f.step(); err != nil {
		return fmt.Errorf("rename %s: %w", oldpath, err)
	}
	return f.inner.Rename(oldpath, newpath)
}

func (f *FaultFS) Remove(path string) error {
	if err := f.step(); err != nil {
		return fmt.Errorf("remove %s: %w", path, err)
	}
	return f.inner.Remove(path)
}

func (f *FaultFS) ReadFile(path string) ([]byte, error) {
	if err := f.step(); err != nil {
		return nil, fmt.Errorf("read %s: %w", path, err)
	}
	data, err := f.inner.ReadFile(path)
	if err != nil {
		return nil, err
	}
	f.mu.Lock()
	short := f.short
	f.mu.Unlock()
	if short > 0 && short < 1 {
		data = data[:int(float64(len(data))*short)]
	}
	return data, nil
}

func (f *FaultFS) ReadDir(path string) ([]string, error) {
	if err := f.step(); err != nil {
		return nil, fmt.Errorf("readdir %s: %w", path, err)
	}
	return f.inner.ReadDir(path)
}

func (f *FaultFS) SyncDir(path string) error {
	if err := f.step(); err != nil {
		return fmt.Errorf("syncdir %s: %w", path, err)
	}
	return f.inner.SyncDir(path)
}

// faultFile threads every file operation back through the injector's
// op ladder, with torn-write semantics on the armed fault.
type faultFile struct {
	fs   *FaultFS
	f    File
	path string
}

func (w *faultFile) Write(p []byte) (int, error) {
	if err := w.fs.step(); err != nil {
		if errors.Is(err, ErrInjectedFault) {
			// The torn write: a prefix reached the page cache before the
			// crash. The file is left with partial content and no error
			// ever told the writer how much.
			n := int(float64(len(p)) * tornFraction)
			if n > 0 {
				w.f.Write(p[:n])
			}
			return n, fmt.Errorf("write %s: %w", w.path, err)
		}
		return 0, fmt.Errorf("write %s: %w", w.path, err)
	}
	return w.f.Write(p)
}

func (w *faultFile) Sync() error {
	if err := w.fs.step(); err != nil {
		return fmt.Errorf("sync %s: %w", w.path, err)
	}
	return w.f.Sync()
}

func (w *faultFile) Close() error {
	// Close always reaches the real file (a dying process's descriptors
	// close too), but a crashed injector still reports the error so the
	// caller's cleanup path is exercised.
	err := w.fs.step()
	if cerr := w.f.Close(); err == nil {
		return cerr
	}
	return fmt.Errorf("close %s: %w", w.path, err)
}
