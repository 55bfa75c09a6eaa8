// Package durable is the storage-durability layer underneath the
// persistence surfaces of the repository: the sweep result cache
// (internal/sweep), forensic bundles
// (internal/invariant), and bgpd's job write-ahead log (internal/serve).
//
// It contributes three things:
//
//   - FS, a small filesystem interface every durable write goes through.
//     Production code uses OS(); fault tests use a FaultFS whose failure
//     schedule (ENOSPC, EIO, torn writes, crash-point panics) is scripted
//     by op sequence and replayable by seed, so the exact code paths that
//     run in production are the ones exercised under injected faults.
//   - Log, the one append-only record file: a line codec plus
//     fsync-every-append gives bgpd's job WAL (accepted jobs are durable
//     before admission returns, and a killed daemon replays the log on
//     restart). Torn or corrupt lines are counted and dropped on open,
//     and never cost a later record.
//   - WriteFileAtomic, the shared temp-file + fsync + rename discipline
//     that keeps cache objects and forensic bundles free of torn files.
//
// The package sits in detlint's "harness" scope: no wall clock, no
// global rand (fault schedules derive from des.RNG named streams), no
// map-order dependence, no float equality.
package durable

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

// File is the writable-file surface durable writes need: sequential
// writes, fsync, close. It is deliberately smaller than *os.File so the
// fault injector can interpose on exactly the operations that matter.
type File interface {
	io.Writer
	// Name returns the path the file was opened or created with.
	Name() string
	// Sync flushes the file's contents to stable storage (fsync).
	Sync() error
	Close() error
}

// FS is the filesystem surface of the durability layer. Every write a
// crash could tear — cache objects, forensic bundles, the job WAL —
// routes through an FS, so the fault-injecting implementation
// covers the real production code paths, not test doubles.
type FS interface {
	// OpenFile opens name with the given flag and permissions (os.O_*).
	OpenFile(name string, flag int, perm fs.FileMode) (File, error)
	// CreateTemp creates a new temporary file in dir (see os.CreateTemp).
	CreateTemp(dir, pattern string) (File, error)
	// Rename atomically replaces newpath with oldpath.
	Rename(oldpath, newpath string) error
	// Remove deletes a file.
	Remove(name string) error
	// MkdirAll creates a directory and any missing parents.
	MkdirAll(path string, perm fs.FileMode) error
	// ReadFile returns the contents of name.
	ReadFile(name string) ([]byte, error)
	// ReadDir lists a directory in filename order.
	ReadDir(name string) ([]fs.DirEntry, error)
}

// osFS is the production FS: a thin veneer over the os package.
type osFS struct{}

// OS returns the production filesystem.
func OS() FS { return osFS{} }

func (osFS) OpenFile(name string, flag int, perm fs.FileMode) (File, error) {
	return os.OpenFile(name, flag, perm)
}

func (osFS) CreateTemp(dir, pattern string) (File, error) {
	return os.CreateTemp(dir, pattern)
}

func (osFS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

func (osFS) Remove(name string) error { return os.Remove(name) }

func (osFS) MkdirAll(path string, perm fs.FileMode) error { return os.MkdirAll(path, perm) }

func (osFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(name) }

func (osFS) ReadDir(name string) ([]fs.DirEntry, error) { return os.ReadDir(name) }

// OrOS returns fsys, or the production filesystem when fsys is nil, so
// callers can thread an optional FS without nil checks at every use.
func OrOS(fsys FS) FS {
	if fsys == nil {
		return OS()
	}
	return fsys
}

// WriteFileAtomic writes data to path through a temp file in the same
// directory, fsyncs it, and renames it into place, creating parent
// directories as needed. A crash at any point leaves either the old
// content or the new content at path — never a torn file; at worst an
// orphaned tmp-* file remains for a later sweep to collect. With
// sync=false the fsync is skipped (cheap, but a machine crash — not a
// mere process kill — may then surface a zero-length or partial rename
// target on some filesystems).
func WriteFileAtomic(fsys FS, path string, data []byte, sync bool) error {
	fsys = OrOS(fsys)
	dir := filepath.Dir(path)
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("durable: write %s: %w", path, err)
	}
	tmp, err := fsys.CreateTemp(dir, "tmp-*")
	if err != nil {
		return fmt.Errorf("durable: write %s: %w", path, err)
	}
	cleanup := func(err error) error {
		_ = tmp.Close()
		_ = fsys.Remove(tmp.Name())
		return fmt.Errorf("durable: write %s: %w", path, err)
	}
	if _, err := tmp.Write(data); err != nil {
		return cleanup(err)
	}
	if sync {
		if err := tmp.Sync(); err != nil {
			return cleanup(err)
		}
	}
	if err := tmp.Close(); err != nil {
		_ = fsys.Remove(tmp.Name())
		return fmt.Errorf("durable: write %s: %w", path, err)
	}
	if err := fsys.Rename(tmp.Name(), path); err != nil {
		_ = fsys.Remove(tmp.Name())
		return fmt.Errorf("durable: write %s: %w", path, err)
	}
	return nil
}

// IsNotExist reports whether err is a missing-file error, unwrapping
// injected fault errors as well as the os layer's.
func IsNotExist(err error) bool { return errors.Is(err, fs.ErrNotExist) }
