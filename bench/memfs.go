package main

import (
	"errors"
	"fmt"
	"io/fs"
	"os"
	"strings"
	"sync"

	"bgploop/internal/durable"
)

// memFS is a durable.FS held in memory, for the served workload alone.
//
// A served job pair is about ten small files created, written, fsynced
// and renamed, and on the box these numbers come from that costs whatever
// the virtual disk charges that minute: a bare create+write+fsync+rename
// loop climbs from 0.3 ms to 1.0 ms per file within 40 s of steady load
// and has not come back a minute after the load stops, with or without
// the fsync. Half of the served op's time was that, so the same code read
// 4.9 ms after an idle spell and 7.5 ms a few runs later. The service
// layers' own work — admission, WAL records, queue, sweep, cache codec,
// events, HTTP — runs unchanged above this seam; what it no longer pays is
// the disk. What a change can do to the disk cost shows as a count
// (durable.syncs_per_op, exact), and what one fsynced write costs here
// and now is what the durable and sweep probes time on the real disk.
type memFS struct {
	mu    sync.Mutex
	files map[string][]byte
	temps int
	syncs int64
}

func newMemFS() *memFS { return &memFS{files: map[string][]byte{}} }

// syncCount is how many fsyncs the daemon has issued so far.
func (m *memFS) syncCount() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.syncs
}

func notExist(op, name string) error {
	return &fs.PathError{Op: op, Path: name, Err: fs.ErrNotExist}
}

func (m *memFS) OpenFile(name string, flag int, perm fs.FileMode) (durable.File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	_, ok := m.files[name]
	switch {
	case !ok && flag&os.O_CREATE == 0:
		return nil, notExist("open", name)
	case !ok || flag&os.O_TRUNC != 0:
		m.files[name] = nil
	}
	return &memFile{fs: m, name: name}, nil
}

func (m *memFS) CreateTemp(dir, pattern string) (durable.File, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.temps++
	name := dir + "/" + strings.Replace(pattern, "*", fmt.Sprint(m.temps), 1)
	m.files[name] = nil
	return &memFile{fs: m, name: name}, nil
}

func (m *memFS) Rename(oldpath, newpath string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.files[oldpath]
	if !ok {
		return notExist("rename", oldpath)
	}
	delete(m.files, oldpath)
	m.files[newpath] = data
	return nil
}

func (m *memFS) Remove(name string) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if _, ok := m.files[name]; !ok {
		return notExist("remove", name)
	}
	delete(m.files, name)
	return nil
}

// MkdirAll has nothing to do: a file's directories exist by its name.
func (m *memFS) MkdirAll(string, fs.FileMode) error { return nil }

func (m *memFS) ReadFile(name string) ([]byte, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	data, ok := m.files[name]
	if !ok {
		return nil, notExist("open", name)
	}
	return append([]byte(nil), data...), nil
}

// ReadDir is the one operation nothing on the daemon's path calls.
func (m *memFS) ReadDir(name string) ([]fs.DirEntry, error) {
	return nil, &fs.PathError{Op: "readdir", Path: name, Err: errors.ErrUnsupported}
}

// memFile appends to its file's bytes; every open is write-only, as every
// open of the durable layer is.
type memFile struct {
	fs   *memFS
	name string
}

func (f *memFile) Name() string { return f.name }

func (f *memFile) Write(p []byte) (int, error) {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	f.fs.files[f.name] = append(f.fs.files[f.name], p...)
	return len(p), nil
}

func (f *memFile) Sync() error {
	f.fs.mu.Lock()
	defer f.fs.mu.Unlock()
	f.fs.syncs++
	return nil
}

func (f *memFile) Close() error { return nil }
