package sweep

import (
	"errors"
	"fmt"
	"path/filepath"

	"bgploop/internal/durable"
)

// Cache is a content-addressed result store on disk. Objects are keyed
// by a canonical hex digest of everything that determines a trial's
// outcome (scenario spec, seed, enhancements, code-relevant config — see
// experiment.Scenario.CacheKey), so a key collision means the results
// are interchangeable by construction and a config change simply misses.
//
// Layout: <dir>/objects/<key[:2]>/<key>, one encoded result per file.
// Writes go through a temp file + rename + fsync, so a killed sweep
// never leaves a torn object behind. Objects that fail to decode anyway
// (bit rot, foreign files) are quarantined — moved to
// <dir>/quarantine/<key> — instead of silently treated as misses, so
// corruption is visible in the executor's stats and the bgpd /metrics
// endpoint rather than showing up only as a mysterious hit-ratio drop.
type Cache struct {
	dir  string
	fsys durable.FS
}

// OpenCache opens (creating if needed) a cache rooted at dir on the real
// filesystem.
func OpenCache(dir string) (*Cache, error) {
	return OpenCacheFS(dir, nil)
}

// OpenCacheFS is OpenCache with an explicit filesystem; fault-injection
// tests pass a durable.FaultFS so ENOSPC/EIO schedules exercise the
// production write path.
func OpenCacheFS(dir string, fsys durable.FS) (*Cache, error) {
	if dir == "" {
		return nil, errors.New("sweep: empty cache directory")
	}
	f := durable.OrOS(fsys)
	if err := f.MkdirAll(filepath.Join(dir, "objects"), 0o755); err != nil {
		return nil, fmt.Errorf("sweep: open cache: %w", err)
	}
	return &Cache{dir: dir, fsys: f}, nil
}

// Dir returns the cache root.
func (c *Cache) Dir() string { return c.dir }

// path maps a key to its object file.
func (c *Cache) path(key string) (string, error) {
	if len(key) < 3 || !isHex(key) {
		return "", fmt.Errorf("sweep: malformed cache key %q", key)
	}
	return filepath.Join(c.dir, "objects", key[:2], key), nil
}

// Get returns the object stored under key, with ok=false on a miss.
func (c *Cache) Get(key string) (data []byte, ok bool, err error) {
	p, err := c.path(key)
	if err != nil {
		return nil, false, err
	}
	data, err = c.fsys.ReadFile(p)
	if durable.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	return data, true, nil
}

// Put stores data under key, atomically replacing any existing object.
// The object is fsynced before the rename, so an acknowledged write
// survives a crash.
func (c *Cache) Put(key string, data []byte) error {
	p, err := c.path(key)
	if err != nil {
		return err
	}
	return durable.WriteFileAtomic(c.fsys, p, data, true)
}

// Quarantine moves the corrupt object stored under key to
// <dir>/quarantine/<key>, preserving the evidence for forensics instead
// of leaving a poisoned object to be re-read (or silently overwriting
// it). Quarantining an object that has already vanished is not an
// error.
func (c *Cache) Quarantine(key string) error {
	p, err := c.path(key)
	if err != nil {
		return err
	}
	qdir := filepath.Join(c.dir, "quarantine")
	if err := c.fsys.MkdirAll(qdir, 0o755); err != nil {
		return fmt.Errorf("sweep: quarantine %s: %w", key, err)
	}
	if err := c.fsys.Rename(p, filepath.Join(qdir, key)); err != nil && !durable.IsNotExist(err) {
		return fmt.Errorf("sweep: quarantine %s: %w", key, err)
	}
	return nil
}

// isHex reports whether s is lowercase hexadecimal.
func isHex(s string) bool {
	for _, r := range s {
		if (r < '0' || r > '9') && (r < 'a' || r > 'f') {
			return false
		}
	}
	return true
}
