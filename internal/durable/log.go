package durable

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
)

// Codec is everything a record schema tells a Log: how one record
// becomes one line (without the trailing newline) under the sequence
// number the log assigns, and how a line becomes a record again. Decode
// returns the sequence number the line carried — zero for schemas that
// have none — and an error for any line it does not vouch for.
type Codec[R any] struct {
	Encode func(seq int, r R) ([]byte, error)
	Decode func(line []byte) (r R, seq int, err error)
}

// Log is the one append-only record file of the repository: bgpd's job
// WAL is a Codec and a fold over what OpenLog replays. One record is one
// line and one Write. Lines the codec rejects — a tail cut short by a crash,
// a line that fails its checksum — are counted and skipped on open and
// never fail it. The log is safe for concurrent appenders; sequence
// numbers are assigned under the lock.
type Log[R any] struct {
	fsys  FS
	path  string
	codec Codec[R]
	// syncEach fsyncs every Append.
	syncEach bool

	mu      sync.Mutex
	f       File
	seq     int
	bytes   int64
	dropped int
	// torn is set while the file may end in a partial line: it did not end
	// in '\n' at open, or the last Write failed. The next Append then
	// starts with '\n', so the fragment is dropped on replay alone instead
	// of taking the acknowledged record after it along.
	torn bool
}

const appendFlags = os.O_CREATE | os.O_WRONLY | os.O_APPEND

// OpenLog opens (creating if needed) the log at path and replays its
// surviving records in append order. With syncEach every Append fsyncs
// before it returns; without, an appended line is only handed to the OS,
// which survives a process kill but not a machine crash. Close always
// fsyncs. With truncate the existing file is discarded unread.
func OpenLog[R any](fsys FS, path string, codec Codec[R], syncEach, truncate bool) (*Log[R], []R, error) {
	if path == "" {
		return nil, nil, errors.New("durable: empty log path")
	}
	fsys = OrOS(fsys)
	if err := fsys.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, nil, fmt.Errorf("durable: open log: %w", err)
	}
	l := &Log[R]{fsys: fsys, path: path, codec: codec, syncEach: syncEach}

	flags := appendFlags
	var records []R
	if truncate {
		flags |= os.O_TRUNC
	} else {
		data, err := fsys.ReadFile(path)
		if err != nil && !IsNotExist(err) {
			return nil, nil, fmt.Errorf("durable: open log: %w", err)
		}
		l.bytes = int64(len(data))
		l.torn = len(data) > 0 && data[len(data)-1] != '\n'
		for _, line := range bytes.Split(data, []byte{'\n'}) {
			if len(bytes.TrimSpace(line)) == 0 {
				continue
			}
			r, seq, err := codec.Decode(line)
			if err != nil {
				l.dropped++
				continue
			}
			if seq >= l.seq {
				l.seq = seq + 1
			}
			records = append(records, r)
		}
	}

	f, err := fsys.OpenFile(path, flags, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("durable: open log: %w", err)
	}
	l.f = f
	return l, records, nil
}

// Bytes returns the log's on-disk size in bytes (as of the last open,
// compaction, or append).
func (l *Log[R]) Bytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.bytes
}

// Dropped returns how many corrupt or torn lines the open skipped.
func (l *Log[R]) Dropped() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}

// Append writes one record under the next sequence number and, when the
// log syncs, fsyncs before returning. A failed Append may leave a
// fragment behind; it never costs a later record.
func (l *Log[R]) Append(r R) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return errors.New("durable: append to closed log")
	}
	line, err := l.codec.Encode(l.seq, r)
	if err != nil {
		return err
	}
	if l.torn {
		line = append([]byte{'\n'}, line...)
	}
	n, err := l.f.Write(append(line, '\n'))
	l.bytes += int64(n)
	l.torn = err != nil
	if err != nil {
		return fmt.Errorf("durable: log append: %w", err)
	}
	if l.syncEach {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("durable: log sync: %w", err)
		}
	}
	l.seq++
	return nil
}

// Compact atomically rewrites the log to contain exactly records
// (resequenced from zero) and reopens it for appending. Owners compact
// at startup after folding what OpenLog replayed, so the file holds the
// fold instead of every record since the dawn of time.
func (l *Log[R]) Compact(records []R) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return errors.New("durable: compact closed log")
	}
	var buf bytes.Buffer
	for i, r := range records {
		line, err := l.codec.Encode(i, r)
		if err != nil {
			return err
		}
		buf.Write(line)
		buf.WriteByte('\n')
	}
	err := l.f.Close()
	l.f = nil
	if err != nil {
		return fmt.Errorf("durable: compact log: %w", err)
	}
	if err := WriteFileAtomic(l.fsys, l.path, buf.Bytes(), true); err != nil {
		return fmt.Errorf("durable: compact log: %w", err)
	}
	f, err := l.fsys.OpenFile(l.path, appendFlags, 0o644)
	if err != nil {
		return fmt.Errorf("durable: compact log: %w", err)
	}
	l.f = f
	l.seq = len(records)
	l.bytes = int64(buf.Len())
	l.torn = false
	return nil
}

// Close syncs and closes the log. The fsync is unconditional — synced
// appends or not, a log that closed cleanly is durable.
func (l *Log[R]) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	serr := l.f.Sync()
	cerr := l.f.Close()
	l.f = nil
	if serr != nil {
		return serr
	}
	return cerr
}

// checksum is the first 16 hex characters of SHA-256 over r's JSON with
// Sum empty; it leaves Sum empty.
func checksum(r *Record) (string, error) {
	r.Sum = ""
	data, err := json.Marshal(r)
	if err != nil {
		return "", err
	}
	h := sha256.Sum256(data)
	return hex.EncodeToString(h[:])[:16], nil
}

// Seal stamps r with RecordVersion and its checksum — a torn or
// bit-rotten line is then told apart from a whole one — and renders the
// line (without the trailing newline).
func Seal(r *Record) ([]byte, error) {
	r.V = RecordVersion
	s, err := checksum(r)
	if err != nil {
		return nil, err
	}
	r.Sum = s
	return json.Marshal(r)
}

// Unseal parses one line into r and verifies its envelope: no unknown
// fields, nothing after the object, RecordVersion, a matching checksum.
// It never panics on hostile input.
func Unseal(line []byte, r *Record) error {
	dec := json.NewDecoder(bytes.NewReader(line))
	dec.DisallowUnknownFields()
	if err := dec.Decode(r); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing data after record")
	}
	if r.V != RecordVersion {
		return fmt.Errorf("version %d, want %d", r.V, RecordVersion)
	}
	got := r.Sum
	want, err := checksum(r)
	r.Sum = got
	if err != nil {
		return err
	}
	if got != want {
		return fmt.Errorf("checksum %q, want %q", got, want)
	}
	return nil
}
