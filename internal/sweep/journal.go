package sweep

import (
	"encoding/json"
	"errors"
	"fmt"

	"bgploop/internal/durable"
)

// journalVersion is bumped when the entry schema changes; entries with a
// different version are ignored on load.
const journalVersion = 1

// journalEntry is one completed trial, one JSON object per line.
type journalEntry struct {
	V     int `json:"v"`
	Trial int `json:"trial"`
	// Key is the trial's content address at the time it completed; an
	// entry is replayed only when the address still matches, so a changed
	// scenario spec invalidates the checkpoint per trial.
	Key  string          `json:"key"`
	Data json.RawMessage `json:"data"`
}

// JournalOptions tunes a journal's durability behaviour.
type JournalOptions struct {
	// FS routes the journal's file operations; nil means the real
	// filesystem. Fault-injection tests pass a durable.FaultFS so
	// ENOSPC/EIO/torn-write schedules exercise the production code path.
	FS durable.FS
	// SyncEvery is the fsync cadence on Append: 0 (the default) never
	// fsyncs during the run — appends are flushed to the OS, which
	// survives a process kill but not a machine crash; 1 fsyncs every
	// append; N fsyncs every N appends. Close always fsyncs, whatever
	// the cadence, so a completed sweep's checkpoint is durable.
	SyncEvery int
}

// Journal is an append-only checkpoint of completed sweep trials: a
// durable.Log with one entry per finished trial, so a sweep killed
// mid-flight loses at most the line being written and a restarted sweep
// resumes from the completed set instead of re-simulating it.
type Journal struct {
	log     *durable.Log[journalEntry]
	entries map[int]journalEntry
}

// OpenJournal opens the checkpoint file at path with default options
// (real filesystem, no fsync until Close). With resume=true any
// existing entries are loaded for replay; otherwise the file is
// truncated and the sweep checkpoints from scratch.
func OpenJournal(path string, resume bool) (*Journal, error) {
	return OpenJournalOpts(path, resume, JournalOptions{})
}

// OpenJournalOpts is OpenJournal with an explicit filesystem and sync
// policy.
func OpenJournalOpts(path string, resume bool, o JournalOptions) (*Journal, error) {
	log, loaded, err := durable.OpenLog(o.FS, path, durable.Codec[journalEntry]{
		Encode: func(_ int, e journalEntry) ([]byte, error) { return json.Marshal(e) },
		Decode: decodeEntry,
	}, o.SyncEvery, !resume)
	if err != nil {
		return nil, fmt.Errorf("sweep: open journal: %w", err)
	}
	j := &Journal{log: log, entries: make(map[int]journalEntry, len(loaded))}
	for _, e := range loaded {
		j.entries[e.Trial] = e
	}
	return j, nil
}

// decodeEntry accepts a whole entry of the current version; a torn or
// foreign line must not poison the resume.
func decodeEntry(line []byte) (journalEntry, int, error) {
	var e journalEntry
	if err := json.Unmarshal(line, &e); err != nil {
		return e, 0, err
	}
	if e.V != journalVersion || e.Key == "" || e.Data == nil {
		return e, 0, errors.New("sweep: not a journal entry")
	}
	return e, 0, nil
}

// Len returns the number of loaded (resumable) entries.
func (j *Journal) Len() int { return len(j.entries) }

// Path returns the journal file path.
func (j *Journal) Path() string { return j.log.Path() }

// Lookup returns the journaled result of trial i if one was loaded and
// its content address still matches key.
func (j *Journal) Lookup(trial int, key string) ([]byte, bool) {
	e, ok := j.entries[trial]
	if !ok || e.Key != key {
		return nil, false
	}
	return e.Data, true
}

// Append checkpoints one completed trial at the journal's sync cadence.
// Append must only be called from one goroutine (the executor's merging
// loop).
func (j *Journal) Append(trial int, key string, data []byte) error {
	if _, ok := j.entries[trial]; ok {
		return nil // already checkpointed (e.g. replayed entry)
	}
	e := journalEntry{V: journalVersion, Trial: trial, Key: key, Data: json.RawMessage(data)}
	if err := j.log.Append(e); err != nil {
		return err
	}
	j.entries[trial] = e
	return nil
}

// Close fsyncs and closes the journal file.
func (j *Journal) Close() error { return j.log.Close() }
