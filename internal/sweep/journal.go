package sweep

import (
	"encoding/json"
	"fmt"

	"bgploop/internal/durable"
)

// journalVersion is bumped when the entry schema changes.
const journalVersion = 1

// journalEntry is one completed trial, one JSON object per line.
type journalEntry struct {
	V     int             `json:"v"`
	Trial int             `json:"trial"`
	Key   string          `json:"key"`
	Data  json.RawMessage `json:"data"`
}

// Journal is an append-only file of encoded trial results, one line per
// trial. No sweep writes or reads one: the result cache is the sweep's
// only checkpoint, and a re-run with the same cache directory serves
// every completed trial from it. Journal stays only because the
// benchmark's persistence probe times Append; it goes when that probe
// does.
type Journal struct {
	log *durable.Log[journalEntry]
}

// OpenJournal opens the journal file at path on the real filesystem.
// With resume=false the file is truncated; with resume=true existing
// lines are kept and appended after. Appends reach the OS and Close
// fsyncs.
func OpenJournal(path string, resume bool) (*Journal, error) {
	log, _, err := durable.OpenLog(nil, path, durable.Codec[journalEntry]{
		Encode: func(_ int, e journalEntry) ([]byte, error) { return json.Marshal(e) },
		Decode: func(line []byte) (e journalEntry, _ int, err error) { return e, 0, json.Unmarshal(line, &e) },
	}, false, !resume)
	if err != nil {
		return nil, fmt.Errorf("sweep: open journal: %w", err)
	}
	return &Journal{log: log}, nil
}

// Append writes one trial's encoded result.
func (j *Journal) Append(trial int, key string, data []byte) error {
	return j.log.Append(journalEntry{V: journalVersion, Trial: trial, Key: key, Data: json.RawMessage(data)})
}

// Close fsyncs and closes the journal file.
func (j *Journal) Close() error { return j.log.Close() }
