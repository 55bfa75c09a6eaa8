package durable

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
)

// RecordVersion is bumped when the WAL record schema changes; records
// with a different version are dropped on load.
const RecordVersion = 1

// Record is one entry in bgpd's job write-ahead log, one JSON object
// per line. Two record types exist:
//
//   - "job": a submission accepted by admission control — the request
//     spec verbatim, the dedupe key, and the trial count. Appended (and
//     fsynced) before the submit response is written, so an accepted job
//     survives any subsequent crash.
//   - "state": the job's end — done, failed or canceled, with the
//     served digests and executor statistics, so a restarted daemon can
//     keep answering GET /v1/runs/{id} for jobs that finished in a
//     previous life — or "aborted" for a submission whose enqueue was
//     refused. A job with no state record is re-enqueued; so is one
//     whose last record is the "running" older versions wrote.
//
// Every record embeds a truncated SHA-256 checksum over its canonical
// encoding; a torn or bit-rotten line fails the check and is dropped on
// load instead of poisoning recovery.
type Record struct {
	V    int    `json:"v"`
	Seq  int    `json:"seq"`
	Type string `json:"type"` // "job" | "state"
	Job  string `json:"job"`

	// Submission fields (Type == "job").
	Key     string          `json:"key,omitempty"`
	Trials  int             `json:"trials,omitempty"`
	Spec    json.RawMessage `json:"spec,omitempty"`
	Warning string          `json:"warning,omitempty"`

	// Transition fields (Type == "state").
	State           string          `json:"state,omitempty"`
	Error           string          `json:"error,omitempty"`
	AggregateDigest string          `json:"aggregateDigest,omitempty"`
	ResultDigests   []string        `json:"resultDigests,omitempty"`
	Stats           json.RawMessage `json:"stats,omitempty"`

	// Sum is the integrity checksum: the first 16 hex characters of
	// SHA-256 over the record's canonical JSON with Sum itself empty.
	Sum string `json:"sum"`
}

// EncodeRecord renders one WAL line (without the trailing newline),
// stamping the version and checksum.
func EncodeRecord(r Record) ([]byte, error) {
	if err := canonicalizeRaw(&r); err != nil {
		return nil, fmt.Errorf("durable: encode WAL record: %w", err)
	}
	data, err := Seal(&r)
	if err != nil {
		return nil, fmt.Errorf("durable: encode WAL record: %w", err)
	}
	return data, nil
}

// ErrBadRecord marks a WAL line that failed structural validation or
// its integrity check.
var ErrBadRecord = errors.New("durable: bad WAL record")

// DecodeRecord parses and verifies one WAL line. It never panics on
// hostile input (FuzzWALRecord pins that); any structural or checksum
// failure returns an error wrapping ErrBadRecord.
func DecodeRecord(line []byte) (Record, error) {
	var r Record
	if err := Unseal(line, &r); err != nil {
		return Record{}, fmt.Errorf("%w: %v", ErrBadRecord, err)
	}
	if r.Type != "job" && r.Type != "state" {
		return Record{}, fmt.Errorf("%w: unknown type %q", ErrBadRecord, r.Type)
	}
	if r.Job == "" {
		return Record{}, fmt.Errorf("%w: empty job id", ErrBadRecord)
	}
	if err := canonicalizeRaw(&r); err != nil {
		return Record{}, fmt.Errorf("%w: %v", ErrBadRecord, err)
	}
	return r, nil
}

// canonicalizeRaw compacts the record's raw-JSON fields so the checksum
// is over one canonical byte form regardless of input whitespace.
func canonicalizeRaw(r *Record) error {
	for _, raw := range []*json.RawMessage{&r.Spec, &r.Stats} {
		if *raw == nil {
			continue
		}
		var buf bytes.Buffer
		if err := json.Compact(&buf, *raw); err != nil {
			return err
		}
		*raw = append((*raw)[:0], buf.Bytes()...)
	}
	return nil
}

// WAL is bgpd's job write-ahead log: a Log of Records that fsyncs every
// append — when Append returns, the record survives a process kill and
// (modulo disk lies) a machine crash.
type WAL = Log[Record]

// OpenWAL opens (creating if needed) the WAL at path and replays its
// surviving records in append order. bgpd folds them and compacts, so
// the log holds one submission record plus at most one state record per
// live job.
func OpenWAL(fsys FS, path string) (*WAL, []Record, error) {
	return OpenLog(fsys, path, Codec[Record]{
		Encode: func(seq int, r Record) ([]byte, error) { r.Seq = seq; return EncodeRecord(r) },
		Decode: func(line []byte) (Record, int, error) { r, err := DecodeRecord(line); return r, r.Seq, err },
	}, 1, false)
}
