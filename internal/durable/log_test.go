package durable_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"bgploop/internal/durable"
)

// schema is one record type on top of durable.Log, driven through its
// owner's public API. Every Log property below is checked once per row.
type schema struct {
	name string
	// golden is the number of lines in testdata/golden/<name>.jsonl,
	// written at the parent of the commit that introduced durable.Log;
	// add(0..golden-1) must reproduce them byte for byte.
	golden int
	// syncs is how many fsyncs the schema's cadence costs for n appends,
	// not counting the one Close adds.
	syncs func(n int) int
	// id names the i'th test record the way opened.ids reports it.
	id   func(i int) string
	open func(fsys durable.FS, path string, resume bool) (opened, error)
}

// opened is one open log: what the open replayed, and hooks to append
// the i'th test record and close.
type opened struct {
	ids     []string
	dropped int // -1 where the owner does not expose it
	add     func(i int) error
	close   func() error
}

var walGolden = []durable.Record{
	{Type: "job", Job: "job-000001", Key: "ab12/trials=2", Trials: 2,
		Spec:    json.RawMessage(`{"topology": {"family":"clique","size":4}, "event":"tdown", "note":"a<b"}`),
		Warning: "preflight: unknown"},
	{Type: "state", Job: "job-000001", State: "done", AggregateDigest: "00ff",
		ResultDigests: []string{"a1", "b2"}, Stats: json.RawMessage(`{"Trials":2,"Executed":2}`)},
}

func walRecord(i int) durable.Record {
	if i < len(walGolden) {
		r := walGolden[i]
		// EncodeRecord compacts raw fields in place; keep the table pristine.
		r.Spec, r.Stats = bytes.Clone(r.Spec), bytes.Clone(r.Stats)
		return r
	}
	return durable.Record{Type: "state", Job: fmt.Sprintf("job-%06d", i), State: "running"}
}

func walID(r durable.Record) string { return r.Job + "/" + r.Type + "/" + r.State }

var schemas = []schema{
	{
		name:   "wal",
		golden: len(walGolden),
		syncs:  func(n int) int { return n },
		id:     func(i int) string { return walID(walRecord(i)) },
		open: func(fsys durable.FS, path string, _ bool) (opened, error) {
			w, recs, err := durable.OpenWAL(fsys, path)
			if err != nil {
				return opened{}, err
			}
			o := opened{dropped: w.Dropped(), close: w.Close,
				add: func(i int) error { return w.Append(walRecord(i)) }}
			for _, r := range recs {
				o.ids = append(o.ids, walID(r))
			}
			return o, nil
		},
	},
}

// mustOpen opens s at path and checks what the open replayed: exactly
// the records want names, in order, with the given dropped-line count.
func mustOpen(t *testing.T, s schema, fsys durable.FS, path string, resume bool, dropped int, want ...int) opened {
	t.Helper()
	o, err := s.open(fsys, path, resume)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	var ids []string
	for _, i := range want {
		ids = append(ids, s.id(i))
	}
	if !reflect.DeepEqual(o.ids, ids) {
		t.Fatalf("replayed %q, want %q", o.ids, ids)
	}
	if o.dropped >= 0 && o.dropped != dropped {
		t.Fatalf("dropped = %d, want %d", o.dropped, dropped)
	}
	return o
}

func mustAdd(t *testing.T, o opened, records ...int) {
	t.Helper()
	for _, i := range records {
		if err := o.add(i); err != nil {
			t.Fatalf("append record %d: %v", i, err)
		}
	}
}

func mustClose(t *testing.T, o opened) {
	t.Helper()
	if err := o.close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

func eachSchema(t *testing.T, f func(t *testing.T, s schema, path string)) {
	for _, s := range schemas {
		t.Run(s.name, func(t *testing.T) {
			f(t, s, filepath.Join(t.TempDir(), "store", s.name+".jsonl"))
		})
	}
}

// TestLogTornWriteKeepsNextRecord: an append torn mid-line is reported
// to the caller and dropped on replay, alone — the acknowledged append
// after it starts its own line and is recovered.
func TestLogTornWriteKeepsNextRecord(t *testing.T) {
	eachSchema(t, func(t *testing.T, s schema, path string) {
		fsys := durable.NewFaultFS(nil, []durable.Fault{{Op: durable.OpWrite, Seq: 1, Kind: durable.FaultTorn, TornAt: 5}})
		o := mustOpen(t, s, fsys, path, false, 0)
		mustAdd(t, o, 0)
		if err := o.add(1); err == nil {
			t.Fatal("torn append reported success")
		}
		mustAdd(t, o, 2)
		mustClose(t, o)
		mustClose(t, mustOpen(t, s, nil, path, true, 1, 0, 2))
	})
}

// TestLogTornTailKeepsNextRecord: a log reopened over a tail cut short
// by a kill keeps every record appended after the reopen.
func TestLogTornTailKeepsNextRecord(t *testing.T) {
	eachSchema(t, func(t *testing.T, s schema, path string) {
		o := mustOpen(t, s, nil, path, false, 0)
		mustAdd(t, o, 0)
		mustClose(t, o)
		whole, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(whole, whole[:len(whole)/2]...), 0o644); err != nil {
			t.Fatal(err)
		}

		o = mustOpen(t, s, nil, path, true, 1, 0)
		mustAdd(t, o, 1, 2)
		mustClose(t, o)
		mustClose(t, mustOpen(t, s, nil, path, true, 1, 0, 1, 2))
	})
}

// TestLogGoldenLines pins the on-disk format: every record kind encodes
// to the bytes the parent commit wrote, and those bytes replay.
func TestLogGoldenLines(t *testing.T) {
	eachSchema(t, func(t *testing.T, s schema, path string) {
		golden, err := os.ReadFile(filepath.Join("testdata", "golden", s.name+".jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		var all []int
		for i := 0; i < s.golden; i++ {
			all = append(all, i)
		}
		o := mustOpen(t, s, nil, path, false, 0)
		mustAdd(t, o, all...)
		mustClose(t, o)
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, golden) {
			t.Fatalf("encoding drifted from the golden lines:\n got: %s\nwant: %s", got, golden)
		}
		if err := os.WriteFile(path, golden, 0o644); err != nil {
			t.Fatal(err)
		}
		mustClose(t, mustOpen(t, s, nil, path, true, 0, all...))
	})
}

// TestLogSyncCadence pins what an append costs the disk: one Write per
// record whatever the schema, and fsyncs at the schema's cadence — every
// append for the WAL — plus the one Close always adds.
func TestLogSyncCadence(t *testing.T) {
	const appends = 7
	eachSchema(t, func(t *testing.T, s schema, path string) {
		fsys := durable.NewFaultFS(nil, nil) // no faults; just the op counters
		o := mustOpen(t, s, fsys, path, false, 0)
		for i := 0; i < appends; i++ {
			mustAdd(t, o, i)
		}
		ops := fsys.Ops()
		if ops[durable.OpWrite] != appends || ops[durable.OpSync] != s.syncs(appends) {
			t.Fatalf("%d appends cost %d writes and %d fsyncs, want %d and %d",
				appends, ops[durable.OpWrite], ops[durable.OpSync], appends, s.syncs(appends))
		}
		mustClose(t, o)
		if got := fsys.Ops()[durable.OpSync]; got != s.syncs(appends)+1 {
			t.Fatalf("after Close: %d fsyncs, want %d", got, s.syncs(appends)+1)
		}
	})
}
