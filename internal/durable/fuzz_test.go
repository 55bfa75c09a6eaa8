package durable

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzWALRecord hammers the WAL line decoder with hostile input. The
// properties pinned:
//
//   - DecodeRecord never panics, whatever the bytes;
//   - anything it accepts re-encodes, and the re-encoded line decodes
//     to an identical record (the recovery path and the append path
//     agree on the format);
//   - the re-encoded line's checksum verifies, so a decoded-then-kept
//     record survives a compaction round trip.
//
// Seeds live in testdata/fuzz/FuzzWALRecord; CI runs a short
// coverage-guided session on top (fuzz-smoke).
func FuzzWALRecord(f *testing.F) {
	seed := func(r Record) {
		line, err := EncodeRecord(r)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(line)
	}
	seed(Record{Type: "job", Job: "job-000001", Key: "ab12/trials=2", Trials: 2,
		Spec: []byte(`{"topology":{"family":"clique","size":4},"event":"tdown"}`)})
	seed(Record{Type: "state", Job: "job-000001", State: "running"})
	seed(Record{Type: "state", Job: "job-000001", State: "done",
		AggregateDigest: "00ff", ResultDigests: []string{"a", "b"}, Stats: []byte(`{"Trials":2}`)})
	f.Add([]byte(`{"v":1,"seq":0,"type":"job","job":"j","sum":"0000000000000000"}`))
	f.Add([]byte(`not json at all`))
	f.Add([]byte(`{"v":2,"type":"job","job":"j","sum":""}`))

	f.Fuzz(func(t *testing.T, line []byte) {
		r, err := DecodeRecord(line)
		if err != nil {
			return
		}
		re, err := EncodeRecord(r)
		if err != nil {
			t.Fatalf("accepted record does not re-encode: %v\nrecord: %+v", err, r)
		}
		r2, err := DecodeRecord(re)
		if err != nil {
			t.Fatalf("re-encoded record does not decode: %v\nline: %s", err, re)
		}
		// Seq is preserved by the codec (the WAL assigns it on append).
		r2.Sum, r.Sum = "", ""
		a, err1 := EncodeRecord(r)
		b, err2 := EncodeRecord(r2)
		if err1 != nil || err2 != nil || !bytes.Equal(a, b) {
			t.Fatalf("round trip drifted:\n%s\n%s", a, b)
		}
	})
}

// FuzzLogReplay hands Log a file of arbitrary bytes. The properties
// pinned:
//
//   - opening never fails or panics on content, and every non-blank line
//     is either replayed or counted as dropped;
//   - a record appended after the open comes back, after everything the
//     open replayed, on the next open — whatever state the tail was in;
//   - compacting to what an open replayed is a fixed point: reopening
//     and compacting again rewrites the same bytes.
//
// Seeds live in testdata/fuzz/FuzzLogReplay; CI runs a short
// coverage-guided session on top (fuzz-smoke).
func FuzzLogReplay(f *testing.F) {
	whole, err := EncodeRecord(Record{Type: "job", Job: "job-000001", Trials: 2})
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{})
	f.Add(append(bytes.Clone(whole), '\n'))
	f.Add(bytes.Clone(whole))
	f.Add(append(append(bytes.Clone(whole), '\n'), whole[:len(whole)/2]...))
	f.Add([]byte("\n\n \r\nnot json\n"))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "log.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		reopen := func() (*WAL, []Record) {
			w, recs, err := OpenWAL(nil, path)
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			return w, recs
		}
		jobs := func(recs []Record) string {
			var b strings.Builder
			for _, r := range recs {
				b.WriteString(r.Type + " " + r.Job + " " + r.State + "\n")
			}
			return b.String()
		}

		w, recs := reopen()
		lines := 0
		for _, line := range bytes.Split(data, []byte{'\n'}) {
			if len(bytes.TrimSpace(line)) > 0 {
				lines++
			}
		}
		if len(recs)+w.Dropped() != lines {
			t.Fatalf("%d replayed + %d dropped != %d non-blank lines", len(recs), w.Dropped(), lines)
		}

		added := Record{Type: "state", Job: "job-appended", State: "running"}
		if err := w.Append(added); err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		w, again := reopen()
		if want := jobs(append(recs, added)); jobs(again) != want {
			t.Fatalf("after append and reopen:\n%swant:\n%s", jobs(again), want)
		}

		if err := w.Compact(again); err != nil {
			t.Fatal(err)
		}
		_ = w.Close()
		first, _ := os.ReadFile(path)
		w, compacted := reopen()
		if w.Dropped() != 0 || jobs(compacted) != jobs(again) {
			t.Fatalf("compacted log replays %d dropped:\n%swant:\n%s", w.Dropped(), jobs(compacted), jobs(again))
		}
		if err := w.Compact(compacted); err != nil {
			t.Fatal(err)
		}
		_ = w.Close()
		if second, _ := os.ReadFile(path); !bytes.Equal(first, second) {
			t.Fatalf("compaction is not a fixed point:\n%s\n%s", first, second)
		}
	})
}
