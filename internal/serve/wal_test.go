package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"bgploop/internal/durable"
)

// drainServer drains s with a generous deadline.
func drainServer(t *testing.T, s *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// forgeWAL writes records into store's job WAL, as a daemon that then
// died would have left them.
func forgeWAL(t *testing.T, store string, records ...durable.Record) {
	t.Helper()
	wal, _, err := durable.OpenWAL(nil, walPath(store))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range records {
		if err := wal.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}
}

// cliqueSpec is cliqueBody as a submission record carries it.
func cliqueSpec(t *testing.T) (spec []byte, trials int) {
	t.Helper()
	req, _, rerr := ParseRunRequest(strings.NewReader(cliqueBody), Limits{})
	if rerr != nil {
		t.Fatal(rerr)
	}
	spec, err := json.Marshal(req.Spec)
	if err != nil {
		t.Fatal(err)
	}
	return spec, req.Trials
}

// TestWALRestartServesTerminalJob pins the restart-surviving GET: a job
// that finished before the restart keeps answering GET /v1/runs/{id}
// with the same state, digests, and stats from the recovered table.
func TestWALRestartServesTerminalJob(t *testing.T) {
	store := t.TempDir()
	s1, ts1 := newTestServer(t, Config{StoreDir: store})
	_, v := postRun(t, ts1, cliqueBody)
	v = waitTerminal(t, ts1, v.ID)
	if v.State != StateDone || v.AggregateDigest == "" {
		t.Fatalf("job = %+v, want done with a digest", v)
	}
	drainServer(t, s1)
	ts1.Close()

	s2, ts2 := newTestServer(t, Config{StoreDir: store})
	rec := s2.Recovery()
	if rec.Restored != 1 || rec.Replayed != 0 {
		t.Fatalf("recovery = %+v, want 1 restored / 0 replayed", rec)
	}
	got := getJob(t, ts2, v.ID)
	if got.State != StateDone {
		t.Fatalf("restored state = %s, want done", got.State)
	}
	if got.AggregateDigest != v.AggregateDigest {
		t.Errorf("restored aggregate digest %s != original %s", got.AggregateDigest, v.AggregateDigest)
	}
	if len(got.ResultDigests) != len(v.ResultDigests) {
		t.Errorf("restored %d result digests, want %d", len(got.ResultDigests), len(v.ResultDigests))
	}
	if got.Stats == nil || got.Stats.Trials != v.Stats.Trials {
		t.Errorf("restored stats = %+v, want trials %d", got.Stats, v.Stats.Trials)
	}
	// A fresh submission on the recovered server continues the id
	// sequence instead of colliding with the restored job.
	resp, v2 := postRun(t, ts2, cliqueBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("post-restart submit status = %d", resp.StatusCode)
	}
	if v2.ID == v.ID {
		t.Fatalf("post-restart job reused id %s", v2.ID)
	}
	waitTerminal(t, ts2, v2.ID)
	drainServer(t, s2)
}

// TestWALReplaysIncompleteJob: a job record with no terminal state —
// exactly what a SIGKILL mid-run leaves behind — is re-enqueued at
// startup, runs to completion, and serves the same digests a clean run
// would.
func TestWALReplaysIncompleteJob(t *testing.T) {
	store := t.TempDir()

	// Forge the crashed daemon's WAL: one accepted job, marked running,
	// never finished.
	spec, trials := cliqueSpec(t)
	forgeWAL(t, store,
		durable.Record{Type: "job", Job: "job-000007", Key: "k/trials=2", Trials: trials, Spec: spec},
		durable.Record{Type: "state", Job: "job-000007", State: string(StateRunning)})

	s, ts := newTestServer(t, Config{StoreDir: store})
	if rec := s.Recovery(); rec.Replayed != 1 || rec.Restored != 0 {
		t.Fatalf("recovery = %+v, want 1 replayed", rec)
	}
	v := waitTerminal(t, ts, "job-000007")
	if v.State != StateDone {
		t.Fatalf("replayed job state = %s (%s), want done", v.State, v.Error)
	}
	if v.AggregateDigest == "" || v.Stats == nil || v.Stats.Trials != 2 {
		t.Fatalf("replayed job = %+v, want a digested 2-trial run", v)
	}
	// New ids start above everything the WAL named.
	_, v2 := postRun(t, ts, cliqueBody)
	if n, ok := jobIDNumber(v2.ID); !ok || n <= 7 {
		t.Fatalf("post-recovery id %s does not continue past job-000007", v2.ID)
	}
	waitTerminal(t, ts, v2.ID)
	drainServer(t, s)

	// Second restart: the job is now terminal — restored, not replayed.
	s2, _ := newTestServer(t, Config{StoreDir: store})
	if rec := s2.Recovery(); rec.Replayed != 0 || rec.Restored != 2 {
		t.Fatalf("second recovery = %+v, want 2 restored", rec)
	}
	drainServer(t, s2)
}

// TestRecoveryOfParentStore: a store written before the lease log, the
// per-job sweep journals and the "running" state record were dropped
// recovers as it always did — running-then-done restores, running alone
// re-enqueues — and the files nothing reads any more are left alone.
func TestRecoveryOfParentStore(t *testing.T) {
	store := t.TempDir()
	spec, trials := cliqueSpec(t)
	forgeWAL(t, store,
		durable.Record{Type: "job", Job: "job-000001", Key: "k/trials=2", Trials: trials, Spec: spec},
		durable.Record{Type: "state", Job: "job-000001", State: "running"},
		durable.Record{Type: "state", Job: "job-000001", State: "done", AggregateDigest: "00ff", ResultDigests: []string{"a1", "b2"}},
		durable.Record{Type: "job", Job: "job-000002", Key: "k/trials=2", Trials: trials, Spec: spec},
		durable.Record{Type: "state", Job: "job-000002", State: "running"})
	stale := map[string]string{
		filepath.Join(store, "wal", "dist.jsonl"):            `{"v":1,"seq":0,"type":"sweep","sweep":"ab12/trials=8","trialCount":8,"sum":"c60b5d5afac973ae"}` + "\n",
		filepath.Join(store, "cache", "journals", "x.jsonl"): `{"v":1,"trial":3,"key":"0123abcd","data":{"convergence":1.5,"loops":[{"n":2}]}}` + "\n",
	}
	for path, data := range stale {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	s, ts := newTestServer(t, Config{StoreDir: store})
	if rec := s.Recovery(); rec.Replayed != 1 || rec.Restored != 1 || rec.DroppedRecords != 0 {
		t.Fatalf("recovery = %+v, want 1 replayed / 1 restored / 0 dropped", rec)
	}
	if got := getJob(t, ts, "job-000001"); got.State != StateDone || got.AggregateDigest != "00ff" {
		t.Errorf("restored job = %+v, want done with digest 00ff", got)
	}
	if v := waitTerminal(t, ts, "job-000002"); v.State != StateDone {
		t.Errorf("replayed job state = %s (%s), want done", v.State, v.Error)
	}
	drainServer(t, s)
	for path, want := range stale {
		got, err := os.ReadFile(path)
		if err != nil || string(got) != want {
			t.Errorf("stale %s = %q, %v; want it untouched", path, got, err)
		}
	}
}

// TestWALSubmitRefusedOnStorageFault: when the fsynced admission append
// fails (disk full), the submission is refused with a structured 507 —
// the server never acknowledges a job it cannot make durable.
func TestWALSubmitRefusedOnStorageFault(t *testing.T) {
	// Op sequence on the WAL sync class: seq 0 is the startup
	// compaction's fsync; seq 1 is the first submission's append fsync.
	fsys := durable.NewFaultFS(nil, []durable.Fault{{Op: durable.OpSync, Seq: 1, Kind: durable.FaultENOSPC}})
	s, ts := newTestServer(t, Config{StoreDir: t.TempDir(), FS: fsys})

	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(cliqueBody))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusInsufficientStorage {
		t.Fatalf("submit status = %d, want 507", resp.StatusCode)
	}
	var re struct {
		Error struct {
			Code    string `json:"code"`
			Message string `json:"message"`
		} `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&re); err != nil {
		t.Fatal(err)
	}
	if re.Error.Code != "wal_error" || !strings.Contains(re.Error.Message, syscall.ENOSPC.Error()) {
		t.Fatalf("error body = %+v, want wal_error carrying ENOSPC", re)
	}
	// The fault was one-shot: the next submission succeeds and gets the
	// id the refused one gave back.
	resp2, v := postRun(t, ts, cliqueBody)
	if resp2.StatusCode != http.StatusAccepted || v.ID != "job-000001" {
		t.Fatalf("retry = %d %q, want 202 job-000001", resp2.StatusCode, v.ID)
	}
	waitTerminal(t, ts, v.ID)
	drainServer(t, s)

	// Metrics surfaced the storage error.
	if got := s.metrics.snapshotCounter("bgpd_wal_errors_total"); got != 1 {
		t.Errorf("bgpd_wal_errors_total = %d, want 1", got)
	}
}

// TestWALAbortedSubmissionNotResurrected: a submission whose WAL record
// landed but whose enqueue was refused (queue full, client saw 429) is
// marked aborted and never comes back on restart.
func TestWALAbortedSubmissionNotResurrected(t *testing.T) {
	store := t.TempDir()
	br := &blockingRunner{started: make(chan string, 8), release: make(chan struct{})}
	s, ts := newTestServer(t, Config{StoreDir: store, Workers: 1, QueueDepth: 1})
	s.runSweep = br.run

	spec := func(seed int) string {
		return fmt.Sprintf(`{"spec": {"topology": {"family": "clique", "size": 4}, "event": "tdown", "seed": %d}}`, seed)
	}
	// Fill the worker and the queue, then overflow.
	if resp, _ := postRun(t, ts, spec(1)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d", resp.StatusCode)
	}
	<-br.started
	if resp, _ := postRun(t, ts, spec(2)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit: %d", resp.StatusCode)
	}
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(spec(3)))
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submit = %d, want 429", resp.StatusCode)
	}
	close(br.release)
	drainServer(t, s)
	ts.Close()

	s2, _ := newTestServer(t, Config{StoreDir: store})
	defer drainServer(t, s2)
	rec := s2.Recovery()
	if rec.Replayed != 0 {
		t.Errorf("recovery re-enqueued %d jobs; the aborted submission must stay dead", rec.Replayed)
	}
	s2.mu.Lock()
	n := len(s2.jobs)
	s2.mu.Unlock()
	if n != 2 {
		t.Errorf("recovered table has %d jobs, want the 2 acknowledged ones", n)
	}
}

// TestWALRecoveryToleratesTornTail: a WAL whose final record is cut in
// half (the kill landed mid-append) still recovers everything whole,
// and the startup compaction rewrites the log clean.
func TestWALRecoveryToleratesTornTail(t *testing.T) {
	store := t.TempDir()
	s1, ts1 := newTestServer(t, Config{StoreDir: store})
	_, v := postRun(t, ts1, cliqueBody)
	waitTerminal(t, ts1, v.ID)
	drainServer(t, s1)
	ts1.Close()

	// Append half a record, as a crash mid-append would.
	full, err := durable.EncodeRecord(durable.Record{Type: "state", Job: v.ID, State: "running"})
	if err != nil {
		t.Fatal(err)
	}
	wal, _, err := durable.OpenWAL(nil, walPath(store))
	if err != nil {
		t.Fatal(err)
	}
	// Reach under the WAL abstraction: write raw torn bytes.
	_ = wal.Close()
	appendRaw(t, walPath(store), full[:len(full)/2])

	s2, ts2 := newTestServer(t, Config{StoreDir: store})
	defer drainServer(t, s2)
	rec := s2.Recovery()
	if rec.DroppedRecords != 1 {
		t.Errorf("recovery dropped %d records, want the 1 torn tail", rec.DroppedRecords)
	}
	got := getJob(t, ts2, v.ID)
	if got.State != StateDone {
		t.Errorf("job state after torn-tail recovery = %s, want done", got.State)
	}
	if rec.WALBytes <= 0 {
		t.Errorf("WALBytes = %d, want a positive compacted size", rec.WALBytes)
	}
}

// TestWALMetricsExposed: the recovery counters and WAL size are on
// /metrics.
func TestWALMetricsExposed(t *testing.T) {
	store := t.TempDir()
	s1, ts1 := newTestServer(t, Config{StoreDir: store})
	_, v := postRun(t, ts1, cliqueBody)
	waitTerminal(t, ts1, v.ID)
	drainServer(t, s1)
	ts1.Close()

	s2, ts2 := newTestServer(t, Config{StoreDir: store})
	defer drainServer(t, s2)
	resp, err := http.Get(ts2.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"bgpd_wal_jobs_replayed_total 0",
		"bgpd_wal_jobs_restored_total 1",
		"bgpd_wal_records_dropped_total 0",
		"bgpd_wal_bytes ",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// appendRaw appends raw bytes to a file outside the WAL API.
func appendRaw(t *testing.T, path string, data []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}
