package dist

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"
)

// fakeClock is a mutex-guarded manual clock for lease-expiry tests.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Unix(1_000_000, 0)}
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// startTrials launches Execute for trials 0..n-1 and returns a channel
// per trial carrying the outcome. It returns once every trial is
// registered with the coordinator, so what the first lease holds does
// not depend on goroutine scheduling.
func startTrials(t *testing.T, sw *Sweep, n int) []chan trialOutcome {
	t.Helper()
	chans := make([]chan trialOutcome, n)
	for i := 0; i < n; i++ {
		ch := make(chan trialOutcome, 1)
		chans[i] = ch
		go func(trial int) {
			data, err := sw.Execute(context.Background(), trial, testKey(trial))
			ch <- trialOutcome{data: data, err: err}
		}(i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		sw.c.mu.Lock()
		registered := len(sw.c.sweeps[sw.id].slots)
		sw.c.mu.Unlock()
		if registered == n {
			return chans
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("only some of %d trials registered within 5s", n)
	return nil
}

func testKey(trial int) string { return fmt.Sprintf("key-%03d", trial) }

// waitLease polls acquire until the worker gets a lease (Execute
// registrations race the first poll).
func waitLease(t *testing.T, c *Coordinator, worker string) (*Lease, bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		l, hedged, ok := c.acquire(worker)
		if !ok {
			t.Fatalf("worker %s unknown", worker)
		}
		if l != nil {
			return l, hedged
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("no lease granted within 5s")
	return nil, false
}

func resultsFor(l *Lease, worker string) *ResultReport {
	rep := &ResultReport{Worker: worker, Sweep: l.Sweep, Lease: l.ID}
	for i, trial := range l.Trials {
		rep.Results = append(rep.Results, TrialResult{
			Trial: trial,
			Key:   l.Keys[i],
			Data:  []byte(fmt.Sprintf(`{"trial":%d}`, trial)),
		})
	}
	return rep
}

// TestLeaseExpiryReassignsTrials pins the crash-recovery path: a worker
// that takes a lease and disappears has its trials reassigned to the
// next polling worker once the TTL lapses, and the sweep still
// completes.
func TestLeaseExpiryReassignsTrials(t *testing.T) {
	clock := newFakeClock()
	c, err := New(Config{ChunkSize: 4, LeaseTTL: 10 * time.Second, Now: clock.Now})
	if err != nil {
		t.Fatal(err)
	}
	sw, err := c.StartSweep("s1", []byte(`{}`), 3)
	if err != nil {
		t.Fatal(err)
	}
	chans := startTrials(t, sw, 3)

	dead := c.register("")
	live := c.register("")
	l1, _ := waitLease(t, c, dead)
	if len(l1.Trials) != 3 {
		t.Fatalf("first lease trials = %v, want all 3", l1.Trials)
	}
	// The dead worker never reports. Before the TTL, the live worker
	// sees nothing pending (and nothing to hedge at MaxHedges beyond
	// budget — HedgeLast default 0 here since Config.HedgeLast is 0).
	if l, _, _ := c.acquire(live); l != nil {
		t.Fatalf("premature grant %v while lease outstanding", l.Trials)
	}
	clock.Advance(11 * time.Second)
	l2, _ := waitLease(t, c, live)
	if len(l2.Trials) != 3 {
		t.Fatalf("reassigned lease trials = %v, want all 3", l2.Trials)
	}
	if l2.Attempt <= l1.Attempt {
		t.Errorf("reassigned attempt = %d, want > %d", l2.Attempt, l1.Attempt)
	}
	if _, err := c.report(resultsFor(l2, live)); err != nil {
		t.Fatal(err)
	}
	for i, ch := range chans {
		out := <-ch
		if out.err != nil {
			t.Fatalf("trial %d: %v", i, out.err)
		}
	}
	if got := c.Counters().LeasesReassigned; got != 1 {
		t.Errorf("LeasesReassigned = %d, want 1", got)
	}
}

// TestHedgedDoubleCompletion pins first-result-wins: a hedged duplicate
// lease reporting after the primary has all its trials classified as
// duplicates, and the waiting Execute calls observe exactly one result.
func TestHedgedDoubleCompletion(t *testing.T) {
	clock := newFakeClock()
	c, err := New(Config{ChunkSize: 4, LeaseTTL: time.Hour, HedgeLast: 2, MaxHedges: 1, Now: clock.Now})
	if err != nil {
		t.Fatal(err)
	}
	sw, err := c.StartSweep("s1", []byte(`{}`), 2)
	if err != nil {
		t.Fatal(err)
	}
	chans := startTrials(t, sw, 2)

	a := c.register("")
	b := c.register("")
	la, hedgedA := waitLease(t, c, a)
	if hedgedA {
		t.Fatal("primary lease marked hedged")
	}
	lb, hedgedB := waitLease(t, c, b)
	if !hedgedB {
		t.Fatal("second grant not hedged: nothing was pending")
	}
	if fmt.Sprint(lb.Trials) != fmt.Sprint(la.Trials) {
		t.Fatalf("hedge trials %v != primary trials %v", lb.Trials, la.Trials)
	}
	// A worker already holding the chunk must not be handed its own
	// hedge, and the hedge budget is 1.
	if l, _, _ := c.acquire(a); l != nil {
		t.Fatalf("worker a got a second lease %v", l.Trials)
	}

	respB, err := c.report(resultsFor(lb, b))
	if err != nil {
		t.Fatal(err)
	}
	if respB.Accepted != 2 || respB.Duplicates != 0 {
		t.Fatalf("first report = %+v, want 2 accepted", respB)
	}
	respA, err := c.report(resultsFor(la, a))
	if err != nil {
		t.Fatal(err)
	}
	if respA.Accepted != 0 || respA.Duplicates != 2 {
		t.Fatalf("duplicate report = %+v, want 2 duplicates", respA)
	}
	for i, ch := range chans {
		out := <-ch
		if out.err != nil {
			t.Fatalf("trial %d: %v", i, out.err)
		}
		select {
		case extra := <-ch:
			t.Fatalf("trial %d delivered twice: %v", i, extra)
		default:
		}
	}
	got := c.Counters()
	if got.LeasesHedged != 1 || got.DuplicateResults != 2 {
		t.Errorf("counters = hedged %d, duplicates %d; want 1, 2", got.LeasesHedged, got.DuplicateResults)
	}
}

// TestOutOfOrderResultMerge pins index-addressed merging: chunks
// reported in reverse grant order still deliver each trial its own
// payload.
func TestOutOfOrderResultMerge(t *testing.T) {
	c, err := New(Config{ChunkSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	sw, err := c.StartSweep("s1", []byte(`{}`), 6)
	if err != nil {
		t.Fatal(err)
	}
	chans := startTrials(t, sw, 6)

	w := c.register("")
	var leases []*Lease
	for len(leases) < 3 {
		l, _ := waitLease(t, c, w)
		leases = append(leases, l)
	}
	for i := len(leases) - 1; i >= 0; i-- {
		if _, err := c.report(resultsFor(leases[i], w)); err != nil {
			t.Fatal(err)
		}
	}
	for trial, ch := range chans {
		out := <-ch
		if out.err != nil {
			t.Fatalf("trial %d: %v", trial, out.err)
		}
		want := fmt.Sprintf(`{"trial":%d}`, trial)
		if string(out.data) != want {
			t.Errorf("trial %d merged %q, want %q", trial, out.data, want)
		}
	}
}

// TestKeyMismatchRejected pins the version-skew guard: a result whose
// content address does not match the registered trial is dropped as a
// duplicate and the trial stays pending for a compatible worker.
func TestKeyMismatchRejected(t *testing.T) {
	c, err := New(Config{ChunkSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	sw, err := c.StartSweep("s1", []byte(`{}`), 1)
	if err != nil {
		t.Fatal(err)
	}
	chans := startTrials(t, sw, 1)

	w := c.register("")
	l, _ := waitLease(t, c, w)
	rep := resultsFor(l, w)
	rep.Results[0].Key = "wrong-key"
	resp, err := c.report(rep)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Accepted != 0 || resp.Duplicates != 1 {
		t.Fatalf("mismatch report = %+v, want rejected", resp)
	}
	// The trial went back to pending; a correct report completes it.
	l2, _ := waitLease(t, c, w)
	if _, err := c.report(resultsFor(l2, w)); err != nil {
		t.Fatal(err)
	}
	if out := <-chans[0]; out.err != nil {
		t.Fatal(out.err)
	}
}

// TestStaleLeaseFailureDoesNotWin pins the failure-merge rule: an
// expired lease's error report must not fail a trial that a reassigned
// lease may still complete.
func TestStaleLeaseFailureDoesNotWin(t *testing.T) {
	clock := newFakeClock()
	c, err := New(Config{ChunkSize: 1, LeaseTTL: 10 * time.Second, Now: clock.Now})
	if err != nil {
		t.Fatal(err)
	}
	sw, err := c.StartSweep("s1", []byte(`{}`), 1)
	if err != nil {
		t.Fatal(err)
	}
	chans := startTrials(t, sw, 1)

	a := c.register("")
	b := c.register("")
	la, _ := waitLease(t, c, a)
	clock.Advance(11 * time.Second)
	lb, _ := waitLease(t, c, b) // reassigned

	stale := &ResultReport{Worker: a, Sweep: la.Sweep, Lease: la.ID,
		Results: []TrialResult{{Trial: 0, Key: la.Keys[0], Error: "boom"}}}
	resp, err := c.report(stale)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Accepted != 0 {
		t.Fatalf("stale failure accepted: %+v", resp)
	}
	if _, err := c.report(resultsFor(lb, b)); err != nil {
		t.Fatal(err)
	}
	if out := <-chans[0]; out.err != nil {
		t.Fatalf("trial failed despite successful reassigned lease: %v", out.err)
	}
}

// TestCoordinatorRestartRecoversOrphans pins the lease WAL: a
// coordinator killed with grants outstanding reports them as recovered
// on restart, and restarting the same sweep counts them reassigned.
func TestCoordinatorRestartRecoversOrphans(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Config{ChunkSize: 2, StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	sw, err := c.StartSweep("s1", []byte(`{}`), 4)
	if err != nil {
		t.Fatal(err)
	}
	_ = startTrials(t, sw, 4)
	w := c.register("")
	l1, _ := waitLease(t, c, w)
	l2, _ := waitLease(t, c, w)
	if _, err := c.report(resultsFor(l1, w)); err != nil {
		t.Fatal(err)
	}
	_ = l2 // never reported: orphaned grant
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c2, err := New(Config{ChunkSize: 2, StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c2.Close() }()
	if got := c2.Counters().LeasesRecovered; got != 1 {
		t.Fatalf("LeasesRecovered = %d, want 1 (l2 was outstanding)", got)
	}
	if _, err := c2.StartSweep("s1", []byte(`{}`), 4); err != nil {
		t.Fatal(err)
	}
	if got := c2.Counters().LeasesReassigned; got != 1 {
		t.Errorf("LeasesReassigned after restart = %d, want 1", got)
	}
}

// TestFinishedSweepRecordsCompactAway pins log hygiene: once a sweep
// finishes, a restarted coordinator holds no recovered leases and the
// compacted log drops the sweep's records.
func TestFinishedSweepRecordsCompactAway(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Config{ChunkSize: 4, StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	sw, err := c.StartSweep("s1", []byte(`{}`), 2)
	if err != nil {
		t.Fatal(err)
	}
	chans := startTrials(t, sw, 2)
	w := c.register("")
	l, _ := waitLease(t, c, w)
	if _, err := c.report(resultsFor(l, w)); err != nil {
		t.Fatal(err)
	}
	for _, ch := range chans {
		<-ch
	}
	sw.Finish()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c2, err := New(Config{StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = c2.Close() }()
	if got := c2.Counters().LeasesRecovered; got != 0 {
		t.Errorf("LeasesRecovered = %d after clean finish, want 0", got)
	}
}

// TestSweepFinishFailsWaiters pins Finish semantics: Execute calls
// still in flight fail with ErrSweepFinished instead of hanging.
func TestSweepFinishFailsWaiters(t *testing.T) {
	c, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	sw, err := c.StartSweep("s1", []byte(`{}`), 1)
	if err != nil {
		t.Fatal(err)
	}
	chans := startTrials(t, sw, 1)
	w := c.register("")
	waitLease(t, c, w)
	sw.Finish()
	out := <-chans[0]
	if !errors.Is(out.err, ErrSweepFinished) {
		t.Fatalf("waiter got %v, want ErrSweepFinished", out.err)
	}
}

// TestLogReplaySkipsTornTail pins the WAL torn-write contract shared
// with the job WAL and the sweep journal.
func TestLogReplaySkipsTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "dist.jsonl")
	l, _, err := OpenLog(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := l.Append(Record{Type: RecordGrant, Sweep: "s", Lease: fmt.Sprintf("lease-%d", i)}); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the last line mid-record.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)-10], 0o644); err != nil {
		t.Fatal(err)
	}
	l2, records, err := OpenLog(nil, path)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = l2.Close() }()
	if len(records) != 2 {
		t.Fatalf("replayed %d records, want 2 (torn tail dropped)", len(records))
	}
	if l2.Dropped() != 1 {
		t.Errorf("Dropped = %d, want 1", l2.Dropped())
	}
	// Appends after a torn tail must not collide with surviving seqs.
	if err := l2.Append(Record{Type: RecordDone, Sweep: "s"}); err != nil {
		t.Fatal(err)
	}
}
