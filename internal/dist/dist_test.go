package dist

import (
	"context"
	"errors"
	"fmt"
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
	// sees nothing pending (and nothing to hedge: Config.HedgeLast is 0,
	// which disables hedging).
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
	c, err := New(Config{ChunkSize: 4, LeaseTTL: time.Hour, HedgeLast: 2, Now: clock.Now})
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
