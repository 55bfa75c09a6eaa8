package dist

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"bgploop/internal/experiment"
	"bgploop/internal/sweep"
)

// testSpec is the e2e scenario: the same clique T_down the serve parity
// tests use.
const testSpecJSON = `{"topology": {"family": "clique", "size": 6}, "event": "tdown", "seed": 5}`

const testTrials = 8

func testScenarioSpec(t *testing.T) experiment.ScenarioSpec {
	t.Helper()
	var spec experiment.ScenarioSpec
	if err := json.Unmarshal([]byte(testSpecJSON), &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// localOracle runs the sweep entirely in-process — the digests every
// distributed configuration must reproduce byte for byte.
func localOracle(t *testing.T) (string, []string) {
	t.Helper()
	spec := testScenarioSpec(t)
	sc, err := spec.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	agg, results, _, err := experiment.RunSweep(experiment.Repeat(sc), testTrials, experiment.SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return digests(t, agg, results)
}

func digests(t *testing.T, agg experiment.Aggregate, results []*experiment.Result) (string, []string) {
	t.Helper()
	aggDig, err := experiment.DigestAggregate(agg)
	if err != nil {
		t.Fatal(err)
	}
	var resDigs []string
	for _, r := range results {
		d, err := experiment.DigestResult(r)
		if err != nil {
			t.Fatal(err)
		}
		resDigs = append(resDigs, d)
	}
	return aggDig, resDigs
}

// testSleep is the injected worker sleeper for loopback tests: short
// real sleeps keep the poll loop polite without slowing the test.
func testSleep(ctx context.Context, d time.Duration) {
	if d > 2*time.Millisecond {
		d = 2 * time.Millisecond
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// startFleet mounts the coordinator on a loopback HTTP server and
// starts n workers against it. The workers stop when the returned
// cancel runs.
func startFleet(t *testing.T, c *Coordinator, n int) context.CancelFunc {
	t.Helper()
	mux := http.NewServeMux()
	c.Mount(mux)
	ts := httptest.NewServer(mux)
	ctx, cancel := context.WithCancel(context.Background())
	for i := 0; i < n; i++ {
		w, err := NewWorker(WorkerConfig{
			Coordinator:  ts.URL,
			PollInterval: time.Millisecond,
			BackoffBase:  time.Millisecond,
			BackoffMax:   10 * time.Millisecond,
			Sleep:        testSleep,
		})
		if err != nil {
			t.Fatal(err)
		}
		go func() { _ = w.Run(ctx) }()
	}
	t.Cleanup(func() {
		cancel()
		ts.Close()
	})
	return cancel
}

// runDistributed executes the test sweep through the coordinator's
// remote seam and returns its digests and executor stats.
func runDistributed(t *testing.T, c *Coordinator, opts experiment.SweepOptions) (string, []string, sweep.Stats) {
	t.Helper()
	spec := testScenarioSpec(t)
	specBytes, err := EncodeSweepSpec(spec, testTrials)
	if err != nil {
		t.Fatal(err)
	}
	sw, err := c.StartSweep("e2e/trials=8", specBytes, testTrials)
	if err != nil {
		t.Fatal(err)
	}
	defer sw.Finish()
	sc, err := spec.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	opts.Workers = testTrials // all trials in flight so the fleet sees them
	opts.Remote = sw.Execute
	agg, results, stats, err := experiment.RunSweep(experiment.Repeat(sc), testTrials, opts)
	if err != nil {
		t.Fatal(err)
	}
	aggDig, resDigs := digests(t, agg, results)
	return aggDig, resDigs, stats
}

func assertParity(t *testing.T, label, aggDig string, resDigs []string, wantAgg string, wantRes []string) {
	t.Helper()
	if aggDig != wantAgg {
		t.Errorf("%s: aggregate digest %s != local oracle %s", label, aggDig, wantAgg)
	}
	if len(resDigs) != len(wantRes) {
		t.Fatalf("%s: %d result digests, oracle has %d", label, len(resDigs), len(wantRes))
	}
	for i := range wantRes {
		if resDigs[i] != wantRes[i] {
			t.Errorf("%s: trial %d digest %s != oracle %s", label, i, resDigs[i], wantRes[i])
		}
	}
}

// TestDistributedDigestParity is the tentpole determinism pin: the
// sweep distributed over {1, 3} loopback workers produces digests
// byte-identical to the single-process oracle, with every trial
// satisfied remotely.
func TestDistributedDigestParity(t *testing.T) {
	wantAgg, wantRes := localOracle(t)
	for _, workers := range []int{1, 3} {
		c, err := New(Config{ChunkSize: 3})
		if err != nil {
			t.Fatal(err)
		}
		startFleet(t, c, workers)
		aggDig, resDigs, stats := runDistributed(t, c, experiment.SweepOptions{})
		assertParity(t, "workers="+string(rune('0'+workers)), aggDig, resDigs, wantAgg, wantRes)
		if stats.Remote != testTrials {
			t.Errorf("workers=%d: stats.Remote = %d, want %d (all trials remote)", workers, stats.Remote, testTrials)
		}
		if got := c.Counters().RemoteTrials; got != testTrials {
			t.Errorf("workers=%d: coordinator merged %d trials, want %d", workers, got, testTrials)
		}
	}
}

// TestDistributedCrashReassignment pins the lease-expiry recovery path
// end to end: a worker that takes a lease and dies (simulated by a
// registered worker that never reports) has its chunk reassigned to the
// live fleet, and the merged digests still match the oracle exactly.
func TestDistributedCrashReassignment(t *testing.T) {
	wantAgg, wantRes := localOracle(t)
	clock := newFakeClock()
	c, err := New(Config{ChunkSize: 4, LeaseTTL: 10 * time.Second, Now: clock.Now})
	if err != nil {
		t.Fatal(err)
	}

	type distOut struct {
		aggDig  string
		resDigs []string
		stats   sweep.Stats
	}
	done := make(chan distOut, 1)
	go func() {
		aggDig, resDigs, stats := runDistributed(t, c, experiment.SweepOptions{})
		done <- distOut{aggDig, resDigs, stats}
	}()

	// The victim grabs the first chunk and is never heard from again —
	// the in-process analogue of SIGKILL mid-lease (the subprocess
	// harness in disttest kills a real worker). It polls only once all
	// the trials are pending, so its chunk is full whatever the
	// scheduling of the sweep's goroutines.
	waitPending(t, c, "e2e/trials=8", testTrials)
	victim := c.register("victim")
	vl, _ := waitLease(t, c, victim)
	if len(vl.Trials) != 4 {
		t.Fatalf("victim lease %v, want 4 trials", vl.Trials)
	}
	clock.Advance(11 * time.Second) // victim's lease is now expired
	startFleet(t, c, 2)

	out := <-done
	assertParity(t, "crash", out.aggDig, out.resDigs, wantAgg, wantRes)
	counters := c.Counters()
	if counters.LeasesReassigned < 1 {
		t.Errorf("LeasesReassigned = %d, want >= 1 (victim's chunk)", counters.LeasesReassigned)
	}
	if out.stats.Remote != testTrials {
		t.Errorf("stats.Remote = %d, want %d", out.stats.Remote, testTrials)
	}
}

// waitPending blocks until sweep id holds n pending trials.
func waitPending(t *testing.T, c *Coordinator, id string, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		c.mu.Lock()
		pending := 0
		if sw, ok := c.sweeps[id]; ok {
			pending = len(sw.pending)
		}
		c.mu.Unlock()
		if pending == n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("sweep %s did not reach %d pending trials within 5s", id, n)
}

// TestDistributedHedgingParity pins tail hedging end to end: a stalled
// primary's chunk is re-issued to an idle worker (no lease expiry
// involved), first result wins, and the digests match the oracle.
func TestDistributedHedgingParity(t *testing.T) {
	wantAgg, wantRes := localOracle(t)
	c, err := New(Config{ChunkSize: 4, HedgeLast: 8})
	if err != nil {
		t.Fatal(err)
	}

	done := make(chan struct {
		aggDig  string
		resDigs []string
	}, 1)
	go func() {
		aggDig, resDigs, _ := runDistributed(t, c, experiment.SweepOptions{})
		done <- struct {
			aggDig  string
			resDigs []string
		}{aggDig, resDigs}
	}()

	// The straggler holds a chunk forever; with hedging on, an idle
	// worker gets a duplicate grant instead of waiting for a TTL.
	straggler := c.register("straggler")
	waitLease(t, c, straggler)
	startFleet(t, c, 2)

	out := <-done
	assertParity(t, "hedged", out.aggDig, out.resDigs, wantAgg, wantRes)
	if got := c.Counters().LeasesHedged; got < 1 {
		t.Errorf("LeasesHedged = %d, want >= 1", got)
	}
}

// TestDistributedResultsResumeLocally pins "resumed, not recomputed":
// a distributed sweep with a cache leaves the same cache objects a local
// run would, so re-running the sweep locally serves every trial from the
// cache (Executed == 0) with identical digests.
func TestDistributedResultsResumeLocally(t *testing.T) {
	wantAgg, wantRes := localOracle(t)
	cacheDir := t.TempDir()

	c, err := New(Config{ChunkSize: 3})
	if err != nil {
		t.Fatal(err)
	}
	startFleet(t, c, 2)
	aggDig, resDigs, stats := runDistributed(t, c, experiment.SweepOptions{CacheDir: cacheDir})
	assertParity(t, "dist+cache", aggDig, resDigs, wantAgg, wantRes)
	if stats.Remote == 0 {
		t.Fatalf("first run stats = %+v, want remote trials", stats)
	}

	// Local re-run over the same store: nothing re-executes, nothing
	// goes remote.
	spec := testScenarioSpec(t)
	sc, err := spec.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	agg2, results2, stats2, err := experiment.RunSweep(experiment.Repeat(sc), testTrials, experiment.SweepOptions{CacheDir: cacheDir})
	if err != nil {
		t.Fatal(err)
	}
	if stats2.Executed != 0 || stats2.Remote != 0 {
		t.Fatalf("re-run stats = %+v, want Executed=0 Remote=0 (all from disk)", stats2)
	}
	if stats2.CacheHits != testTrials {
		t.Fatalf("re-run stats = %+v, want %d cache hits", stats2, testTrials)
	}
	aggDig2, resDigs2 := digests(t, agg2, results2)
	assertParity(t, "local-resume", aggDig2, resDigs2, wantAgg, wantRes)
}

// TestCoordinatorRestartLeasesOnlyUncachedTrials pins why the
// coordinator keeps no log: the trials a previous life finished sit in
// the result cache under their content addresses, so a fresh
// coordinator restarting the same sweep is asked for — and leases —
// only the rest.
func TestCoordinatorRestartLeasesOnlyUncachedTrials(t *testing.T) {
	wantAgg, wantRes := localOracle(t)
	cacheDir := t.TempDir()
	const k = 3

	// The previous life: the first k trials reached the cache.
	sc, err := testScenarioSpec(t).Scenario()
	if err != nil {
		t.Fatal(err)
	}
	if _, _, _, err := experiment.RunSweep(experiment.Repeat(sc), k, experiment.SweepOptions{CacheDir: cacheDir}); err != nil {
		t.Fatal(err)
	}

	c, err := New(Config{ChunkSize: 2})
	if err != nil {
		t.Fatal(err)
	}
	startFleet(t, c, 2)
	aggDig, resDigs, stats := runDistributed(t, c, experiment.SweepOptions{CacheDir: cacheDir})
	assertParity(t, "restart", aggDig, resDigs, wantAgg, wantRes)
	if stats.CacheHits != k || stats.Remote != testTrials-k {
		t.Errorf("stats = %+v, want CacheHits=%d Remote=%d", stats, k, testTrials-k)
	}
	if got := c.Counters().RemoteTrials; got != testTrials-k {
		t.Errorf("RemoteTrials = %d, want %d (cached trials are never leased)", got, testTrials-k)
	}
}

// TestWorkerDrain pins the graceful-drain contract: a draining worker
// returns nil from Run and deregisters, dropping the live-worker gauge.
func TestWorkerDrain(t *testing.T) {
	c, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	mux := http.NewServeMux()
	c.Mount(mux)
	ts := httptest.NewServer(mux)
	defer ts.Close()

	w, err := NewWorker(WorkerConfig{
		Coordinator:  ts.URL,
		PollInterval: time.Millisecond,
		Sleep:        testSleep,
	})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- w.Run(context.Background()) }()

	deadline := time.Now().Add(5 * time.Second)
	for c.Counters().WorkersLive == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never registered")
		}
		time.Sleep(time.Millisecond)
	}
	w.Drain()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("drained Run returned %v, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("worker did not drain")
	}
	if got := c.Counters().WorkersLive; got != 0 {
		t.Errorf("WorkersLive after drain = %d, want 0 (deregistered)", got)
	}
}
