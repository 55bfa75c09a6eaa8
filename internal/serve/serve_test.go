package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bgploop/internal/experiment"
	"bgploop/internal/sweep"
)

// newTestServer builds a Server with a real clock and small pools.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postRun(t *testing.T, ts *httptest.Server, body string) (*http.Response, JobView) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	var v JobView
	if resp.StatusCode == http.StatusAccepted || resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatalf("decode submit response: %v", err)
		}
	}
	return resp, v
}

func getJob(t *testing.T, ts *httptest.Server, id string) JobView {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/runs/" + id)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET run %s: status %d", id, resp.StatusCode)
	}
	var v JobView
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func waitTerminal(t *testing.T, ts *httptest.Server, id string) JobView {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		v := getJob(t, ts, id)
		if v.State.terminal() {
			return v
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("job %s did not reach a terminal state", id)
	return JobView{}
}

const cliqueBody = `{"spec": {"topology": {"family": "clique", "size": 6}, "event": "tdown", "seed": 5}, "trials": 2}`

// TestServedResultsMatchLocalRun is the e2e parity pin: the digests bgpd
// serves must equal the digests of the same scenario run directly
// through experiment.RunSweep (the engine behind bgpsim), and a repeat
// submission after completion must be served entirely from the cache
// while digesting identically.
func TestServedResultsMatchLocalRun(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheDir: t.TempDir()})

	resp, v := postRun(t, ts, cliqueBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status = %d, want 202", resp.StatusCode)
	}
	v = waitTerminal(t, ts, v.ID)
	if v.State != StateDone {
		t.Fatalf("job state = %s (%s), want done", v.State, v.Error)
	}
	if v.Stats == nil || v.Stats.Executed != 2 {
		t.Fatalf("first run stats = %+v, want Executed=2", v.Stats)
	}

	// The oracle: the same spec through the library path.
	req, sc, rerr := ParseRunRequest(strings.NewReader(cliqueBody), Limits{})
	if rerr != nil {
		t.Fatal(rerr)
	}
	agg, results, _, err := experiment.RunSweep(experiment.Repeat(sc), req.Trials, experiment.SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	wantAgg, err := experiment.DigestAggregate(agg)
	if err != nil {
		t.Fatal(err)
	}
	if v.AggregateDigest != wantAgg {
		t.Errorf("served aggregate digest %s != local %s", v.AggregateDigest, wantAgg)
	}
	if len(v.ResultDigests) != len(results) {
		t.Fatalf("served %d result digests, local has %d", len(v.ResultDigests), len(results))
	}
	for i, r := range results {
		want, err := experiment.DigestResult(r)
		if err != nil {
			t.Fatal(err)
		}
		if v.ResultDigests[i] != want {
			t.Errorf("trial %d: served digest %s != local %s", i, v.ResultDigests[i], want)
		}
	}

	// Warm-cache repeat: a fresh job, zero simulations, same digests.
	resp2, v2 := postRun(t, ts, cliqueBody)
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit status = %d, want 202 (completed jobs are not deduped)", resp2.StatusCode)
	}
	if v2.ID == v.ID {
		t.Fatal("second submission reused the completed job; want a fresh cache-served job")
	}
	v2 = waitTerminal(t, ts, v2.ID)
	if v2.State != StateDone {
		t.Fatalf("second job state = %s (%s)", v2.State, v2.Error)
	}
	if v2.Stats.Executed != 0 || v2.Stats.CacheHits != 2 || v2.Stats.Resumed != 0 {
		t.Fatalf("second run stats = %+v, want Executed=0, CacheHits=2, Resumed=0", v2.Stats)
	}
	if v2.AggregateDigest != wantAgg {
		t.Errorf("cache-served aggregate digest %s != local %s", v2.AggregateDigest, wantAgg)
	}
}

// blockingRunner swaps the sweep backend for one that parks until
// released, counting invocations.
type blockingRunner struct {
	started chan string
	release chan struct{}
	calls   atomic.Int64
}

func (b *blockingRunner) run(gen experiment.Generator, trials int, opts experiment.SweepOptions) (experiment.Aggregate, []*experiment.Result, sweep.Stats, error) {
	b.calls.Add(1)
	b.started <- "job"
	<-b.release
	return experiment.Aggregate{Trials: trials}, nil, sweep.Stats{Trials: trials}, nil
}

// TestOverloadDeterministic429 pins the admission bound: with one worker
// parked and the queue full, the next submission is refused with 429 and
// a Retry-After header — deterministically, not raceily.
func TestOverloadDeterministic429(t *testing.T) {
	br := &blockingRunner{started: make(chan string, 8), release: make(chan struct{})}
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 2})
	s.runSweep = br.run

	spec := func(seed int) string {
		return fmt.Sprintf(`{"spec": {"topology": {"family": "clique", "size": 4}, "event": "tdown", "seed": %d}}`, seed)
	}

	// First job occupies the worker...
	resp, _ := postRun(t, ts, spec(1))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit 1 status = %d", resp.StatusCode)
	}
	<-br.started
	// ...two more fill the queue...
	for i := 2; i <= 3; i++ {
		if resp, _ := postRun(t, ts, spec(i)); resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d status = %d, want 202", i, resp.StatusCode)
		}
	}
	// ...and the fourth must bounce.
	resp4, _ := postRun(t, ts, spec(4))
	if resp4.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit 4 status = %d, want 429", resp4.StatusCode)
	}
	if resp4.Header.Get("Retry-After") == "" {
		t.Error("429 response has no Retry-After header")
	}

	close(br.release)
	if err := s.Drain(t.Context()); err != nil {
		t.Fatal(err)
	}
	if got := s.metrics.snapshotCounter("bgpd_admission_rejects_total"); got != 1 {
		t.Errorf("admission rejects = %d, want 1", got)
	}
}

// TestConcurrentIdenticalSubmissionsCollapse pins job-level singleflight:
// N identical concurrent POSTs produce one job ID and exactly one sweep
// execution.
func TestConcurrentIdenticalSubmissionsCollapse(t *testing.T) {
	br := &blockingRunner{started: make(chan string, 1), release: make(chan struct{})}
	s, ts := newTestServer(t, Config{Workers: 2, QueueDepth: 8})
	s.runSweep = br.run

	const n = 8
	ids := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(cliqueBody))
			if err != nil {
				t.Error(err)
				return
			}
			defer func() { _ = resp.Body.Close() }()
			var v JobView
			if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
				t.Error(err)
				return
			}
			ids[i] = v.ID
		}(i)
	}
	wg.Wait()
	for _, id := range ids[1:] {
		if id != ids[0] {
			t.Fatalf("submissions landed on different jobs: %v", ids)
		}
	}
	close(br.release)
	if err := s.Drain(t.Context()); err != nil {
		t.Fatal(err)
	}
	if got := br.calls.Load(); got != 1 {
		t.Errorf("sweep executions = %d, want exactly 1 for %d identical submissions", got, n)
	}
}

// TestDrainLeavesNoGoroutines pins the shutdown contract: after Drain
// returns, the worker pool and all stream followers are gone.
func TestDrainLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()

	s, ts := newTestServer(t, Config{Workers: 4, QueueDepth: 8, CacheDir: t.TempDir()})
	_, v := postRun(t, ts, `{"spec": {"topology": {"family": "clique", "size": 4}, "event": "tdown", "seed": 9}}`)
	// Attach a stream so a follower goroutine exists during the run.
	streamDone := make(chan struct{})
	go func() {
		defer close(streamDone)
		resp, err := http.Get(ts.URL + "/v1/runs/" + v.ID + "/events")
		if err != nil {
			return
		}
		defer func() { _ = resp.Body.Close() }()
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
		}
	}()
	waitTerminal(t, ts, v.ID)
	<-streamDone

	if err := s.Drain(t.Context()); err != nil {
		t.Fatal(err)
	}
	ts.Close()

	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if n := runtime.NumGoroutine(); n <= before {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines: %d before, %d after drain\n%s",
				before, runtime.NumGoroutine(), buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestEventStreamNDJSON walks a job's stream end to end: queued,
// started, one trial event per trial, terminal done.
func TestEventStreamNDJSON(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	_, v := postRun(t, ts, `{"spec": {"topology": {"family": "clique", "size": 4}, "event": "tdown", "seed": 3}, "trials": 2}`)

	resp, err := http.Get(ts.URL + "/v1/runs/" + v.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Errorf("Content-Type = %q", ct)
	}
	var types []string
	trials := 0
	scanner := bufio.NewScanner(resp.Body)
	for scanner.Scan() {
		var e Event
		if err := json.Unmarshal(scanner.Bytes(), &e); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", scanner.Text(), err)
		}
		if e.Type == "trial" {
			trials++
			if e.Status != "done" || e.Source != "executed" {
				t.Errorf("trial event = %+v, want done/executed", e)
			}
			continue
		}
		types = append(types, e.Type)
	}
	if err := scanner.Err(); err != nil {
		t.Fatal(err)
	}
	if want := []string{"queued", "started", "done"}; !equalStrings(types, want) {
		t.Errorf("lifecycle events = %v, want %v", types, want)
	}
	if trials != 2 {
		t.Errorf("trial events = %d, want 2", trials)
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

const badGadgetBody = `{"spec": {"topology": {"family": "clique", "size": 4}, "event": "tdown",
	"policy": "badGadget", "mraiSeconds": -1, "maxEvents": 30000}}`

// TestMalformedFaultActionsRefused pins the 400 for a fault-plan action
// that lacks a field its op reads (nodeDown without "node" used to be
// admitted and fail AS 0) or carries one it does not read, and that a
// misspelt op is answered with the accepted vocabulary.
func TestMalformedFaultActionsRefused(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for action, want := range map[string]string{
		`{"op": "nodeDown"}`:                            `missing "node"`,
		`{"op": "nodeDown", "link": [1, 2]}`:            `op nodeDown`,
		`{"op": "linkDown", "link": [0, 1], "node": 4}`: `unexpected "node"`,
		`{"op": "linkDwon", "link": [0, 1]}`:            "sessionReset",
	} {
		body := `{"spec": {"topology": {"family": "ring", "size": 5}, "faultPlan": {"phases": [
			{"name": "p", "measure": true, "actions": [` + action + `]}]}}}`
		resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		var got struct {
			Error *RequestError `json:"error"`
		}
		err = json.NewDecoder(resp.Body).Decode(&got)
		_ = resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest || got.Error == nil || got.Error.Code != "bad_scenario" ||
			!strings.Contains(got.Error.Message, want) {
			t.Errorf("%s: status %d, error %+v; want 400 bad_scenario mentioning %s", action, resp.StatusCode, got.Error, want)
		}
	}
}

// TestOversizedSubmitIs413 pins that a POST /v1/runs body past
// Limits.MaxBodyBytes is 413 too_large, told apart from malformed JSON.
func TestOversizedSubmitIs413(t *testing.T) {
	const limit = 256
	_, ts := newTestServer(t, Config{Limits: Limits{MaxBodyBytes: limit}})
	body := strings.Repeat(" ", 2*limit) + cliqueBody
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		Error *RequestError `json:"error"`
	}
	err = json.NewDecoder(resp.Body).Decode(&got)
	_ = resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusRequestEntityTooLarge || got.Error == nil || got.Error.Code != "too_large" ||
		!strings.Contains(got.Error.Message, fmt.Sprint(limit)) {
		t.Errorf("status %d, error %+v; want 413 too_large naming the %d-byte limit", resp.StatusCode, got.Error, limit)
	}
}

// TestPreflightStrictRefuses pins the 422 refusal: a statically-UNSAFE
// submission never reaches the simulator under the default policy.
func TestPreflightStrictRefuses(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/v1/runs", "application/json", strings.NewReader(badGadgetBody))
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = resp.Body.Close() }()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, want 422", resp.StatusCode)
	}
	var body struct {
		Error *RequestError `json:"error"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Error == nil || body.Error.Code != "statically_unsafe" {
		t.Fatalf("error = %+v, want code statically_unsafe", body.Error)
	}
	if !strings.Contains(body.Error.Message, "dispute wheel") {
		t.Errorf("refusal message %q does not mention the dispute wheel", body.Error.Message)
	}
	if got := s.metrics.snapshotCounter("bgpd_preflight_refusals_total"); got != 1 {
		t.Errorf("preflight refusals = %d, want 1", got)
	}
}

// TestPreflightWarnAdmits pins the warn policy: the UNSAFE job is
// admitted with a warning and runs to its (failing, budget-capped) end.
func TestPreflightWarnAdmits(t *testing.T) {
	_, ts := newTestServer(t, Config{Preflight: PreflightWarn})
	resp, v := postRun(t, ts, badGadgetBody)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d, want 202", resp.StatusCode)
	}
	if !strings.Contains(v.Warning, "UNSAFE") {
		t.Errorf("warning = %q, want an UNSAFE notice", v.Warning)
	}
	v = waitTerminal(t, ts, v.ID)
	// BAD GADGET oscillates into its event budget: the trial fails, so
	// the job fails — but the server survives and reports it cleanly.
	if v.State != StateFailed {
		t.Fatalf("state = %s, want failed (non-quiescent oscillator)", v.State)
	}
	if v.Error == "" {
		t.Error("failed job carries no error text")
	}
}

// TestHealthzAndMetrics smoke-tests the operational endpoints.
func TestHealthzAndMetrics(t *testing.T) {
	s, ts := newTestServer(t, Config{CacheDir: t.TempDir()})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	_ = resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d", resp.StatusCode)
	}

	_, v := postRun(t, ts, cliqueBody)
	waitTerminal(t, ts, v.ID)
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer func() { _ = mresp.Body.Close() }()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(mresp.Body); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		"bgpd_submissions_total 1",
		"bgpd_jobs_completed_total 1",
		"bgpd_trials_executed_total 2",
		"bgpd_queue_depth",
		"bgpd_job_latency_seconds_run_bucket{le=\"+Inf\"} 1",
		"bgpd_job_latency_seconds_queue_count 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics exposition is missing %q:\n%s", want, text)
		}
	}

	// Draining flips healthz to 503.
	if err := s.Drain(t.Context()); err != nil {
		t.Fatal(err)
	}
	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	_ = hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining = %d, want 503", hresp.StatusCode)
	}
}

// TestSubmitAfterDrainRefused pins the draining admission path.
func TestSubmitAfterDrainRefused(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if err := s.Drain(t.Context()); err != nil {
		t.Fatal(err)
	}
	resp, _ := postRun(t, ts, cliqueBody)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining = %d, want 503", resp.StatusCode)
	}
}
