package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"bgploop/internal/experiment"
)

// SweepSpec is the opaque payload a lease's Spec field carries: the
// scenario spec (the same schema as POST /v1/runs and `bgpsim
// -scenario`) plus the sweep width. The worker rebuilds trial i exactly
// as the coordinator's generator does — experiment.Repeat over the
// materialized scenario — so content addresses agree across machines.
type SweepSpec struct {
	Spec   experiment.ScenarioSpec `json:"spec"`
	Trials int                     `json:"trials"`
}

// EncodeSweepSpec renders the lease payload for StartSweep.
func EncodeSweepSpec(spec experiment.ScenarioSpec, trials int) ([]byte, error) {
	return json.Marshal(SweepSpec{Spec: spec, Trials: trials})
}

// WorkerConfig tunes one worker process.
type WorkerConfig struct {
	// Coordinator is the coordinator's base URL, e.g. http://host:8080.
	Coordinator string
	// Name is an advisory label sent at registration (diagnostics only).
	Name string
	// Client issues the HTTP calls; nil means http.DefaultClient.
	Client *http.Client
	// Parallelism is how many trials the worker runs at once, across
	// leases: a slot that ends a trial takes the next leased one, whatever
	// lease it belongs to; 0 means GOMAXPROCS, 1 is sequential.
	Parallelism int
	// CacheDir, when non-empty, gives the worker its own local
	// content-addressed result cache — a reassigned or hedged chunk the
	// worker already simulated is served from disk.
	CacheDir string
	// PollInterval is the idle wait between lease polls when the
	// coordinator has nothing to hand out; <= 0 means 250ms.
	PollInterval time.Duration
	// BackoffBase and BackoffMax shape the deterministic exponential
	// backoff for transient transport errors (base, 2×base, 4×base, …
	// capped at max). Defaults: 100ms base, 5s max.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Sleep waits for a duration or the context, whichever ends first.
	// The dist package may not touch the clock (detlint norealtime), so
	// the real sleeper is injected by cmd/bgpworker; nil means "do not
	// wait" (busy polling — fine for in-process loopback tests).
	Sleep func(ctx context.Context, d time.Duration)
}

func (c WorkerConfig) withDefaults() WorkerConfig {
	if c.Client == nil {
		c.Client = http.DefaultClient
	}
	if c.Parallelism <= 0 {
		c.Parallelism = runtime.GOMAXPROCS(0)
	}
	if c.PollInterval <= 0 {
		c.PollInterval = 250 * time.Millisecond
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 100 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 5 * time.Second
	}
	if c.Sleep == nil {
		c.Sleep = func(context.Context, time.Duration) {}
	}
	return c
}

// WorkerStats counts what a worker did.
type WorkerStats struct {
	Leases  int64 // leases executed
	Hedged  int64 // of those, duplicate (hedge) grants
	Trials  int64 // trials executed and reported
	Errors  int64 // trials reported as failed
	Retries int64 // transient transport retries
}

// Worker is the fleet half of the protocol: it registers with a
// coordinator, pulls leases, executes their trials through
// experiment.RunSweep, and reports per-trial results. Drain makes it
// finish every lease in hand, refuse new ones, and deregister.
type Worker struct {
	cfg      WorkerConfig
	draining atomic.Bool
	// trial runs one trial into tr (Data or Error); tests swap it for a
	// fake that blocks on their signal.
	trial func(ctx context.Context, gen experiment.Generator, tr *TrialResult)

	regMu sync.Mutex // serialises rejoins
	mu    sync.Mutex
	id    string
	stats WorkerStats
}

// NewWorker builds a worker; Run does the work.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Coordinator == "" {
		return nil, errors.New("dist: worker needs a coordinator URL")
	}
	w := &Worker{cfg: cfg.withDefaults()}
	w.trial = w.runTrial
	return w, nil
}

// Drain requests a graceful stop: every lease in hand finishes and is
// reported, no new lease is taken, and the worker deregisters. Safe
// from any goroutine (SIGTERM handlers).
func (w *Worker) Drain() { w.draining.Store(true) }

// Stats snapshots the worker's counters.
func (w *Worker) Stats() WorkerStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stats
}

// held is one lease in the worker's hands. Its trials run on whichever
// slots are free; the slot that ends the last one queues its report.
type held struct {
	lease   *Lease
	hedged  bool
	gen     experiment.Generator
	results []TrialResult
	left    int // trials not yet ended; guarded by Worker.mu
}

// Run is the worker: register, then keep Parallelism trial slots busy
// until the context is canceled or Drain is called. One poller asks for
// a lease only when a slot is idle and no leased trial waits to start;
// a lease's trials go to whichever slots are free, and a reporter sends
// each lease's results as soon as its last trial ends while the slots
// go on computing. A canceled context abandons the leases in hand (the
// coordinator reassigns them after the TTL); Drain finishes and reports
// every one of them first. Run returns nil on a clean drain.
func (w *Worker) Run(ctx context.Context) error {
	if err := w.register(ctx); err != nil {
		return err
	}
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	n := w.cfg.Parallelism
	// A slot sends one idle token, then waits for one trial: at most n
	// tokens are ever unclaimed, so the send never blocks.
	idle := make(chan struct{}, n)
	trials := make(chan func())    // runs one leased trial, then ends it
	reports := make(chan *held, n) // a slot ending a lease rarely waits on the last report
	var slots sync.WaitGroup
	for i := 0; i < n; i++ {
		slots.Add(1)
		go func() {
			defer slots.Done()
			idle <- struct{}{}
			for run := range trials {
				run()
				idle <- struct{}{}
			}
		}()
	}
	reported := make(chan error, 1)
	go func() { reported <- w.report(ctx, cancel, reports) }()

	err := w.feed(ctx, idle, trials, reports)
	close(trials)
	slots.Wait()
	close(reports)
	if rerr := <-reported; rerr != nil {
		err = rerr
	} else if err == nil {
		err = ctx.Err() // canceled mid-drain: the unreported leases are abandoned
	}
	if err != nil {
		return err
	}
	return w.deregister(ctx)
}

// feed is the poller. Each idle token is one slot waiting for one
// trial: feed hands it the oldest queued trial, polling for a lease
// first when none is queued. It returns nil once a drain leaves nothing
// queued, and the error that stops the worker otherwise.
func (w *Worker) feed(ctx context.Context, idle <-chan struct{}, trials chan<- func(), reports chan<- *held) error {
	var queue []func()
	for {
		select {
		case <-idle:
		case <-ctx.Done():
			return ctx.Err()
		}
		for len(queue) == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
			if w.draining.Load() {
				return nil
			}
			id := w.workerID()
			resp, err := w.poll(ctx, id)
			switch {
			case errors.Is(err, errUnregistered):
				// Coordinator restarted and lost the registry: rejoin.
				if err := w.rejoin(ctx, id); err != nil {
					return err
				}
			case err != nil:
				return err
			case resp.Lease == nil:
				w.cfg.Sleep(ctx, w.cfg.PollInterval)
			default:
				h := w.accept(resp)
				if h.left == 0 {
					w.end(h, reports)
				}
				for j := 0; j < h.left; j++ {
					queue = append(queue, func() {
						w.trial(ctx, h.gen, &h.results[j])
						w.end(h, reports)
					})
				}
			}
		}
		trials <- queue[0]
		queue = queue[1:]
	}
}

// report is the reporter: it sends each finished lease's results while
// the slots keep computing. A failed report that is not a lost
// registration cancels the worker, and report returns its error once
// the slots have stopped.
func (w *Worker) report(ctx context.Context, cancel context.CancelFunc, reports <-chan *held) error {
	var failed error
	for h := range reports {
		if ctx.Err() != nil {
			continue // abandoned: the coordinator reassigns it after the TTL
		}
		id := w.workerID()
		err := w.reportLease(ctx, id, h.lease, h.results)
		if errors.Is(err, errUnregistered) {
			// The work is lost to a restarted coordinator; the new
			// incarnation re-grants it. Rejoin and continue.
			err = w.rejoin(ctx, id)
		}
		if err != nil && ctx.Err() == nil {
			failed = err
			cancel()
		}
	}
	return failed
}

// end notes that one of h's trials ended, or that h failed before any
// could run. The last end counts the lease and queues its report.
func (w *Worker) end(h *held, reports chan<- *held) {
	w.mu.Lock()
	h.left--
	last := h.left <= 0
	if last {
		w.stats.Leases++
		if h.hedged {
			w.stats.Hedged++
		}
	}
	w.mu.Unlock()
	if last {
		reports <- h
	}
}

// accept takes a granted lease into the worker's hands. It rebuilds the
// scenario and verifies every trial's content address before any of the
// lease's trials simulates; a lease that fails here comes back with its
// results filled in and nothing left to run.
func (w *Worker) accept(resp *LeaseResponse) *held {
	l := resp.Lease
	h := &held{lease: l, hedged: resp.Hedged}
	fail := func(msg string) *held {
		h.results = failAll(l, msg)
		return h
	}
	var spec SweepSpec
	if err := json.Unmarshal(l.Spec, &spec); err != nil {
		return fail(fmt.Sprintf("decode sweep spec: %v", err))
	}
	sc, err := spec.Spec.Scenario()
	if err != nil {
		return fail(fmt.Sprintf("materialize scenario: %v", err))
	}
	h.gen = experiment.Repeat(sc)
	h.results = make([]TrialResult, len(l.Trials))
	for j, trial := range l.Trials {
		s, err := h.gen(trial)
		if err != nil {
			return fail(fmt.Sprintf("generate trial %d: %v", trial, err))
		}
		h.results[j] = TrialResult{Trial: trial, Key: s.CacheKey()}
		if j < len(l.Keys) && h.results[j].Key != l.Keys[j] {
			// Version skew: this binary would compute a different
			// scenario than the coordinator addressed. The computed keys
			// go back without data, so the coordinator rejects each
			// trial as a mismatch and re-pends it for a compatible
			// worker.
			for k, trial := range l.Trials {
				h.results[k].Trial = trial
				h.results[k].Error = "cache key mismatch: worker/coordinator version skew"
			}
			return h
		}
	}
	h.left = len(l.Trials)
	return h
}

// runTrial simulates one trial through the experiment sweep path, so a
// trial the worker's own cache holds is served from disk, and fills in
// its report entry. Trial failures become the entry's Error.
func (w *Worker) runTrial(ctx context.Context, gen experiment.Generator, tr *TrialResult) {
	one := func(int) (experiment.Scenario, error) { return gen(tr.Trial) }
	agg, results, _, _ := experiment.RunSweep(one, 1, experiment.SweepOptions{
		ContinueOnFailure: true,
		MaxFailureRatio:   1, // per-trial reporting: never abort
		Workers:           1,
		CacheDir:          w.cfg.CacheDir,
		Context:           ctx,
	})
	switch {
	case len(agg.Failures) > 0:
		tr.Error = agg.Failures[0].Err.Error()
	case len(results) == 0:
		tr.Error = "trial not executed" // canceled before it ran
	default:
		var err error
		if tr.Data, err = experiment.EncodeResult(results[0]); err != nil {
			tr.Error = fmt.Sprintf("encode result: %v", err)
		}
	}
	w.mu.Lock()
	w.stats.Trials++
	if len(agg.Failures) > 0 {
		w.stats.Errors++
	}
	w.mu.Unlock()
}

// failAll reports every trial of a lease failed with one message
// (spec-level problems that precede simulation).
func failAll(l *Lease, msg string) []TrialResult {
	out := make([]TrialResult, len(l.Trials))
	for j, trial := range l.Trials {
		key := ""
		if j < len(l.Keys) {
			key = l.Keys[j]
		}
		out[j] = TrialResult{Trial: trial, Key: key, Error: msg}
	}
	return out
}

// register obtains the worker's canonical ID, retrying transient
// transport errors.
func (w *Worker) register(ctx context.Context) error {
	var resp RegisterResponse
	if err := w.call(ctx, "/v1/work/register", RegisterRequest{Name: w.cfg.Name}, &resp); err != nil {
		return fmt.Errorf("dist: register: %w", err)
	}
	if resp.Worker == "" {
		return errors.New("dist: register: coordinator assigned empty worker id")
	}
	w.mu.Lock()
	w.id = resp.Worker
	w.mu.Unlock()
	return nil
}

// rejoin re-registers after the coordinator refused stale, the ID a
// call presented (it restarted and lost the registry). The poller and
// the reporter may both see the refusal; only the first rejoins.
func (w *Worker) rejoin(ctx context.Context, stale string) error {
	w.regMu.Lock()
	defer w.regMu.Unlock()
	if w.workerID() != stale {
		return nil
	}
	return w.register(ctx)
}

// workerID is the ID the worker presents on its calls.
func (w *Worker) workerID() string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.id
}

// deregister says goodbye; errors are ignored (the liveness window
// lapses anyway).
func (w *Worker) deregister(ctx context.Context) error {
	_ = w.call(ctx, "/v1/work/deregister", DeregisterRequest{Worker: w.workerID()}, nil)
	return nil
}

// poll asks for a lease as worker id.
func (w *Worker) poll(ctx context.Context, id string) (*LeaseResponse, error) {
	var resp LeaseResponse
	if err := w.call(ctx, "/v1/work/lease", LeaseRequest{Worker: id}, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// reportLease returns a completed lease's results as worker id.
func (w *Worker) reportLease(ctx context.Context, id string, l *Lease, results []TrialResult) error {
	var resp ReportResponse
	return w.call(ctx, "/v1/work/result", ResultReport{
		Worker: id, Sweep: l.Sweep, Lease: l.ID, Results: results,
	}, &resp)
}

// callAttempts caps the tries of one call, consecutive transport retries
// included, before the worker gives the call up.
const callAttempts = 8

// call POSTs one JSON request with deterministic capped exponential
// backoff on transient failures (network errors and 5xx). 4xx responses
// are final; 409 worker_unknown maps to errUnregistered so the loop
// re-registers.
func (w *Worker) call(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return err
	}
	var last error
	for attempt := 0; attempt < callAttempts; attempt++ {
		if attempt > 0 {
			w.mu.Lock()
			w.stats.Retries++
			w.mu.Unlock()
			w.cfg.Sleep(ctx, backoff(w.cfg.BackoffBase, w.cfg.BackoffMax, attempt))
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		retry, err := w.once(ctx, path, body, out)
		if err == nil {
			return nil
		}
		last = err
		if !retry {
			return err
		}
	}
	return fmt.Errorf("dist: %s failed after %d attempts: %w", path, callAttempts, last)
}

// once issues one attempt; retry reports whether the failure is
// transient.
func (w *Worker) once(ctx context.Context, path string, body []byte, out any) (retry bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.cfg.Coordinator+path, bytes.NewReader(body))
	if err != nil {
		return false, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := w.cfg.Client.Do(req)
	if err != nil {
		return true, err // network-level: transient
	}
	defer func() { _ = resp.Body.Close() }()
	switch {
	case resp.StatusCode == http.StatusNoContent:
		return false, nil
	case resp.StatusCode == http.StatusConflict:
		return false, errUnregistered
	case resp.StatusCode >= 500:
		return true, fmt.Errorf("dist: %s: HTTP %d", path, resp.StatusCode)
	case resp.StatusCode >= 400:
		var e struct {
			Error workError `json:"error"`
		}
		if json.NewDecoder(resp.Body).Decode(&e) == nil && e.Error.Code != "" {
			return false, fmt.Errorf("dist: %s: %s: %s", path, e.Error.Code, e.Error.Message)
		}
		return false, fmt.Errorf("dist: %s: HTTP %d", path, resp.StatusCode)
	}
	if out == nil {
		return false, nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return true, fmt.Errorf("dist: %s: decode response: %w", path, err)
	}
	return false, nil
}

// backoff is the deterministic capped exponential schedule: base,
// 2×base, 4×base, … capped at max. No jitter — the package admits no
// randomness (detlint noglobalrand), and lease IDs already stagger the
// fleet.
func backoff(base, max time.Duration, attempt int) time.Duration {
	d := base
	for i := 1; i < attempt && d < max; i++ {
		d *= 2
	}
	if d > max {
		d = max
	}
	return d
}
