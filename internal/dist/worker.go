package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
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
	// Parallelism is the trial-level parallelism within one lease
	// (sweep executor Workers); 0 means GOMAXPROCS, 1 is sequential.
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
// finish the lease in hand, refuse new ones, and deregister.
type Worker struct {
	cfg      WorkerConfig
	id       string
	draining atomic.Bool

	mu    sync.Mutex
	stats WorkerStats
}

// NewWorker builds a worker; Run does the work.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	if cfg.Coordinator == "" {
		return nil, errors.New("dist: worker needs a coordinator URL")
	}
	return &Worker{cfg: cfg.withDefaults()}, nil
}

// Drain requests a graceful stop: the lease in hand finishes and is
// reported, no new lease is taken, and the worker deregisters. Safe
// from any goroutine (SIGTERM handlers).
func (w *Worker) Drain() { w.draining.Store(true) }

// Stats snapshots the worker's counters.
func (w *Worker) Stats() WorkerStats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stats
}

// Run is the worker loop: register, then poll-execute-report until the
// context is canceled or Drain is called. A canceled context abandons
// the lease in hand (the coordinator reassigns it after the TTL); Drain
// finishes it first. Run returns nil on a clean drain.
func (w *Worker) Run(ctx context.Context) error {
	if err := w.register(ctx); err != nil {
		return err
	}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if w.draining.Load() {
			return w.deregister(ctx)
		}
		resp, err := w.poll(ctx)
		if err != nil {
			if errors.Is(err, errUnregistered) {
				// Coordinator restarted and lost the registry: rejoin.
				if err := w.register(ctx); err != nil {
					return err
				}
				continue
			}
			return err
		}
		if resp.Lease == nil {
			w.cfg.Sleep(ctx, w.cfg.PollInterval)
			continue
		}
		results := w.execute(ctx, resp.Lease)
		w.mu.Lock()
		w.stats.Leases++
		if resp.Hedged {
			w.stats.Hedged++
		}
		w.mu.Unlock()
		if err := ctx.Err(); err != nil {
			return err // crash-style exit: the lease expires and is reassigned
		}
		if err := w.reportLease(ctx, resp.Lease, results); err != nil {
			if errors.Is(err, errUnregistered) {
				// The work is lost to a restarted coordinator; the new
				// incarnation re-grants it. Rejoin and continue.
				if err := w.register(ctx); err != nil {
					return err
				}
				continue
			}
			return err
		}
	}
}

// execute runs one lease's trials through the experiment sweep path and
// builds the per-trial report. It never fails as a whole: trial
// failures become per-trial Error entries.
func (w *Worker) execute(ctx context.Context, l *Lease) []TrialResult {
	var spec SweepSpec
	if err := json.Unmarshal(l.Spec, &spec); err != nil {
		return failAll(l, fmt.Sprintf("decode sweep spec: %v", err))
	}
	sc, err := spec.Spec.Scenario()
	if err != nil {
		return failAll(l, fmt.Sprintf("materialize scenario: %v", err))
	}
	gen := experiment.Repeat(sc)

	// Verify every trial's content address against the lease before
	// simulating anything: a key mismatch means this binary would
	// compute a different scenario than the coordinator addressed
	// (version skew), and its results must not enter the merge. The
	// computed key is reported so the coordinator classifies the trial
	// as a mismatch and re-pends it for a compatible worker.
	keys := make([]string, len(l.Trials))
	for j, trial := range l.Trials {
		s, err := gen(trial)
		if err != nil {
			return failAll(l, fmt.Sprintf("generate trial %d: %v", trial, err))
		}
		keys[j] = s.CacheKey()
		if j < len(l.Keys) && keys[j] != l.Keys[j] {
			return w.mismatch(l, keys)
		}
	}

	subGen := func(j int) (experiment.Scenario, error) { return gen(l.Trials[j]) }
	agg, results, _, _ := experiment.RunSweep(subGen, len(l.Trials), experiment.SweepOptions{
		ContinueOnFailure: true,
		MaxFailureRatio:   1, // per-trial reporting: never abort the chunk
		Workers:           w.cfg.Parallelism,
		CacheDir:          w.cfg.CacheDir,
		Context:           ctx,
	})
	failed := map[int]*experiment.TrialFailure{}
	for _, f := range agg.Failures {
		failed[f.Trial] = f
	}
	// Successful results come back in ascending sub-trial order; walk a
	// cursor over them, consuming one per non-failed sub-index.
	out := make([]TrialResult, 0, len(l.Trials))
	cursor := 0
	for j, trial := range l.Trials {
		tr := TrialResult{Trial: trial, Key: keys[j]}
		if f, ok := failed[j]; ok {
			tr.Error = f.Err.Error()
			w.mu.Lock()
			w.stats.Errors++
			w.mu.Unlock()
		} else if cursor < len(results) {
			data, err := experiment.EncodeResult(results[cursor])
			cursor++
			if err != nil {
				tr.Error = fmt.Sprintf("encode result: %v", err)
			} else {
				tr.Data = data
			}
		} else {
			// Canceled before this trial ran (context abort mid-chunk).
			tr.Error = "trial not executed"
		}
		w.mu.Lock()
		w.stats.Trials++
		w.mu.Unlock()
		out = append(out, tr)
	}
	return out
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

// mismatch reports the worker's computed keys without data or error:
// the coordinator rejects each as a key mismatch and the trials go back
// to pending when the lease completes, for a compatible worker to take.
func (w *Worker) mismatch(l *Lease, keys []string) []TrialResult {
	out := make([]TrialResult, len(l.Trials))
	for j, trial := range l.Trials {
		out[j] = TrialResult{Trial: trial, Key: keys[j], Error: "cache key mismatch: worker/coordinator version skew"}
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
	w.id = resp.Worker
	return nil
}

// deregister says goodbye; errors are ignored (the liveness window
// lapses anyway).
func (w *Worker) deregister(ctx context.Context) error {
	_ = w.call(ctx, "/v1/work/deregister", DeregisterRequest{Worker: w.id}, nil)
	return nil
}

// poll asks for a lease.
func (w *Worker) poll(ctx context.Context) (*LeaseResponse, error) {
	var resp LeaseResponse
	if err := w.call(ctx, "/v1/work/lease", LeaseRequest{Worker: w.id}, &resp); err != nil {
		return nil, err
	}
	return &resp, nil
}

// reportLease returns a completed lease's results.
func (w *Worker) reportLease(ctx context.Context, l *Lease, results []TrialResult) error {
	var resp ReportResponse
	return w.call(ctx, "/v1/work/result", ResultReport{
		Worker: w.id, Sweep: l.Sweep, Lease: l.ID, Results: results,
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
