// Package serve is bgpd's simulation-as-a-service layer: a deterministic
// job queue over the experiment sweep engine, exposed as a small HTTP
// API (POST /v1/runs, GET /v1/runs/{id}, streaming /events, /healthz,
// /metrics).
//
// The server is a pure shell around the simulation core: admission
// control, scheduling, caching, and streaming never influence what a
// trial computes. A result served by bgpd is byte-identical — digest for
// digest — to the same scenario run through `bgpsim`, and the e2e parity
// tests pin exactly that.
//
// Three layers keep duplicate work off the simulator:
//
//   - job-level dedupe: concurrent submissions of an identical cacheable
//     request collapse onto the already-queued/running job;
//   - trial-level singleflight (sweep.Flight, shared process-wide): jobs
//     that overlap in individual trials share executions;
//   - the content-addressed result cache: repeat submissions after
//     completion create a fresh job whose trials are all served from
//     disk (Executed == 0).
//
// With Config.StoreDir a restart recovers from two stores and nothing
// else: the job WAL says which jobs were accepted and which finished
// (with what digests), the result cache says which trials are done.
//
// The package sits in detlint's "harness" scope: goroutines are allowed,
// but no wall clock (the Config.Now hook injects time), no global rand
// (job IDs are sequential), no map-order dependence, and no float
// equality.
package serve

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"bgploop/internal/dist"
	"bgploop/internal/durable"
	"bgploop/internal/experiment"
	"bgploop/internal/safety"
	"bgploop/internal/sweep"
)

// PreflightPolicy selects how the static safety gate treats
// statically-UNSAFE submissions.
type PreflightPolicy string

const (
	// PreflightStrict refuses UNSAFE scenarios at admission with a 422
	// carrying the dispute-wheel witness. The default.
	PreflightStrict PreflightPolicy = "strict"
	// PreflightWarn admits UNSAFE scenarios but attaches the witness as
	// a warning on the job and its event stream.
	PreflightWarn PreflightPolicy = "warn"
)

// Config tunes a Server. The zero value is usable for tests: results are
// uncached unless CacheDir is set, and time stands still unless Now is
// injected.
type Config struct {
	// CacheDir roots the content-addressed result cache. Empty disables
	// persistence (results are still computed and served, dedupe
	// degrades to in-flight collapsing only). When StoreDir is set and
	// CacheDir is empty, CacheDir defaults to <StoreDir>/cache.
	CacheDir string
	// StoreDir, when non-empty, makes the server crash-safe: every
	// accepted submission is appended (and fsynced) to a job write-ahead
	// log under <StoreDir>/wal before admission returns, terminal states
	// are logged, and a restarted server replays the log — re-enqueueing
	// incomplete jobs (whose completed trials come back from the result
	// cache) and restoring terminal job views so GET /v1/runs/{id}
	// survives the restart. Empty disables the WAL.
	StoreDir string
	// FS routes WAL and cache file operations; nil means the real
	// filesystem. Fault-injection tests pass a durable.FaultFS.
	FS durable.FS
	// Workers is the job worker-pool width (in-flight job cap); <= 0
	// means 2.
	Workers int
	// QueueDepth caps the jobs waiting for a worker; <= 0 means 16.
	// Submissions beyond queue+workers capacity get 429 + Retry-After.
	QueueDepth int
	// TrialWorkers is the per-job sweep parallelism; <= 0 means 1
	// (sequential, the regression oracle; results are byte-identical at
	// any width).
	TrialWorkers int
	// JobTimeout, when positive, deadlines each job's execution.
	JobTimeout time.Duration
	// Preflight is the static-safety admission policy; "" means strict.
	Preflight PreflightPolicy
	// Limits bounds individual submissions; zero fields take defaults.
	Limits Limits
	// Now injects the wall clock for latency metrics (cmd/bgpd passes
	// time.Now; the serve package itself may not touch it — detlint's
	// norealtime scope). Nil freezes latencies at zero, which only mutes
	// metrics; correctness never depends on time.
	Now func() time.Time
	// Dist, when non-nil, distributes cacheable jobs across the worker
	// fleet: the coordinator's /v1/work endpoints are mounted on the
	// server mux, each cacheable job's trials run through the remote
	// executor seam (sweep.Options.Remote), and the coordinator's
	// counters surface as the bgpd_dist_* metric families. Requires a
	// CacheDir — distribution leans on content addresses. Uncacheable
	// jobs always run locally.
	Dist *dist.Coordinator
}

const (
	// maxJobs caps the retained job records; once exceeded the oldest
	// terminal jobs are evicted. See Config.jobCap for its floor.
	maxJobs = 512
	// eventCap bounds each job's event replay buffer.
	eventCap = 4096
)

// jobCap is maxJobs, raised when needed so that every job that can be
// active at once (queued or running) plus one more fits.
func (c Config) jobCap() int {
	return max(maxJobs, c.QueueDepth+c.Workers+1)
}

func (c Config) withDefaults() Config {
	if c.StoreDir != "" && c.CacheDir == "" {
		c.CacheDir = filepath.Join(c.StoreDir, "cache")
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 16
	}
	if c.TrialWorkers <= 0 {
		c.TrialWorkers = 1
	}
	if c.Preflight == "" {
		c.Preflight = PreflightStrict
	}
	if c.Now == nil {
		c.Now = func() time.Time { return time.Time{} }
	}
	c.Limits = c.Limits.withDefaults()
	return c
}

// JobState is a job's lifecycle state.
type JobState string

const (
	StateQueued   JobState = "queued"
	StateRunning  JobState = "running"
	StateDone     JobState = "done"
	StateFailed   JobState = "failed"
	StateCanceled JobState = "canceled"
)

// terminal reports whether the state is final.
func (s JobState) terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCanceled
}

// job is one accepted submission.
type job struct {
	id     string
	key    string // dedupe key; "" = uncacheable, never deduped
	trials int
	spec   experiment.ScenarioSpec
	sc     experiment.Scenario
	log    *eventLog

	submitted time.Time
	cancel    context.CancelFunc

	mu       sync.Mutex
	state    JobState
	warning  string
	errText  string
	stats    sweep.Stats
	agg      *experiment.Aggregate
	aggDig   string
	resDigs  []string
	started  time.Time
	finished time.Time
}

// Server is the bgpd service core. Create with New, mount via Handler,
// stop with Drain.
type Server struct {
	cfg     Config
	flight  *sweep.Flight
	metrics *registry
	mux     *http.ServeMux

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string          // job IDs in admission order (for listing and eviction)
	byKey    map[string]string // dedupe key -> ID of the queued/running job
	queue    chan *job
	nextID   int
	draining bool

	wg sync.WaitGroup // worker pool

	// runSweep is the execution backend, swappable by tests to inject
	// blocking or counting runners. Defaults to experiment.RunSweep.
	runSweep func(gen experiment.Generator, trials int, opts experiment.SweepOptions) (experiment.Aggregate, []*experiment.Result, sweep.Stats, error)

	rootCtx    context.Context
	rootCancel context.CancelFunc

	// wal is the job write-ahead log (nil without Config.StoreDir);
	// recovery holds what its replay did at startup.
	wal      *durable.WAL
	recovery RecoveryStats
}

// New builds a Server, replays its job WAL (when Config.StoreDir is
// set), and starts the worker pool. The error is non-nil only for
// storage problems opening or compacting the WAL — a server without a
// StoreDir cannot fail.
func New(cfg Config) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:      cfg,
		flight:   sweep.NewFlight(),
		metrics:  newRegistry(),
		jobs:     map[string]*job{},
		byKey:    map[string]string{},
		queue:    make(chan *job, cfg.QueueDepth),
		runSweep: experiment.RunSweep,
	}
	s.rootCtx, s.rootCancel = context.WithCancel(context.Background())
	s.mux = s.routes()
	if cfg.StoreDir != "" {
		wal, records, err := durable.OpenWAL(cfg.FS, walPath(cfg.StoreDir))
		if err != nil {
			return nil, fmt.Errorf("serve: open job WAL: %w", err)
		}
		s.wal = wal
		s.recovery.DroppedRecords = wal.Dropped()
		if err := s.recoverWAL(records); err != nil {
			_ = wal.Close()
			return nil, err
		}
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// Handler returns the HTTP surface.
func (s *Server) Handler() http.Handler { return s.mux }

// now reads the injected clock.
func (s *Server) now() time.Time { return s.cfg.Now() }

// submitOutcome describes an admission decision for the handler layer.
type submitOutcome struct {
	job     *job
	deduped bool
	err     *RequestError
}

// submit runs admission control for one parsed request: preflight gate,
// dedupe against in-flight jobs, capacity check, enqueue. The job runs
// the scenario as admitted, with no static watchdog bound: a job the WAL
// recovers is rebuilt from its spec, so it could not carry one either.
func (s *Server) submit(req *RunRequest, sc experiment.Scenario) submitOutcome {
	warning := ""
	rep, err := experiment.Preflight(sc, s.cfg.Preflight == PreflightStrict)
	if err != nil && !errors.Is(err, experiment.ErrStaticallyUnsafe) {
		return submitOutcome{err: &RequestError{
			Status: http.StatusBadRequest, Code: "preflight_error",
			Message: fmt.Sprintf("static analysis failed: %v", err),
		}}
	}
	if rep.Verdict == safety.Unsafe {
		detail := rep.Reason + "\n" + rep.Wheel.String()
		if err != nil {
			s.metrics.inc("bgpd_preflight_refusals_total", 1)
			return submitOutcome{err: &RequestError{
				Status: http.StatusUnprocessableEntity, Code: "statically_unsafe",
				Message: "scenario is statically UNSAFE (dispute wheel); the server runs with -preflight strict\n" + detail,
			}}
		}
		warning = "scenario is statically UNSAFE (dispute wheel); running anyway under -preflight warn\n" + detail
	}

	key := jobKey(sc, req.Trials)

	s.mu.Lock()
	defer s.mu.Unlock()

	if s.draining {
		return submitOutcome{err: &RequestError{
			Status: http.StatusServiceUnavailable, Code: "draining",
			Message: "server is draining; no new jobs accepted",
		}}
	}
	// Singleflight at the job level: a concurrent identical submission
	// joins the queued/running job instead of creating a new one.
	// Completed jobs are deliberately not reused — a repeat submission
	// gets a fresh job whose trials are served from the result cache
	// (stats then show Executed == 0), so "was this recomputed?" stays
	// observable per submission.
	if key != "" {
		if id, ok := s.byKey[key]; ok {
			return submitOutcome{job: s.jobs[id], deduped: true}
		}
	}

	s.evictLocked()
	if len(s.jobs) >= s.cfg.jobCap() {
		s.metrics.inc("bgpd_admission_rejects_total", 1)
		return submitOutcome{err: &RequestError{
			Status: http.StatusTooManyRequests, Code: "overloaded",
			Message: "job table is full of active jobs; retry later",
		}}
	}

	s.nextID++
	j := &job{
		id:        fmt.Sprintf("job-%06d", s.nextID),
		key:       key,
		trials:    req.Trials,
		spec:      req.Spec,
		sc:        sc,
		state:     StateQueued,
		warning:   warning,
		log:       newEventLog(),
		submitted: s.now(),
	}

	// Write-ahead: the acceptance is durable before the client hears
	// about it, so a crash after this point can never lose an
	// acknowledged job. A WAL failure (disk full, I/O error) refuses the
	// submission — accepting a job we cannot make durable would break the
	// crash-safety contract.
	if s.wal != nil {
		rec, err := walRecordSubmit(j)
		if err == nil {
			err = s.walAppend(rec)
		}
		if err != nil {
			s.nextID--
			return submitOutcome{err: &RequestError{
				Status: http.StatusInsufficientStorage, Code: "wal_error",
				Message: fmt.Sprintf("cannot journal the submission: %v", err),
			}}
		}
	}

	// Log before enqueueing: once queued, a worker may log "started".
	j.log.append(Event{Type: "queued"})
	if warning != "" {
		j.log.append(Event{Type: "warning", Message: warning})
	}
	select {
	case s.queue <- j:
	default:
		// The acceptance record is already durable; mark it aborted so a
		// restart does not resurrect a submission the client was told to
		// retry.
		_ = s.walAppend(durable.Record{Type: "state", Job: j.id, State: walStateAborted})
		s.metrics.inc("bgpd_admission_rejects_total", 1)
		return submitOutcome{err: &RequestError{
			Status: http.StatusTooManyRequests, Code: "overloaded",
			Message: fmt.Sprintf("queue is full (%d waiting jobs); retry later", cap(s.queue)),
		}}
	}

	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	if key != "" {
		s.byKey[key] = j.id
	}
	s.metrics.inc("bgpd_submissions_total", 1)
	s.metrics.set("bgpd_queue_depth", int64(len(s.queue)))
	if warning != "" {
		s.metrics.inc("bgpd_preflight_warnings_total", 1)
	}
	return submitOutcome{job: j}
}

// evictLocked drops the oldest terminal jobs while the table exceeds the
// retention cap. Active jobs are never evicted. Callers hold s.mu.
func (s *Server) evictLocked() {
	for len(s.jobs) >= s.cfg.jobCap() {
		evicted := false
		for i, id := range s.order {
			j := s.jobs[id]
			j.mu.Lock()
			terminal := j.state.terminal()
			j.mu.Unlock()
			if terminal {
				delete(s.jobs, id)
				s.order = append(s.order[:i], s.order[i+1:]...)
				evicted = true
				break
			}
		}
		if !evicted {
			return
		}
	}
}

// worker executes queued jobs until the queue closes (Drain).
func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		s.metrics.set("bgpd_queue_depth", int64(len(s.queue)))
		s.runJob(j)
	}
}

// runJob executes one job through the sweep engine and records the
// outcome. The server layer adds nothing to the results: digests are
// computed with the same DigestResult/DigestAggregate used by bgpsim.
func (s *Server) runJob(j *job) {
	s.metrics.inc("bgpd_jobs_running", 1)
	defer s.metrics.inc("bgpd_jobs_running", -1)
	start := s.now()
	j.mu.Lock()
	j.state = StateRunning
	j.started = start
	j.mu.Unlock()
	s.metrics.observe("bgpd_job_latency_seconds_queue", start.Sub(j.submitted).Seconds())
	j.log.append(Event{Type: "started"})

	var (
		ctx    context.Context
		cancel context.CancelFunc
	)
	if s.cfg.JobTimeout > 0 {
		ctx, cancel = context.WithTimeout(s.rootCtx, s.cfg.JobTimeout)
	} else {
		ctx, cancel = context.WithCancel(s.rootCtx)
	}
	j.mu.Lock()
	j.cancel = cancel
	j.mu.Unlock()
	defer cancel()

	var stats sweep.Stats
	opts := experiment.SweepOptions{
		Workers:           s.cfg.TrialWorkers,
		Context:           ctx,
		Stats:             &stats,
		ContinueOnFailure: true,
		Progress: func(trial int, st sweep.Status, src sweep.Source) {
			t := trial
			j.log.append(Event{Type: "trial", Trial: &t, Status: st.String(), Source: sourceName(src)})
		},
	}
	if s.cfg.CacheDir != "" && j.key != "" {
		// Cacheable job: content-addressed store and the process-wide
		// trial singleflight. Uncacheable jobs (empty CacheKey) run bare
		// — nothing to share or persist.
		opts.CacheDir = s.cfg.CacheDir
		opts.Flight = s.flight
		opts.FS = s.cfg.FS

		if s.cfg.Dist != nil {
			// Distributed execution: register the sweep with the
			// coordinator (its ID is the job's dedupe key — a content
			// address, so a restarted server resumes the same sweep)
			// and plug its Execute in as the remote trial executor. All
			// trials must be in flight at once for the fleet to see
			// them, so the executor runs at full width; the merge is
			// byte-identical at any width. Any registration problem
			// falls back to local execution — distribution is an
			// optimization, never a correctness dependency.
			if spec, serr := dist.EncodeSweepSpec(j.spec, j.trials); serr == nil {
				if sw, serr := s.cfg.Dist.StartSweep(j.key, spec, j.trials); serr == nil {
					defer sw.Finish()
					opts.Remote = sw.Execute
					opts.Workers = j.trials
				}
			}
		}
	}

	agg, results, _, err := s.runSweep(experiment.Repeat(j.sc), j.trials, opts)

	end := s.now()
	s.metrics.observe("bgpd_job_latency_seconds_run", end.Sub(start).Seconds())
	s.metrics.observe("bgpd_job_latency_seconds_total", end.Sub(j.submitted).Seconds())
	s.recordTrialStats(stats)

	j.mu.Lock()
	j.finished = end
	j.stats = stats
	j.agg = &agg
	if d, derr := experiment.DigestAggregate(agg); derr == nil {
		j.aggDig = d
	}
	for _, r := range results {
		if d, derr := experiment.DigestResult(r); derr == nil {
			j.resDigs = append(j.resDigs, d)
		}
	}
	var terminal Event
	switch {
	case err != nil && (errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)):
		j.state = StateCanceled
		j.errText = err.Error()
		terminal = Event{Type: "canceled", Message: err.Error()}
		s.metrics.inc("bgpd_jobs_canceled_total", 1)
	case err != nil:
		j.state = StateFailed
		j.errText = err.Error()
		terminal = Event{Type: "failed", Message: err.Error()}
		s.metrics.inc("bgpd_jobs_failed_total", 1)
	default:
		j.state = StateDone
		terminal = Event{Type: "done", Message: fmt.Sprintf("%d/%d trials aggregated", agg.Trials, j.trials)}
		s.metrics.inc("bgpd_jobs_completed_total", 1)
	}
	walRec := walRecordTerminal(j)
	j.mu.Unlock()
	_ = s.walAppend(walRec)

	s.mu.Lock()
	if j.key != "" && s.byKey[j.key] == j.id {
		delete(s.byKey, j.key)
	}
	s.mu.Unlock()

	_, dropped := j.log.snapshot()
	terminal.Dropped = dropped
	j.log.append(terminal)
	j.log.close()
}

// recordTrialStats folds one job's sweep statistics into the metrics.
func (s *Server) recordTrialStats(st sweep.Stats) {
	s.metrics.inc("bgpd_trials_total", int64(st.Trials))
	s.metrics.inc("bgpd_trials_executed_total", int64(st.Executed))
	s.metrics.inc("bgpd_trials_cache_hits_total", int64(st.CacheHits))
	s.metrics.inc("bgpd_trials_cache_misses_total", int64(st.CacheMisses))
	s.metrics.inc("bgpd_trials_deduped_total", int64(st.Deduped))
	s.metrics.inc("bgpd_trials_remote_total", int64(st.Remote))
	s.metrics.inc("bgpd_trials_failed_total", int64(st.Failed))
	s.metrics.inc("bgpd_trials_canceled_total", int64(st.Canceled))
	s.recordQuarantined(st)
	// Cache hit ratio in basis points (the exposition is integer-only).
	hits := s.metrics.snapshotCounter("bgpd_trials_cache_hits_total")
	misses := s.metrics.snapshotCounter("bgpd_trials_cache_misses_total")
	if probes := hits + misses; probes > 0 {
		s.metrics.set("bgpd_cache_hit_ratio_bp", hits*10_000/probes)
	}
}

// Drain stops admission, closes the queue, and waits for in-flight jobs.
// When ctx expires first, running jobs are canceled cooperatively and
// Drain still waits for the workers to exit before returning ctx's
// error. After Drain returns no worker goroutines remain.
func (s *Server) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
		s.rootCancel()
	case <-ctx.Done():
		s.rootCancel() // cancel in-flight sweeps; workers exit promptly
		<-done
		err = ctx.Err()
	}
	if s.wal != nil {
		if cerr := s.wal.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	return err
}

// jobKey derives the job-level dedupe key from the scenario content
// address and the trial count. Uncacheable scenarios get "" and are
// never deduped — without a content address there is no proof two
// submissions are the same work.
func jobKey(sc experiment.Scenario, trials int) string {
	ck := sc.CacheKey()
	if ck == "" {
		return ""
	}
	return fmt.Sprintf("%s/trials=%d", ck, trials)
}

// sourceName renders a sweep.Source for event streams.
func sourceName(src sweep.Source) string {
	switch src {
	case sweep.SourceExecuted:
		return "executed"
	case sweep.SourceCache:
		return "cache"
	case sweep.SourceFlight:
		return "flight"
	case sweep.SourceRemote:
		return "remote"
	default:
		return ""
	}
}
