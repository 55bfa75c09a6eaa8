// Package sweep is the deterministic parallel sweep executor: it fans
// independent trials out across a bounded worker pool while guaranteeing
// byte-identical output to a sequential run.
//
// The DES kernel underneath every trial is strictly single-threaded (the
// detlint noconcurrency analyzer enforces it); scale comes from running
// independent trial instances concurrently, exactly the decomposition of
// Coudert et al.'s feasibility study on distributed BGP simulations.
// Each trial is a self-contained deterministic run keyed by its index, so
// the executor only has to make the *orchestration* order-insensitive:
//
//   - trials are dispatched to workers in ascending index order;
//   - every result is merged back into an index-addressed slot, so the
//     merged output is in trial order regardless of completion order;
//   - all failure policy (fail-fast index, failure-ratio abort) is
//     defined over trial indices, never over wall-clock completion order.
//
// With Workers == 1 the executor runs the trials inline in the calling
// goroutine — no goroutines, no channels — which is the sequential
// regression oracle: `-j N` must produce byte-identical results to it.
//
// On top of the executor sits one persistence layer, the Cache: a
// content-addressed result store keyed by a canonical digest of
// everything that determines a trial's outcome (see
// experiment.Scenario.CacheKey). Unchanged trials in a re-run sweep are
// served from disk instead of re-simulated. Every completed keyed trial
// lands there before the sweep moves on, so the cache is also the
// checkpoint of an interrupted sweep: re-running it with the same cache
// serves what finished and simulates only the rest.
//
// A trial's result comes from the first of these that has it: the
// cache, a concurrent execution of the same content address (Flight),
// the remote executor (Remote), and finally the local Task. Every trial
// takes one path, on whichever goroutine runs it: probe the cache, then
// — unless the sweep is stopping — execute, then hand the result and the
// bytes it arrived with to the merging goroutine. A stored result is
// served even when the sweep is aborting or canceled, because the probe
// comes before any skip or cancellation check. The merger puts every
// done keyed trial in the cache unless it came from there, reusing the
// bytes it arrived with and encoding only when there are none; a trial
// without a key is never encoded. Any persistence error (encode, cache
// read, write or quarantine) aborts the whole sweep.
//
// This package is the concurrency boundary of the repository: it is the
// only simulation-adjacent package allowed to spawn goroutines (detlint's
// "harness" scope: checked by norealtime, noglobalrand, maprange and
// floateq, exempt from noconcurrency).
package sweep

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
)

// Status is the terminal state of one trial slot.
type Status uint8

const (
	// StatusSkipped marks a trial that was never started (aborted sweep).
	StatusSkipped Status = iota
	// StatusDone marks a trial with a usable result (executed, cached,
	// shared or remote).
	StatusDone
	// StatusFailed marks a trial whose task returned a non-cancellation
	// error.
	StatusFailed
	// StatusCanceled marks a trial interrupted by context cancellation.
	StatusCanceled
)

// String names the status for diagnostics.
func (s Status) String() string {
	switch s {
	case StatusSkipped:
		return "skipped"
	case StatusDone:
		return "done"
	case StatusFailed:
		return "failed"
	case StatusCanceled:
		return "canceled"
	default:
		return fmt.Sprintf("Status(%d)", uint8(s))
	}
}

// Source records where a done trial's result came from.
type Source uint8

const (
	// SourceNone is the zero value for trials without a result.
	SourceNone Source = iota
	// SourceExecuted means the trial was simulated by this run.
	SourceExecuted
	// SourceCache means the result was served from the content-addressed
	// cache.
	SourceCache
	// SourceFlight means the result was shared from a concurrent
	// execution of the same content address (Options.Flight singleflight).
	SourceFlight
	// SourceRemote means the trial was satisfied by the remote executor
	// seam (Options.Remote) — typically a distributed worker fleet —
	// instead of running in this process.
	SourceRemote
)

// Task runs trial i and returns its result. The context is per-trial:
// it is canceled when the sweep aborts (fail-fast failure elsewhere,
// failure-ratio doom, or parent cancellation), and tasks should poll it
// at convenient boundaries so in-flight work stops instead of running to
// completion. A task signals cancellation by returning an error that
// wraps context.Canceled or context.DeadlineExceeded.
type Task[T any] func(ctx context.Context, trial int) (T, error)

// Codec serializes results for the cache, the Flight and the remote
// executor.
type Codec[T any] struct {
	// Key returns the canonical content-address of trial i, or "" when
	// the trial is not cacheable (the trial then always executes locally
	// and is never stored). Key must be a deterministic function of
	// everything that determines the trial's result.
	Key func(trial int) string
	// Encode and Decode round-trip a result. Decode(Encode(v)) must
	// reproduce a value whose re-encoding is byte-identical, so digests
	// computed over decoded results match digests over fresh ones.
	Encode func(v T) ([]byte, error)
	Decode func(data []byte) (T, error)
}

// enabled reports whether the codec can persist results.
func (c Codec[T]) enabled() bool {
	return c.Key != nil && c.Encode != nil && c.Decode != nil
}

// Options tunes one executor run.
type Options[T any] struct {
	// Workers is the worker-pool width: 0 means GOMAXPROCS, 1 runs the
	// trials inline in the calling goroutine (the sequential oracle).
	Workers int
	// FailFast stops the sweep at the lowest failed trial index: trials
	// above it are skipped or canceled and discarded, reproducing the
	// sequential stop-at-first-failure semantics.
	FailFast bool
	// MaxFailureRatio, when positive, aborts the sweep as soon as the
	// failure count alone guarantees failed/attempted will exceed the
	// ratio (failures > ratio × trials): the remaining trials cannot
	// save the sweep, so in-flight workers are canceled instead of
	// running to completion. Zero disables the early abort.
	MaxFailureRatio float64
	// Codec enables the cache, Flight and Remote layers; the zero Codec
	// disables them.
	Codec Codec[T]
	// Cache, when non-nil, serves unchanged trials from disk and stores
	// fresh results. Requires Codec. Each keyed trial is probed once, on
	// the goroutine that runs it and before any skip or cancellation
	// check, so a stored result is served even by an aborting sweep. A corrupt object is quarantined and counts as a
	// miss; a read or quarantine error aborts the sweep. Every done keyed
	// trial that did not come from the cache is put there, from the bytes
	// it arrived with (remote payload, Flight share) or its encoding.
	Cache *Cache
	// Flight, when non-nil, collapses concurrent executions of the same
	// content address — across this sweep and every other sweep sharing
	// the Flight — onto one run. Requires Codec (sharing moves encoded
	// bytes between callers). Trials without a key never share. A cache
	// hit never reaches the Flight. The leader shares the bytes its
	// result arrived with (a remote payload) and encodes only when there
	// are none; those bytes are also what every sharing sweep persists.
	Flight *Flight
	// Remote is the pluggable trial-executor seam: when non-nil, trials
	// that have a content address and miss the cache are satisfied by
	// calling Remote — which returns the trial's encoded result bytes,
	// e.g. from a distributed worker fleet (internal/dist) — instead of
	// running the Task in this process. Trials without a key have no
	// content address to prove equality across machines, so they always
	// run locally. Requires a complete Codec; the returned bytes are
	// decoded through it, and the Codec round-trip contract makes the
	// merged output byte-identical to a local run. Bytes that do not
	// decode fall back to the local Task; a Remote error is final. Remote
	// executions still route through the Flight when one is configured,
	// so concurrent sweeps wanting the same content address share one
	// remote execution.
	Remote func(ctx context.Context, trial int, key string) ([]byte, error)
	// Progress, when non-nil, is called from the merging goroutine after
	// each trial reaches a terminal state, in completion order — cache
	// hits included, which complete on the workers like any other trial.
	// It must not block for long; it runs on the sweep's critical path.
	Progress func(trial int, st Status, src Source)
}

// Stats counts what the executor did.
type Stats struct {
	// Trials is the sweep width; Executed counts trials actually
	// simulated by this run.
	Trials   int
	Executed int
	// CacheHits / CacheMisses count cache probes; Deduped counts trials
	// whose result was shared from a concurrent in-flight execution of
	// the same content address (Options.Flight) instead of being
	// simulated here; Remote counts trials satisfied by the remote
	// executor seam (Options.Remote) rather than this process.
	CacheHits   int
	CacheMisses int
	Deduped     int
	Remote      int
	// Resumed is always 0: an interrupted sweep resumes through the
	// cache, so its completed trials count as CacheHits. The field stays
	// only because the benchmark's served workload reads it.
	Resumed int
	// Quarantined counts cache objects that failed to decode and were
	// moved to the cache's quarantine directory instead of being treated
	// as silent misses.
	Quarantined int
	// Failed, Canceled, and Skipped count the non-Done terminal states.
	Failed   int
	Canceled int
	Skipped  int
}

// Add accumulates other into s (for multi-sweep tooling like bgpfig).
func (s *Stats) Add(other Stats) {
	s.Trials += other.Trials
	s.Executed += other.Executed
	s.CacheHits += other.CacheHits
	s.CacheMisses += other.CacheMisses
	s.Deduped += other.Deduped
	s.Remote += other.Remote
	s.Quarantined += other.Quarantined
	s.Failed += other.Failed
	s.Canceled += other.Canceled
	s.Skipped += other.Skipped
}

// CacheHitRatio returns CacheHits/(CacheHits+CacheMisses), or 0 when the
// cache was never probed. It is the ratio the bgpd /metrics endpoint
// exposes.
func (s Stats) CacheHitRatio() float64 {
	probes := s.CacheHits + s.CacheMisses
	if probes == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(probes)
}

// Outcome is the merged, trial-ordered result of a sweep. All slices are
// indexed by trial.
type Outcome[T any] struct {
	Results []T
	Errs    []error
	Status  []Status
	Source  []Source
	Stats   Stats
}

// Done reports whether trial i produced a usable result.
func (o *Outcome[T]) Done(i int) bool { return o.Status[i] == StatusDone }

// FirstFailure returns the lowest failed trial index, or -1.
func (o *Outcome[T]) FirstFailure() int {
	for i, st := range o.Status {
		if st == StatusFailed {
			return i
		}
	}
	return -1
}

// canceledErr reports whether err is a cancellation, possibly wrapped.
func canceledErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// Run executes trials 0..trials-1 through task under the given options
// and returns the trial-ordered outcome. Run itself returns an error only
// for harness problems (bad arguments, persistence failures); trial
// failures and cancellations are reported per-slot in the Outcome so the
// caller can apply its own partial-result policy.
//
// Every trial runs one pipeline — cache probe, then Flight, Remote or the
// local Task — inline (Workers == 1) or on the pool, and the calling
// goroutine merges and persists the results. A persistence error cancels
// the trials in flight, starts no new ones and is returned.
func Run[T any](ctx context.Context, trials int, task Task[T], opts Options[T]) (*Outcome[T], error) {
	if trials <= 0 {
		return nil, fmt.Errorf("sweep: non-positive trial count %d", trials)
	}
	if task == nil {
		return nil, errors.New("sweep: nil task")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	if opts.Cache != nil && !opts.Codec.enabled() {
		return nil, errors.New("sweep: cache requires a complete Codec")
	}
	if opts.Flight != nil && !opts.Codec.enabled() {
		return nil, errors.New("sweep: singleflight requires a complete Codec")
	}
	if opts.Remote != nil && !opts.Codec.enabled() {
		return nil, errors.New("sweep: remote execution requires a complete Codec")
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	out := &Outcome[T]{
		Results: make([]T, trials),
		Errs:    make([]error, trials),
		Status:  make([]Status, trials),
		Source:  make([]Source, trials),
		Stats:   Stats{Trials: trials},
	}
	s := &sweeper[T]{
		task: task,
		opts: opts,
		out:  out,
		// Content addresses, computed once and shared by every layer.
		keys: make([]string, trials),
		ctl: &controller{
			failFast:   opts.FailFast,
			failFastAt: -1,
			maxRatio:   opts.MaxFailureRatio,
			trials:     trials,
			cancels:    make([]context.CancelFunc, trials),
		},
	}
	if opts.Codec.enabled() {
		for i := range s.keys {
			s.keys[i] = opts.Codec.Key(i)
		}
	}

	var err error
	if workers == 1 {
		// The sequential oracle: no goroutines, trials in index order.
		for i := 0; i < trials; i++ {
			if err = s.merge(s.run(ctx, i)); err != nil {
				break
			}
		}
	} else {
		err = s.pool(ctx, trials, workers)
	}
	if err != nil {
		return nil, err
	}

	for i := 0; i < trials; i++ {
		switch out.Status[i] {
		case StatusFailed:
			out.Stats.Failed++
		case StatusCanceled:
			out.Stats.Canceled++
		case StatusSkipped:
			out.Stats.Skipped++
		case StatusDone:
			switch out.Source[i] {
			case SourceExecuted:
				out.Stats.Executed++
			case SourceCache:
				out.Stats.CacheHits++
			case SourceFlight:
				out.Stats.Deduped++
			case SourceRemote:
				out.Stats.Remote++
			}
		}
		// Every keyed trial was probed once; each probe that did not hit
		// was a miss.
		if opts.Cache != nil && s.keys[i] != "" && out.Source[i] != SourceCache {
			out.Stats.CacheMisses++
		}
	}
	return out, nil
}

// sweeper is the state of one Run shared by the trial pipeline and the
// merger.
type sweeper[T any] struct {
	task Task[T]
	opts Options[T]
	out  *Outcome[T]
	keys []string
	ctl  *controller
}

// attempt is what one trial's pipeline hands the merger.
type attempt[T any] struct {
	trial int
	v     T
	// data is the encoding the result arrived with (cache object, remote
	// payload, Flight share or leader encode); nil when it was produced
	// locally and never encoded.
	data []byte
	src  Source
	err  error
	// fatal is a persistence error met on the way (cache read,
	// quarantine, leader encode); it aborts the sweep.
	fatal       error
	skip        bool
	quarantined bool
}

// run is trial i's pipeline, on whichever goroutine runs it: probe the
// cache, then, unless the sweep is canceled or stopping, execute under a
// per-trial context the controller can cancel.
func (s *sweeper[T]) run(ctx context.Context, i int) attempt[T] {
	a := attempt[T]{trial: i}
	if key := s.keys[i]; s.opts.Cache != nil && key != "" {
		data, ok, err := s.opts.Cache.Get(key)
		if err != nil {
			a.fatal = fmt.Errorf("sweep: cache read trial %d: %w", i, err)
			return a
		}
		if ok {
			if v, err := s.opts.Codec.Decode(data); err == nil {
				a.v, a.data, a.src = v, data, SourceCache
				return a
			}
			// Corrupt object: quarantine the evidence (visible in stats
			// and /metrics), then treat the probe as a miss so the trial
			// re-executes and writes a fresh object.
			if err := s.opts.Cache.Quarantine(key); err != nil {
				a.fatal = fmt.Errorf("sweep: quarantine trial %d: %w", i, err)
				return a
			}
			a.quarantined = true
		}
	}
	switch {
	case ctx.Err() != nil:
		a.err = ctx.Err()
	case s.ctl.shouldSkip(i):
		a.skip = true
	default:
		tctx, cancel := context.WithCancel(ctx)
		s.ctl.register(i, cancel)
		s.execute(tctx, &a)
		s.ctl.unregister(i)
		cancel()
	}
	return a
}

// execute produces a's trial, through the Flight when one is configured
// and the trial has a key. The leader shares the bytes its result arrived
// with, encoding only when there are none. A follower decodes the shared
// bytes (byte-identical on re-encode per the Codec contract, so sharing
// never changes digests) and is marked SourceFlight; bytes that do not
// decode make it run the task itself. Errors are never shared — a failed
// or canceled leader makes the follower produce the trial itself.
func (s *sweeper[T]) execute(ctx context.Context, a *attempt[T]) {
	i, key := a.trial, s.keys[a.trial]
	if s.opts.Flight == nil || key == "" {
		a.v, a.data, a.src, a.err = s.produce(ctx, i)
		return
	}
	data, shared, err := s.opts.Flight.Do(ctx, key, func() ([]byte, error) {
		v, data, src, err := s.produce(ctx, i)
		if err == nil && data == nil {
			if data, err = s.opts.Codec.Encode(v); err != nil {
				a.fatal = fmt.Errorf("sweep: encode trial %d: %w", i, err)
			}
		}
		a.v, a.data, a.src = v, data, src
		return data, err
	})
	switch {
	case err != nil:
		a.err = err
	case shared:
		if v, err := s.opts.Codec.Decode(data); err == nil {
			a.v, a.data, a.src = v, data, SourceFlight
		} else {
			a.v, a.err = s.task(ctx, i)
			a.src = SourceExecuted
		}
	}
}

// produce runs trial i once: through the remote seam when there is one
// and the trial has a key, else with the local task. It returns the bytes
// the result arrived with, nil for a local run. Undecodable remote bytes
// (a worker bug, not a determinism question) fall back to the local task,
// mirroring the cache's corrupt-object-is-a-miss policy; remote errors —
// including cancellation — are final, because the remote layer owns its
// own retry and reassignment policy.
func (s *sweeper[T]) produce(ctx context.Context, i int) (T, []byte, Source, error) {
	if key := s.keys[i]; s.opts.Remote != nil && key != "" {
		data, err := s.opts.Remote(ctx, i, key)
		if err != nil {
			var zero T
			return zero, nil, SourceNone, err
		}
		if v, err := s.opts.Codec.Decode(data); err == nil {
			return v, data, SourceRemote, nil
		}
	}
	v, err := s.task(ctx, i)
	return v, nil, SourceExecuted, err
}

// merge records one attempt into the outcome, persists a done result and
// applies the failure policy. It runs only on the merging goroutine (the
// caller of Run), so the cache writes see one writer. A
// fatal or persistence error aborts the sweep and is returned.
func (s *sweeper[T]) merge(a attempt[T]) error {
	out, i := s.out, a.trial
	if a.quarantined {
		out.Stats.Quarantined++
	}
	switch {
	case a.fatal != nil:
		s.ctl.abort()
		return a.fatal
	case a.skip:
		out.Status[i] = StatusSkipped
	case a.err == nil:
		out.Results[i], out.Status[i], out.Source[i] = a.v, StatusDone, a.src
		if err := s.persist(a); err != nil {
			s.ctl.abort()
			return err
		}
	case canceledErr(a.err):
		out.Errs[i], out.Status[i] = a.err, StatusCanceled
	default:
		out.Errs[i], out.Status[i] = a.err, StatusFailed
		s.ctl.noteFailure(i)
	}
	if s.opts.Progress != nil {
		s.opts.Progress(i, out.Status[i], out.Source[i])
	}
	return nil
}

// persist puts a done keyed trial in the cache unless it came from
// there. It writes the bytes the result arrived with and encodes only
// when there are none; a trial without a key is never encoded.
func (s *sweeper[T]) persist(a attempt[T]) error {
	key := s.keys[a.trial]
	if key == "" || s.opts.Cache == nil || a.src == SourceCache {
		return nil
	}
	data := a.data
	if data == nil {
		var err error
		if data, err = s.opts.Codec.Encode(a.v); err != nil {
			return fmt.Errorf("sweep: encode trial %d: %w", a.trial, err)
		}
	}
	if err := s.opts.Cache.Put(key, data); err != nil {
		return fmt.Errorf("sweep: cache write trial %d: %w", a.trial, err)
	}
	return nil
}

// pool is the parallel path: `workers` goroutines take the trial
// indices in ascending order from a pre-filled channel and run each
// trial's pipeline; the calling goroutine merges their attempts. The only
// shared mutable state is the controller (mutex-guarded) and the
// channels; results land in index-addressed slots, so merged output is
// independent of completion order.
func (s *sweeper[T]) pool(ctx context.Context, trials, workers int) error {
	workers = min(workers, trials)
	idx := make(chan int, trials)
	for i := 0; i < trials; i++ {
		idx <- i
	}
	close(idx)
	// A slot per worker: each can finish a trial while the merger
	// persists another.
	res := make(chan attempt[T], workers)
	var wg sync.WaitGroup
	work := func() {
		defer wg.Done()
		for i := range idx {
			res <- s.run(ctx, i)
		}
	}
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go work()
	}
	// Every index yields exactly one attempt (an aborted sweep's
	// trials come back as cheap skips); after an error the rest drain.
	var err error
	for range trials {
		if a := <-res; err == nil {
			err = s.merge(a)
		}
	}
	wg.Wait()
	return err
}

// controller coordinates the abort policy between the merging goroutine
// (which observes failures) and the workers (which decide whether to
// start a trial and hold per-trial cancel functions).
type controller struct {
	mu         sync.Mutex
	failFast   bool
	failFastAt int // lowest failed index, -1 while none
	maxRatio   float64
	trials     int
	failures   int
	abortAll   bool
	cancels    []context.CancelFunc
}

// stoppedLocked reports whether trial i must not run; c.mu is held.
func (c *controller) stoppedLocked(i int) bool {
	return c.abortAll || (c.failFast && c.failFastAt >= 0 && i > c.failFastAt)
}

// shouldSkip reports whether trial i must not start.
func (c *controller) shouldSkip(i int) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stoppedLocked(i)
}

// register installs the cancel function of an in-flight trial.
func (c *controller) register(i int, cancel context.CancelFunc) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stoppedLocked(i) {
		// The abort raced the registration; cancel immediately so the
		// trial stops at its first context poll.
		cancel()
		return
	}
	c.cancels[i] = cancel
}

// unregister clears a completed trial's cancel function.
func (c *controller) unregister(i int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cancels[i] = nil
}

// abort stops the whole sweep: no trial starts any more and every
// in-flight trial is canceled.
func (c *controller) abort() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.abortLocked()
}

// abortLocked is abort with c.mu held.
func (c *controller) abortLocked() {
	c.abortAll = true
	for j, cancel := range c.cancels {
		if cancel != nil {
			cancel()
			c.cancels[j] = nil
		}
	}
}

// noteFailure records a failed trial and cancels whatever the failure
// policy no longer needs: trials above the lowest failure (fail-fast) or
// every in-flight trial (failure-ratio doom).
func (c *controller) noteFailure(i int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.failures++
	if c.failFast && (c.failFastAt < 0 || i < c.failFastAt) {
		c.failFastAt = i
		for j := i + 1; j < len(c.cancels); j++ {
			if c.cancels[j] != nil {
				c.cancels[j]()
				c.cancels[j] = nil
			}
		}
	}
	// Once failures alone guarantee failed/attempted > maxRatio even if
	// every remaining trial succeeds, the sweep is doomed: stop the
	// in-flight workers instead of letting them run to completion.
	if c.maxRatio > 0 && float64(c.failures) > c.maxRatio*float64(c.trials) {
		c.abortLocked()
	}
}
