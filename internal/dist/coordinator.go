package dist

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"
)

// Config tunes a Coordinator. The zero value is usable for tests: time
// stands still unless Now is injected (leases then never expire).
type Config struct {
	// ChunkSize caps how many trials one lease carries; <= 0 means 4.
	// Chunking amortizes per-lease HTTP and scenario-rebuild overhead;
	// the merged output is byte-identical at any chunk size.
	ChunkSize int
	// LeaseTTL is how long a worker may hold a lease before its trials
	// are reassigned; <= 0 means 60s. It also bounds worker liveness:
	// a worker unseen for 2×TTL no longer counts as live.
	LeaseTTL time.Duration
	// HedgeLast enables tail hedging: when a sweep has no pending
	// trials and at most HedgeLast chunks remain outstanding, an idle
	// worker is issued a duplicate of the oldest outstanding chunk —
	// first result wins, the loser is counted and dropped. A chunk is
	// hedged at most once. 0 (the zero value) disables hedging; bgpd's
	// -dist-hedge flag defaults to 2.
	HedgeLast int
	// Now injects the wall clock for lease deadlines and worker
	// liveness (cmd/bgpd passes time.Now; the dist package itself may
	// not touch the clock — detlint's norealtime scope). Nil freezes
	// time, which disables expiry but never affects results.
	Now func() time.Time
}

func (c Config) withDefaults() Config {
	if c.ChunkSize <= 0 {
		c.ChunkSize = 4
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 60 * time.Second
	}
	if c.Now == nil {
		c.Now = func() time.Time { return time.Time{} }
	}
	return c
}

// Counters is a snapshot of the coordinator's accounting, exposed as
// the bgpd_dist_* families in /metrics.
type Counters struct {
	// WorkersLive and LeasesOutstanding are gauges computed at snapshot
	// time; the rest are monotonic counters.
	WorkersLive       int64
	LeasesOutstanding int64

	LeasesGranted    int64
	LeasesReassigned int64 // expired leases whose trials went back to pending
	LeasesHedged     int64 // duplicate grants issued for tail chunks
	LeasesCompleted  int64
	DuplicateResults int64 // reported trials already merged from another lease
	RemoteTrials     int64 // trial results merged from workers
	TrialErrors      int64 // trials a worker reported as failed
}

// workerState tracks one registered worker's liveness.
type workerState struct {
	id       string
	name     string
	lastSeen time.Time
	gone     bool
}

// Coordinator owns the lease tables of every distributed sweep in the
// process and the worker registry. It is the server half of the
// /v1/work protocol; internal/serve mounts its handlers and scrapes its
// counters.
type Coordinator struct {
	cfg Config

	mu         sync.Mutex
	sweeps     map[string]*sweepState
	sweepOrder []string
	workers    map[string]*workerState
	workerIDs  []string // registration order, for deterministic scans
	nextWorker int
	nextLease  int
	counters   Counters
}

// New builds a Coordinator. The error is always nil.
func New(cfg Config) (*Coordinator, error) {
	return &Coordinator{
		cfg:     cfg.withDefaults(),
		sweeps:  map[string]*sweepState{},
		workers: map[string]*workerState{},
	}, nil
}

// Close releases nothing and returns nil; the coordinator holds no file.
func (c *Coordinator) Close() error { return nil }

// Counters snapshots the accounting, computing the liveness and
// outstanding-lease gauges against the injected clock.
func (c *Coordinator) Counters() Counters {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(c.cfg.Now())
	snap := c.counters
	cutoff := 2 * c.cfg.LeaseTTL
	now := c.cfg.Now()
	for _, id := range c.workerIDs {
		w := c.workers[id]
		if !w.gone && (now.IsZero() || now.Sub(w.lastSeen) <= cutoff) {
			snap.WorkersLive++
		}
	}
	for _, id := range c.sweepOrder {
		snap.LeasesOutstanding += int64(len(c.sweeps[id].leases))
	}
	return snap
}

// Sweep is a handle on one distributed sweep; its Execute method is the
// sweep.Options.Remote implementation the service layer plugs in.
type Sweep struct {
	c  *Coordinator
	id string
}

// ErrSweepFinished is returned by Execute after Finish.
var ErrSweepFinished = errors.New("dist: sweep finished")

// StartSweep registers a sweep for distribution: id must be stable
// across coordinator restarts (the service layer derives it from the
// job's content address) and spec is the scenario spec workers rebuild
// trials from. width, the sweep's trial count, is unused — the trials a
// sweep wants are the ones Execute registers — and stays in the
// signature because the benchmark harness (bench/services.go) calls it.
func (c *Coordinator) StartSweep(id string, spec []byte, width int) (*Sweep, error) {
	if id == "" {
		return nil, errors.New("dist: empty sweep id")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.sweeps[id]; ok {
		return nil, fmt.Errorf("dist: sweep %s already active", id)
	}
	c.sweeps[id] = newSweepState(id, spec)
	c.sweepOrder = append(c.sweepOrder, id)
	return &Sweep{c: c, id: id}, nil
}

// Finish deregisters the sweep: outstanding leases are dropped and any
// still-waiting Execute calls fail with ErrSweepFinished.
func (s *Sweep) Finish() {
	c := s.c
	c.mu.Lock()
	defer c.mu.Unlock()
	sw, ok := c.sweeps[s.id]
	if !ok {
		return
	}
	sw.done = true
	delete(c.sweeps, s.id)
	for i, id := range c.sweepOrder {
		if id == s.id {
			c.sweepOrder = append(c.sweepOrder[:i], c.sweepOrder[i+1:]...)
			break
		}
	}
	for _, idx := range sw.pending {
		if slot := sw.slots[idx]; slot != nil && !slot.done && !slot.abandoned {
			slot.done = true
			slot.ch <- trialOutcome{err: ErrSweepFinished}
		}
	}
	for _, l := range sw.order {
		lease, ok := sw.leases[l]
		if !ok {
			continue
		}
		for _, idx := range lease.trials {
			if slot := sw.slots[idx]; slot != nil && !slot.done && !slot.abandoned {
				slot.done = true
				slot.ch <- trialOutcome{err: ErrSweepFinished}
			}
		}
	}
}

// Execute satisfies one trial through the fleet: it registers the trial
// as wanted, waits for a worker's result, and returns the encoded
// result bytes. It is the sweep.Options.Remote seam — the caller (the
// local sweep executor) decodes the bytes through the shared codec, so
// the merged output is byte-identical to a local run. Cancellation of
// ctx abandons the trial.
func (s *Sweep) Execute(ctx context.Context, trial int, key string) ([]byte, error) {
	c := s.c
	c.mu.Lock()
	sw, ok := c.sweeps[s.id]
	if !ok {
		c.mu.Unlock()
		return nil, ErrSweepFinished
	}
	if _, dup := sw.slots[trial]; dup {
		c.mu.Unlock()
		return nil, fmt.Errorf("dist: trial %d already registered in sweep %s", trial, s.id)
	}
	slot := &trialSlot{index: trial, key: key, ch: make(chan trialOutcome, 1)}
	sw.slots[trial] = slot
	sw.addPending(trial)
	c.mu.Unlock()

	select {
	case out := <-slot.ch:
		return out.data, out.err
	case <-ctx.Done():
		c.mu.Lock()
		if !slot.done {
			slot.abandoned = true
			slot.done = true
			sw.removePending(trial)
		}
		c.mu.Unlock()
		// Drain a result that raced the cancellation; the context error
		// still wins (the sweep is aborting anyway).
		select {
		case <-slot.ch:
		default:
		}
		return nil, ctx.Err()
	}
}

// register adds a worker and assigns its canonical ID.
func (c *Coordinator) register(name string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextWorker++
	id := fmt.Sprintf("w-%06d", c.nextWorker)
	c.workers[id] = &workerState{id: id, name: name, lastSeen: c.cfg.Now()}
	c.workerIDs = append(c.workerIDs, id)
	return id
}

// deregister marks a worker gone (graceful drain).
func (c *Coordinator) deregister(id string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if w, ok := c.workers[id]; ok {
		w.gone = true
	}
}

// touch refreshes a worker's liveness; false means the worker is
// unknown (it must re-register — e.g. the coordinator restarted).
func (c *Coordinator) touch(id string) bool {
	w, ok := c.workers[id]
	if !ok {
		return false
	}
	w.lastSeen = c.cfg.Now()
	w.gone = false
	return true
}

// expireLocked reassigns every lease past its deadline: the lease is
// dropped and its not-yet-done trials go back to pending, to be
// re-chunked for the next idle worker. Expiry is assessed lazily on
// coordinator entry points (polls, reports, metric scrapes) — there is
// no background timer, so the package needs no clock of its own; any
// live worker's poll drives the reaper.
func (c *Coordinator) expireLocked(now time.Time) {
	if now.IsZero() {
		return // frozen clock (tests without Now): expiry disabled
	}
	for _, sid := range c.sweepOrder {
		sw := c.sweeps[sid]
		for _, lid := range append([]string(nil), sw.order...) {
			l, ok := sw.leases[lid]
			if !ok || !now.After(l.deadline) {
				continue
			}
			sw.dropLease(lid)
			requeued := false
			for _, idx := range l.trials {
				slot := sw.slots[idx]
				if slot == nil || slot.done {
					continue
				}
				slot.cover--
				if slot.cover <= 0 {
					slot.cover = 0
					sw.addPending(idx)
					requeued = true
				}
			}
			if requeued {
				c.counters.LeasesReassigned++
			}
		}
	}
}

// acquire grants a lease to worker, applying expiry first and hedging
// when nothing is pending. A nil lease with ok=true means "idle, poll
// again"; ok=false means the worker is unknown.
func (c *Coordinator) acquire(worker string) (l *Lease, hedged, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.touch(worker) {
		return nil, false, false
	}
	now := c.cfg.Now()
	c.expireLocked(now)

	// Sweeps are scanned in admission order: earlier sweeps drain first,
	// mirroring the local executor's ascending dispatch.
	for _, sid := range c.sweepOrder {
		sw := c.sweeps[sid]
		if len(sw.pending) == 0 {
			continue
		}
		take := sw.takePending(c.cfg.ChunkSize)
		return c.grantLocked(sw, worker, take, false, now), false, true
	}

	// Nothing pending anywhere: hedge the tail. Re-issue the oldest
	// outstanding chunk of the first sweep in the hedging window.
	if c.cfg.HedgeLast > 0 {
		for _, sid := range c.sweepOrder {
			sw := c.sweeps[sid]
			if n := sw.outstanding(); n == 0 || n > c.cfg.HedgeLast {
				continue
			}
			cand := sw.hedgeCandidate(worker)
			if cand == nil {
				continue
			}
			cand.hedges++
			c.counters.LeasesHedged++
			return c.grantLocked(sw, worker, append([]int(nil), cand.trials...), true, now), true, true
		}
	}
	return nil, false, true
}

// grantLocked creates one lease over the given trials.
func (c *Coordinator) grantLocked(sw *sweepState, worker string, trials []int, hedged bool, now time.Time) *Lease {
	c.nextLease++
	id := fmt.Sprintf("lease-%06d", c.nextLease)
	attempt := 1
	keys := make([]string, len(trials))
	for i, idx := range trials {
		slot := sw.slots[idx]
		slot.cover++
		slot.attempts++
		if slot.attempts > attempt {
			attempt = slot.attempts
		}
		keys[i] = slot.key
	}
	l := &lease{
		id: id, worker: worker,
		trials: trials, hedged: hedged,
		deadline: now.Add(c.cfg.LeaseTTL),
	}
	sw.leases[id] = l
	sw.order = append(sw.order, id)
	c.counters.LeasesGranted++
	return &Lease{
		ID: id, Sweep: sw.id, Spec: append([]byte(nil), sw.spec...),
		Trials: append([]int(nil), trials...), Keys: keys, Attempt: attempt,
	}
}

// report merges one result report. Per-trial, first result wins: a
// trial already merged (hedged twin or reassigned predecessor landed
// first) counts as a duplicate and is dropped; a key mismatch (a
// version-skewed worker rebuilt a different scenario) is rejected.
// Reports remain valid after lease expiry — the work is content-
// addressed, so a straggler's late result still merges if its trials
// are still wanted. report takes ownership of rep's result bytes: an
// accepted trial's Data goes to its waiter as is, uncopied.
func (c *Coordinator) report(rep *ResultReport) (ReportResponse, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.touch(rep.Worker) {
		return ReportResponse{}, errUnregistered
	}
	sw, ok := c.sweeps[rep.Sweep]
	if !ok {
		// The sweep finished (or never existed): everything is a
		// duplicate from the fleet's point of view.
		c.counters.DuplicateResults += int64(len(rep.Results))
		return ReportResponse{Duplicates: len(rep.Results)}, nil
	}
	now := c.cfg.Now()
	c.expireLocked(now)

	l := sw.leases[rep.Lease]
	resp := ReportResponse{}
	for _, tr := range rep.Results {
		slot := sw.slots[tr.Trial]
		if slot == nil || slot.done {
			resp.Duplicates++
			c.counters.DuplicateResults++
			continue
		}
		if tr.Key != slot.key {
			resp.Duplicates++
			c.counters.DuplicateResults++
			continue
		}
		if tr.Error != "" {
			// Failures only merge from the lease that still covers the
			// trial; a stale lease's failure must not pre-empt a
			// reassigned twin that may still succeed.
			if l == nil {
				resp.Duplicates++
				c.counters.DuplicateResults++
				continue
			}
			slot.done = true
			sw.removePending(tr.Trial)
			c.counters.TrialErrors++
			slot.ch <- trialOutcome{err: fmt.Errorf("dist: worker %s trial %d: %s", rep.Worker, tr.Trial, tr.Error)}
			resp.Accepted++
			continue
		}
		if len(tr.Data) == 0 {
			resp.Duplicates++
			c.counters.DuplicateResults++
			continue
		}
		slot.done = true
		sw.removePending(tr.Trial)
		c.counters.RemoteTrials++
		slot.ch <- trialOutcome{data: tr.Data}
		resp.Accepted++
	}

	if l != nil {
		sw.dropLease(rep.Lease)
		for _, idx := range l.trials {
			if slot := sw.slots[idx]; slot != nil && !slot.done {
				slot.cover--
				if slot.cover <= 0 {
					slot.cover = 0
					sw.addPending(idx)
				}
			}
		}
		c.counters.LeasesCompleted++
	}
	return resp, nil
}

var errUnregistered = errors.New("dist: unregistered worker")
