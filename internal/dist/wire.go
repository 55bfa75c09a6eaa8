// Package dist is the distributed sweep execution layer: a coordinator
// that shards a sweep's trial-index space into leased chunks and fans
// them out to remote worker processes over HTTP, and the worker loop
// that pulls leases, executes trials through the existing
// experiment.RunSweep path, and reports per-trial results.
//
// The subsystem is the layer between internal/sweep (single process)
// and internal/serve (single bgpd): Coudert et al.'s feasibility study
// on distributed BGP simulations decomposes exactly this way — each
// trial is a self-contained deterministic run keyed by its content
// address, so distribution only has to make the orchestration
// order-insensitive:
//
//   - the coordinator plugs into sweep.Run through the Remote executor
//     seam (sweep.Options.Remote), so cache probes, the trial
//     singleflight, and the index-addressed merge are the same code a
//     local run uses — the merged aggregate is byte-identical to
//     `bgpsim -digest` regardless of worker count, chunk size, worker
//     crashes, or hedging;
//   - workers rebuild each trial's Scenario from the leased spec and
//     verify its CacheKey against the lease before reporting, so a
//     version-skewed worker can never contribute a result for the wrong
//     content address;
//   - leases carry deadlines: a worker that crashes or stalls past the
//     lease TTL has its shard reassigned to the next idle worker, and
//     the tail of a sweep is hedged — outstanding chunks are re-issued
//     to idle workers, first result wins, duplicates are counted and
//     dropped.
//
// The coordinator keeps nothing on disk: a trial's result is installed
// in the content-addressed cache before the sweep moves on, so a
// restarted coordinator is handed only the trials the cache does not
// hold and leases those (TestCoordinatorRestartLeasesOnlyUncachedTrials).
//
// The package sits in detlint's "harness" scope: goroutines are allowed
// (it is orchestration, not kernel), but no wall clock — time arrives
// only through the injected Config.Now / WorkerConfig.Sleep hooks — no
// global rand (backoff is deterministic exponential), no map-order
// dependence, and no float equality.
package dist

import "encoding/json"

// The HTTP wire protocol under /v1/work/. All bodies are JSON; workers
// authenticate by their coordinator-assigned ID (this is a cluster-
// internal protocol, not an internet-facing one — bgpd's public surface
// stays /v1/runs).

// RegisterRequest is POST /v1/work/register: a worker announcing
// itself. Name is advisory (diagnostics); the coordinator assigns the
// canonical worker ID.
type RegisterRequest struct {
	Name string `json:"name,omitempty"`
}

// RegisterResponse carries the assigned worker ID the worker must
// present on every subsequent call.
type RegisterResponse struct {
	Worker string `json:"worker"`
}

// LeaseRequest is POST /v1/work/lease: a registered worker asking for a
// chunk of trials. It doubles as the heartbeat — every poll refreshes
// the worker's liveness.
type LeaseRequest struct {
	Worker string `json:"worker"`
}

// Lease is one granted chunk: a set of global trial indices from one
// sweep, the scenario spec to rebuild them from, and the content
// address each result must match. Attempt is 1 for a first grant and
// increments on reassignment or hedging.
type Lease struct {
	ID    string          `json:"id"`
	Sweep string          `json:"sweep"`
	Spec  json.RawMessage `json:"spec"`
	// Trials are global trial indices; Keys[i] is the expected
	// CacheKey of Trials[i].
	Trials  []int    `json:"trials"`
	Keys    []string `json:"keys"`
	Attempt int      `json:"attempt"`
}

// LeaseResponse answers a lease poll. A nil Lease with Idle=true means
// "nothing to do right now, poll again"; Hedged marks a duplicate grant
// of a still-outstanding chunk (tail hedging — first result wins).
type LeaseResponse struct {
	Lease  *Lease `json:"lease,omitempty"`
	Hedged bool   `json:"hedged,omitempty"`
	Idle   bool   `json:"idle,omitempty"`
}

// TrialResult is one executed trial inside a result report: the global
// index, the content address the worker verified, and the encoded
// result bytes (experiment.EncodeResult). A failed trial carries Error
// instead of Data.
type TrialResult struct {
	Trial int             `json:"trial"`
	Key   string          `json:"key"`
	Data  json.RawMessage `json:"data,omitempty"`
	Error string          `json:"error,omitempty"`
}

// ResultReport is POST /v1/work/result: a worker returning a completed
// lease.
type ResultReport struct {
	Worker  string        `json:"worker"`
	Sweep   string        `json:"sweep"`
	Lease   string        `json:"lease"`
	Results []TrialResult `json:"results"`
}

// ReportResponse acknowledges a result report. Duplicates counts trials
// that had already been merged from another lease (hedged twin or
// reassigned predecessor finished first) and were dropped.
type ReportResponse struct {
	Accepted   int `json:"accepted"`
	Duplicates int `json:"duplicates"`
}

// DeregisterRequest is POST /v1/work/deregister: a draining worker
// saying goodbye so the live-worker gauge drops immediately instead of
// waiting for its liveness window to lapse.
type DeregisterRequest struct {
	Worker string `json:"worker"`
}
