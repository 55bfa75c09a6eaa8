package bgploop

import (
	"context"

	"bgploop/internal/bgp"
	"bgploop/internal/core"
	"bgploop/internal/experiment"
	"bgploop/internal/faultplan"
	"bgploop/internal/figures"
	"bgploop/internal/invariant"
	"bgploop/internal/report"
	"bgploop/internal/sweep"
	"bgploop/internal/topology"
)

// Re-exported types forming the public API surface. The implementation
// lives in internal packages; these aliases are the supported entry
// points.
type (
	// Scenario fully describes one simulation run (topology, failure
	// event, protocol configuration, workload, seed).
	Scenario = experiment.Scenario
	// Report is the outcome of a run: convergence time, looping
	// duration, TTL exhaustions, looping ratio, exact loop intervals,
	// and control-plane counters.
	Report = core.Report
	// Config is the BGP speaker configuration (MRAI, jitter, processing
	// delays, enhancements).
	Config = bgp.Config
	// Enhancements selects the convergence enhancements of §5.
	Enhancements = bgp.Enhancements
	// Graph is an AS-level topology.
	Graph = topology.Graph
	// Node identifies an AS.
	Node = topology.Node
	// Table is a rendered result table (text/CSV).
	Table = report.Table
	// Scale sets figure sweep resolution.
	Scale = figures.Scale
	// FaultPlan is a declarative multi-phase fault script: an ordered
	// timeline of link/node failures, correlated failure groups, flap
	// generators, and session resets, with per-phase measurement.
	FaultPlan = faultplan.Plan
	// FaultPhase is one run-to-quiescence segment of a FaultPlan.
	FaultPhase = faultplan.Phase
	// FaultAction is one entry of a phase's action timeline.
	FaultAction = faultplan.Action
	// QuiescenceFailure is the structured diagnosis of a run that
	// exhausted its event budget or virtual-time horizon; its Verdict
	// separates "oscillating" from "still-converging".
	QuiescenceFailure = experiment.QuiescenceFailure
	// TrialFailure reports one failed (or panicked) trial of a sweep,
	// carrying the replayable Scenario and seed.
	TrialFailure = experiment.TrialFailure
	// SweepOptions tunes trial sweeps: failure policy, worker count, and
	// the result cache, which is also an interrupted sweep's checkpoint:
	// re-running with the same CacheDir simulates only what had not
	// finished.
	SweepOptions = experiment.SweepOptions
	// SweepStats counts how each trial of a sweep was satisfied: Executed
	// simulations, CacheHits/CacheMisses against the content-addressed
	// store (a re-run interrupted sweep's completed trials are hits),
	// Deduped in-flight shares, Remote fleet trials, and the
	// Failed/Canceled/Skipped remainder. Resumed is always 0.
	// bgpd exposes the same counters on /metrics, with a cache hit ratio
	// (bgpd_cache_hit_ratio_bp) it derives from its own running totals.
	SweepStats = sweep.Stats
	// Generator produces the scenario for trial i of a sweep.
	Generator = experiment.Generator
	// TrialResult is the raw per-trial outcome backing an Aggregate.
	TrialResult = experiment.Result
	// Aggregate summarizes a sweep's per-trial metrics.
	Aggregate = experiment.Aggregate
	// GuardConfig switches the runtime invariant guards of a run
	// (Scenario.Guard) and carries the corruptFIBNode self-test hook.
	// Guards are observation-only: enabling them never changes a run's
	// results.
	GuardConfig = invariant.Config
	// GuardCadence is the guard switch: GuardOff or GuardFull.
	GuardCadence = invariant.Cadence
	// Violation is one detected invariant breach with its bounded event
	// trail.
	Violation = invariant.Violation
	// ViolationError is the error a guarded run returns on a breach.
	ViolationError = invariant.ViolationError
	// ForensicBundle is the serialized record of one failed trial —
	// scenario spec, failure signature, event trail, RIB digests —
	// written under the sweep cache and consumed by bgpsim -shrink.
	ForensicBundle = invariant.Bundle
	// ShrinkStats reports the work a scenario shrink performed.
	ShrinkStats = invariant.ShrinkStats
	// ScenarioSpec is the JSON scenario-file schema (bgpsim -scenario),
	// also the replayable form embedded in forensic bundles.
	ScenarioSpec = experiment.ScenarioSpec
)

// Guard switch values for GuardConfig.Cadence.
const (
	// GuardOff disables the guards (the default).
	GuardOff = invariant.CadenceOff
	// GuardFull checks sweep invariants after every kernel event.
	GuardFull = invariant.CadenceFull
)

// ErrNoQuiescence is in the error chain of every QuiescenceFailure.
var ErrNoQuiescence = experiment.ErrNoQuiescence

// Event kinds of the paper's two failure workloads.
const (
	TDown = experiment.TDown
	TLong = experiment.TLong
)

// DefaultConfig returns the paper's standard-BGP configuration: MRAI 30 s
// with jitter factor U[0.75, 1], processing delay U[0.1 s, 0.5 s], and the
// shortest-path / lowest-next-hop policy.
func DefaultConfig() Config { return bgp.DefaultConfig() }

// Run executes a scenario and returns the enriched report.
func Run(s Scenario) (*Report, error) { return core.Run(s) }

// RunContext is Run with cooperative cancellation: the experiment
// watchdog polls ctx between kernel event chunks, so Ctrl-C (or a sweep
// abort) stops an in-flight simulation promptly without affecting the
// event order of runs that complete.
func RunContext(ctx context.Context, s Scenario) (*Report, error) {
	return core.RunContext(ctx, s)
}

// Repeat derives trial i of a sweep from s by offsetting the seed.
func Repeat(s Scenario) Generator { return experiment.Repeat(s) }

// RunSweep fans trials across the parallel sweep executor — workers,
// content-addressed result cache (which also resumes an interrupted
// sweep), and in-flight dedupe are set via SweepOptions — and aggregates
// the per-trial metrics. At every worker width the outcome is byte-identical to the
// sequential path. Guarded trials that fail write a forensic bundle
// under <SweepOptions.CacheDir>/forensics/ for bgpsim -shrink.
func RunSweep(gen Generator, trials int, opts SweepOptions) (Aggregate, []*TrialResult, SweepStats, error) {
	return experiment.RunSweep(gen, trials, opts)
}

// CliqueTDown builds the paper's Clique T_down scenario (Figure 3a):
// destination AS 0 of an n-clique becomes unreachable.
func CliqueTDown(n int, cfg Config, seed int64) Scenario {
	return experiment.CliqueTDown(n, cfg, seed)
}

// BCliqueTLong builds the paper's B-Clique T_long scenario (Figure 3b):
// the [0, n] shortcut of a size-n B-Clique fails.
func BCliqueTLong(n int, cfg Config, seed int64) Scenario {
	return experiment.BCliqueTLong(n, cfg, seed)
}

// Figure1TLong builds the paper's Figure 1 scenario: the 7-node example
// topology whose [4 0] link failure creates the canonical transient
// 2-node loop between ASes 5 and 6.
func Figure1TLong(cfg Config, seed int64) Scenario {
	return experiment.TLongScenario(topology.Figure1(), 0, topology.Figure1FailedLink(), cfg, seed)
}

// InternetLike generates a seeded Internet-like AS topology of n nodes,
// the stand-in for the paper's Internet-derived topologies (see DESIGN.md
// for the substitution rationale).
func InternetLike(n int, seed int64) (*Graph, error) {
	return topology.InternetLike(n, seed)
}

// CompareEnhancements runs a scenario under the five §5 protocol variants
// and tabulates the metrics side by side.
func CompareEnhancements(base Scenario) (*Table, error) {
	return core.CompareEnhancements(base)
}

// ReadForensicBundle loads a forensic bundle written by a guarded sweep
// (see SweepOptions.CacheDir; bundles land under <cache>/forensics/).
func ReadForensicBundle(path string) (*ForensicBundle, error) {
	return invariant.ReadBundle(path)
}

// ShrinkFailure delta-debugs a forensic bundle's scenario to a minimal
// reproducer preserving the failure signature. maxRuns caps the candidate
// trials (a library default when <= 0).
func ShrinkFailure(b *ForensicBundle, maxRuns int) (ScenarioSpec, ShrinkStats, error) {
	return experiment.ShrinkFailure(b, maxRuns)
}

// FigureIDs lists the regenerable figures ("4a" ... "9d").
func FigureIDs() []string { return figures.IDs() }

// RunFigure regenerates one of the paper's figures at the given scale.
func RunFigure(id string, sc Scale) (*Table, error) { return figures.Run(id, sc) }

// FullScale returns the paper-fidelity sweep ranges; QuickScale a
// seconds-fast smoke-test grid.
func FullScale() Scale  { return figures.FullScale() }
func QuickScale() Scale { return figures.QuickScale() }
