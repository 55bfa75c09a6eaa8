package experiment

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"time"

	"bgploop/internal/bgp"
	"bgploop/internal/des"
	"bgploop/internal/durable"
	"bgploop/internal/invariant"
	"bgploop/internal/metrics"
	"bgploop/internal/sweep"
	"bgploop/internal/topology"
)

// ErrTrialPanic marks a TrialFailure caused by a panic inside a trial
// (scenario generation or the simulation itself) that the sweep harness
// recovered from.
var ErrTrialPanic = errors.New("experiment: trial panicked")

// TrialFailure is the structured report of one failed trial in a sweep.
// It carries the exact Scenario and seed so the failure can be replayed
// in isolation with experiment.Run.
type TrialFailure struct {
	// Trial is the zero-based trial index.
	Trial int
	// Scenario and Seed replay the failure (Scenario is the zero value
	// when the generator itself failed before producing one).
	Scenario Scenario `json:"-"`
	Seed     int64
	// Err is the underlying error; for panics it wraps ErrTrialPanic.
	Err error `json:"-"`
	// Panicked, PanicValue and Stack describe a recovered panic. The
	// stack is for human debugging only — it contains nondeterministic
	// addresses and must never enter a digested result.
	Panicked   bool
	PanicValue string
	Stack      string `json:"-"`
	// Forensic is the failure's forensic bundle (set for invariant
	// violations, panics, and non-quiescence diagnoses); ForensicPath is
	// where a cache-backed sweep persisted it for `bgpsim -shrink`. Both
	// are excluded from digests: the bundle embeds a stack trace and the
	// path is host-specific.
	Forensic     *invariant.Bundle `json:"-"`
	ForensicPath string            `json:"-"`
}

// Error implements error with the sweep's historical message shape.
func (f *TrialFailure) Error() string {
	return fmt.Sprintf("experiment: trial %d: %v", f.Trial, f.Err)
}

// Unwrap exposes the underlying error to errors.Is/As.
func (f *TrialFailure) Unwrap() error { return f.Err }

// SweepOptions tunes the graceful-degradation behaviour of a trial sweep
// and the executor underneath it.
type SweepOptions struct {
	// ContinueOnFailure keeps the sweep running past failed trials,
	// collecting TrialFailure reports and aggregating the survivors.
	// When false the sweep stops at the first failure (but still returns
	// the partial results gathered so far).
	ContinueOnFailure bool
	// MaxFailureRatio is the failed/attempted ratio above which a
	// continue-on-failure sweep is reported as an error anyway (the
	// surviving sample is no longer representative). Zero means the
	// default of 0.5. The executor aborts in-flight trials as soon as the
	// failure count alone guarantees a breach.
	MaxFailureRatio float64
	// Workers is the trial-level parallelism: 0 means GOMAXPROCS, 1 runs
	// the trials inline in the calling goroutine (the sequential path,
	// and the regression oracle every other width must match byte for
	// byte). The DES kernel stays single-threaded either way; only whole
	// independent trials run concurrently.
	Workers int
	// CacheDir, when non-empty, enables the content-addressed result
	// cache rooted there: trials whose Scenario.CacheKey matches a stored
	// object are served from disk instead of re-simulated. Every trial
	// is stored as it completes, so the cache is also the checkpoint of
	// an interrupted sweep: re-running it with the same CacheDir
	// simulates only the trials that had not finished.
	CacheDir string
	// Context, when non-nil, cancels in-flight trials cooperatively
	// (Ctrl-C in cmd/bgpsim); nil means context.Background().
	Context context.Context
	// Progress, when non-nil, observes every trial reaching a terminal
	// state, in completion order.
	Progress func(trial int, st sweep.Status, src sweep.Source)
	// Stats, when non-nil, accumulates executor statistics (executed vs
	// cached vs deduped counts) across sweeps.
	Stats *sweep.Stats
	// Flight, when non-nil, collapses concurrent executions of the same
	// scenario content address onto one simulation — across this sweep
	// and every other sweep sharing the Flight. The service layer
	// (cmd/bgpd) hands one process-wide Flight to every job so identical
	// concurrent submissions never simulate a trial twice. Requires the
	// persistence codec, which CacheDir or the Flight itself enable.
	Flight *sweep.Flight
	// Remote is the distributed-execution seam (see sweep.Options.Remote):
	// when non-nil, trials with a content address are satisfied by the
	// remote executor — internal/dist's coordinator hands them to a
	// leased worker fleet — instead of simulating in this process. The
	// returned bytes are decoded through the same Result codec the cache
	// uses, so the merged aggregate is byte-identical to a local run.
	// Uncacheable trials (empty CacheKey) always run locally.
	Remote func(ctx context.Context, trial int, key string) ([]byte, error)
	// FS routes every persistence-layer file operation (cache objects,
	// forensic bundles) through the given filesystem; nil means the real
	// one. Fault-injection tests pass a durable.FaultFS so scripted
	// ENOSPC/EIO/crash schedules exercise the production code paths.
	FS durable.FS
}

// DefaultMaxFailureRatio is the failure-rate threshold applied when
// SweepOptions.MaxFailureRatio is zero.
const DefaultMaxFailureRatio = 0.5

// Aggregate summarises a metric set over replicated trials.
type Aggregate struct {
	// Trials counts the successful trials backing the samples; Attempted
	// counts all trials the sweep ran, including failed ones.
	Trials    int
	Attempted int
	// Failures holds the structured reports of failed trials (empty on a
	// fully successful sweep).
	Failures []*TrialFailure
	// ConvergenceSec and LoopingDurationSec are in seconds for direct use
	// as figure series.
	ConvergenceSec     metrics.Sample
	LoopingDurationSec metrics.Sample
	TTLExhaustions     metrics.Sample
	LoopingRatio       metrics.Sample
	PacketsSent        metrics.Sample
	UpdatesSent        metrics.Sample
	LoopCount          metrics.Sample
	MaxLoopSize        metrics.Sample
}

// Generator produces the scenario for trial i. Trials typically differ in
// seed, and — for Internet-like topologies — in destination and failed
// link, mirroring the paper's "repeated ... with different destination
// ASes and failed links".
type Generator func(trial int) (Scenario, error)

// RunSweep executes trials scenarios from gen under the given sweep
// options and aggregates the metric samples. A panic inside scenario
// generation or the simulation is recovered and converted into a
// structured TrialFailure carrying the replayable Scenario and seed, so
// one crashing trial cannot take down a long parameter sweep. Failed
// trials are reported in Aggregate.Failures; the metric samples
// aggregate the surviving trials only. Without ContinueOnFailure the
// sweep stops at the first failed trial; either way the results and
// aggregate of the trials that succeeded are returned alongside the
// error, so callers can salvage a partially completed sweep.
//
// The trials run on the internal/sweep executor: Workers > 1 fans them
// across a goroutine pool with byte-identical output to the sequential
// path, and CacheDir enables the content-addressed cache, which also
// resumes an interrupted sweep. The returned statistics say how many
// trials were simulated versus served from the cache. The aggregate
// itself never includes the statistics, so cached and uncached runs of
// the same sweep digest identically.
func RunSweep(gen Generator, trials int, opts SweepOptions) (Aggregate, []*Result, sweep.Stats, error) {
	if trials <= 0 {
		return Aggregate{}, nil, sweep.Stats{}, fmt.Errorf("experiment: non-positive trial count %d", trials)
	}
	maxRatio := opts.MaxFailureRatio
	if maxRatio == 0 {
		maxRatio = DefaultMaxFailureRatio
	}
	ctx := opts.Context
	if ctx == nil {
		ctx = context.Background()
	}

	var cache *sweep.Cache
	if opts.CacheDir != "" {
		var err error
		if cache, err = sweep.OpenCacheFS(opts.CacheDir, opts.FS); err != nil {
			return Aggregate{}, nil, sweep.Stats{}, err
		}
	}

	// Content addresses are computed up front (once per trial) when any
	// persistence layer is on; a trial whose scenario is uncacheable gets
	// the empty key and always executes.
	var codec sweep.Codec[*Result]
	var keys []string
	if cache != nil || opts.Flight != nil || opts.Remote != nil {
		keys = make([]string, trials)
		for i := range keys {
			keys[i] = trialKey(gen, i)
		}
		codec = sweep.Codec[*Result]{
			Key:    func(i int) string { return keys[i] },
			Encode: EncodeResult,
			Decode: DecodeResult,
		}
	}

	forensicsDir := ""
	if cache != nil {
		forensicsDir = ForensicsDir(cache.Dir())
	}
	task := func(tctx context.Context, i int) (*Result, error) {
		res, fail := runOneTrial(tctx, gen, i)
		if fail != nil {
			attachForensics(fail, forensicsDir, opts.FS)
			return nil, fail
		}
		return res, nil
	}
	swOpts := sweep.Options[*Result]{
		Workers:  opts.Workers,
		FailFast: !opts.ContinueOnFailure,
		Codec:    codec,
		Cache:    cache,
		Flight:   opts.Flight,
		Remote:   opts.Remote,
		Progress: opts.Progress,
	}
	if opts.ContinueOnFailure {
		swOpts.MaxFailureRatio = maxRatio
	}
	out, err := sweep.Run(ctx, trials, task, swOpts)
	if err != nil {
		return Aggregate{}, nil, sweep.Stats{}, err
	}
	if opts.Stats != nil {
		opts.Stats.Add(out.Stats)
	}
	agg, results, aerr := tallyOutcome(out, opts, maxRatio, ctx)
	return agg, results, out.Stats, aerr
}

// tallyOutcome converts the executor's trial-ordered outcome into the
// historical Aggregate/results/error shape. All policy is defined over
// trial indices, so the tally is independent of completion order.
func tallyOutcome(out *sweep.Outcome[*Result], opts SweepOptions, maxRatio float64, ctx context.Context) (Aggregate, []*Result, error) {
	var (
		results   []*Result
		failures  []*TrialFailure
		attempted int
		canceled  int
		conv      []float64
		loopDur   []float64
		exhaust   []float64
		ratio     []float64
		packets   []float64
		updates   []float64
		loopCnt   []float64
		maxLoopN  []float64
	)
	firstFail := out.FirstFailure()
	limit := len(out.Status)
	if !opts.ContinueOnFailure && firstFail >= 0 {
		// Sequential fail-fast semantics: the sweep counts as having run
		// trials 0..firstFail and salvages the results below the failure;
		// whatever completed above it (out-of-order parallel finishes) is
		// discarded so the output matches the sequential oracle.
		limit = firstFail
		attempted = firstFail + 1
		failures = append(failures, asTrialFailure(out.Errs[firstFail], firstFail))
	} else {
		for i, st := range out.Status {
			switch st {
			case sweep.StatusDone, sweep.StatusFailed:
				attempted++
			case sweep.StatusCanceled:
				attempted++
				canceled++
			}
			if st == sweep.StatusFailed {
				failures = append(failures, asTrialFailure(out.Errs[i], i))
			}
		}
	}
	for i := 0; i < limit; i++ {
		if !out.Done(i) {
			continue
		}
		res := out.Results[i]
		results = append(results, res)
		conv = append(conv, res.ConvergenceTime.Seconds())
		loopDur = append(loopDur, res.LoopingDuration.Seconds())
		exhaust = append(exhaust, float64(res.TTLExhaustions))
		ratio = append(ratio, res.LoopingRatio)
		packets = append(packets, float64(res.PacketsSent))
		updates = append(updates, float64(res.UpdatesSent))
		loopCnt = append(loopCnt, float64(res.LoopStats.Count))
		maxLoopN = append(maxLoopN, float64(res.LoopStats.MaxSize))
	}
	agg := Aggregate{
		Trials:             len(results),
		Attempted:          attempted,
		Failures:           failures,
		ConvergenceSec:     metrics.NewSample(conv),
		LoopingDurationSec: metrics.NewSample(loopDur),
		TTLExhaustions:     metrics.NewSample(exhaust),
		LoopingRatio:       metrics.NewSample(ratio),
		PacketsSent:        metrics.NewSample(packets),
		UpdatesSent:        metrics.NewSample(updates),
		LoopCount:          metrics.NewSample(loopCnt),
		MaxLoopSize:        metrics.NewSample(maxLoopN),
	}
	switch {
	case !opts.ContinueOnFailure && firstFail >= 0:
		return agg, results, failures[0]
	case len(failures) > 0 && float64(len(failures))/float64(attempted) > maxRatio:
		return agg, results, fmt.Errorf("experiment: %d of %d trials failed, above the %.2f failure-ratio threshold: %w",
			len(failures), attempted, maxRatio, failures[0])
	case ctx.Err() != nil || canceled > 0:
		cause := ctx.Err()
		if cause == nil {
			cause = context.Canceled
		}
		return agg, results, fmt.Errorf("experiment: sweep interrupted with %d of %d trials complete: %w",
			agg.Trials, len(out.Status), cause)
	default:
		return agg, results, nil
	}
}

// asTrialFailure normalizes a task error into the structured report.
func asTrialFailure(err error, trial int) *TrialFailure {
	var tf *TrialFailure
	if errors.As(err, &tf) {
		return tf
	}
	return &TrialFailure{Trial: trial, Err: err}
}

// trialKey computes trial i's content address for the persistence layers,
// absorbing generator errors and panics — such a trial gets the empty
// (uncacheable) key and reports its failure when it actually runs.
func trialKey(gen Generator, i int) (key string) {
	defer func() {
		if recover() != nil {
			key = ""
		}
	}()
	s, err := gen(i)
	if err != nil {
		return ""
	}
	return s.CacheKey()
}

// runOneTrial generates and runs trial i, converting any error or panic
// into a structured TrialFailure. The context cancels the run between
// kernel event chunks (see RunContext); a cancellation surfaces as a
// TrialFailure wrapping ctx's error, which the executor classifies as
// canceled rather than failed.
func runOneTrial(ctx context.Context, gen Generator, trial int) (res *Result, fail *TrialFailure) {
	var (
		s            Scenario
		haveScenario bool
	)
	defer func() {
		if r := recover(); r != nil {
			fail = &TrialFailure{
				Trial:      trial,
				Err:        fmt.Errorf("%w: %v", ErrTrialPanic, r),
				Panicked:   true,
				PanicValue: fmt.Sprint(r),
				Stack:      string(debug.Stack()),
			}
			if haveScenario {
				fail.Scenario = s
				fail.Seed = s.Seed
			}
			res = nil
		}
	}()
	if err := ctx.Err(); err != nil {
		return nil, &TrialFailure{Trial: trial, Err: err}
	}
	var err error
	s, err = gen(trial)
	if err != nil {
		return nil, &TrialFailure{Trial: trial, Err: err}
	}
	haveScenario = true
	res, err = RunContext(ctx, s)
	if err != nil {
		f := &TrialFailure{Trial: trial, Scenario: s, Seed: s.Seed, Err: err}
		var pe *invariant.PanicError
		if errors.As(err, &pe) {
			// A guarded run converts internal panics into structured
			// PanicErrors before they reach the recover above; classify
			// them identically (same Panicked flag and PanicValue) so
			// aggregates digest the same with guards on or off.
			f.Err = fmt.Errorf("%w: %w", ErrTrialPanic, pe)
			f.Panicked = true
			f.PanicValue = pe.Value
			f.Stack = pe.Stack
		}
		return nil, f
	}
	return res, nil
}

// Repeat builds a Generator that reuses one scenario with per-trial seeds
// (seed, seed+1, ...). Suitable for Clique/B-Clique experiments where only
// jitter and processing randomness vary across trials.
func Repeat(s Scenario) Generator {
	return func(trial int) (Scenario, error) {
		out := s
		out.Seed = s.Seed + int64(trial)
		return out, nil
	}
}

// InternetTDown builds a Generator for the paper's Internet-topology
// T_down runs: each trial generates the n-node Internet-like topology,
// picks the destination uniformly among the lowest-degree ASes, and fails
// it. The topology itself is fixed across trials (as in the paper, which
// reused the derived graphs); destination choice and all protocol
// randomness vary per trial.
func InternetTDown(n int, cfg bgp.Config, seed int64) Generator {
	return func(trial int) (Scenario, error) {
		g, err := topology.InternetLike(n, seed)
		if err != nil {
			return Scenario{}, err
		}
		trialSeed := seed + int64(trial)
		return TDownScenario(g, drawTDownDest(g, trialSeed), cfg, trialSeed), nil
	}
}

// InternetTLong builds a Generator for the Internet-topology T_long runs:
// the destination is drawn from the lowest-degree ASes that have at least
// one incident non-bridge link, and one such link is failed at random.
func InternetTLong(n int, cfg bgp.Config, seed int64) Generator {
	return func(trial int) (Scenario, error) {
		g, err := topology.InternetLike(n, seed)
		if err != nil {
			return Scenario{}, err
		}
		trialSeed := seed + int64(trial)
		dest, link, err := drawTLong(g, trialSeed)
		if err != nil {
			return Scenario{}, err
		}
		return TLongScenario(g, dest, link, cfg, trialSeed), nil
	}
}

// drawTDownDest is the paper's T_down destination draw on an
// Internet-like graph: uniform among the lowest-degree ASes, from the
// scenario seed's own stream. The generators above and a scenario spec's
// "dest": -1 both draw here, so the same seed names the same destination
// on either path.
func drawTDownDest(g *topology.Graph, seed int64) topology.Node {
	pick := des.NewRNG(seed).Stream(fmt.Sprintf("experiment/dest/%d", g.NumNodes()))
	lows := topology.LowestDegreeNodes(g)
	return lows[pick.Intn(len(lows))]
}

// drawTLong is the paper's joint T_long draw: it fails "one of its [the
// destination's] links", so the destination must survive the failure.
// The choice is uniform over every (destination, incident non-bridge
// link) pair among the lowest-degree ASes that have such a link at all
// (multi-homed stubs). Shared like drawTDownDest.
func drawTLong(g *topology.Graph, seed int64) (topology.Node, topology.Edge, error) {
	type choice struct {
		dest topology.Node
		link topology.Edge
	}
	var (
		choices   []choice
		minDegree = -1
	)
	// A link may fail when the graph stays connected without it: when the
	// graph is connected and the link is not a bridge. One low-link pass
	// finds every bridge; asking topology.NonBridgeIncidentEdges per node
	// is a breadth-first search per incident edge, 2E of them.
	bridge := make(map[topology.Edge]bool)
	for _, e := range g.Bridges() {
		bridge[e] = true
	}
	nodes := g.Nodes()
	if !g.Connected() {
		nodes = nil
	}
	for _, dest := range nodes {
		d := g.Degree(dest)
		if minDegree != -1 && d > minDegree {
			continue
		}
		for _, e := range g.IncidentEdges(dest) {
			if bridge[e] {
				continue
			}
			if d < minDegree || minDegree == -1 {
				minDegree = d
				choices = choices[:0]
			}
			choices = append(choices, choice{dest: dest, link: e})
		}
	}
	if len(choices) == 0 {
		return 0, topology.Edge{}, fmt.Errorf("experiment: no failable T_long link in %s", g.Name())
	}
	pick := des.NewRNG(seed).Stream(fmt.Sprintf("experiment/tlong/%d", g.NumNodes()))
	c := choices[pick.Intn(len(choices))]
	return c.dest, c.link, nil
}

// BCliqueTLong builds the paper's B-Clique T_long scenario: destination
// AS 0, failing the [0, n] shortcut.
func BCliqueTLong(n int, cfg bgp.Config, seed int64) Scenario {
	return TLongScenario(topology.BClique(n), 0, topology.BCliqueShortcut(n), cfg, seed)
}

// CliqueTDown builds the paper's Clique T_down scenario: destination AS 0
// becomes unreachable.
func CliqueTDown(n int, cfg bgp.Config, seed int64) Scenario {
	return TDownScenario(topology.Clique(n), 0, cfg, seed)
}

// WithMRAI returns cfg with the MRAI replaced — convenience for sweeps.
func WithMRAI(cfg bgp.Config, mrai time.Duration) bgp.Config {
	cfg.MRAI = mrai
	return cfg
}

// WithEnhancements returns cfg with the enhancement set replaced.
func WithEnhancements(cfg bgp.Config, e bgp.Enhancements) bgp.Config {
	cfg.Enhancements = e
	return cfg
}
