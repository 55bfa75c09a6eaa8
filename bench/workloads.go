package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"bgploop/internal/bgp"
	"bgploop/internal/des"
	"bgploop/internal/durable"
	"bgploop/internal/experiment"
	"bgploop/internal/metrics"
)

// opResult is what one op produced. The harness digests it outside the
// timed window, so verification never counts as the system's work.
type opResult struct {
	result *experiment.Result    // a trial op's result
	agg    *experiment.Aggregate // a sweep op's aggregate
	digest string                // a served op's digest, already computed by the server
	events uint64                // simulated events behind the delivered results
	// traced, when non-zero, is the op's own span time and replaces the
	// harness's window (the traced trial does apportioning work after its
	// span closes that is the tracer's, not the trial's).
	traced time.Duration
}

// instance is one set-up of a workload: the state its ops run against.
type instance interface {
	// beginLap prepares lap number lap of the ring (fresh directories, a
	// fresh server); it runs outside every op's timed window.
	beginLap(lap int) error
	// op runs ring element i. tr is nil on an untraced run.
	op(lap, i int, tr *tracer, id int) (opResult, error)
	close() error
}

// workload is one benchmark workload: a ring of ring distinct ops made
// from the seed, cycled for laps laps. A lap is the unit of repetition:
// every lap does exactly the same simulated work, so counts are exact per
// lap.
type workload struct {
	name string
	ring int // distinct ops per lap
	// laps is the frozen op count of a runSeconds-second run, in laps:
	// calibrated once, at the seed commit, so that the measured section
	// takes about runSeconds there, and not touched since.
	laps int
	warm int // warm-up ops run by every set-up
	// trialsPerOp is how many trials one op completes.
	trialsPerOp int
	// probeTrials is how many trials of its scenario the kernel probe of a
	// sweep-shaped workload traces; a trial workload's traced ops are its
	// kernel probe and it needs none.
	probeTrials int
	// prepare derives the inputs (and the oracles the correctness gate
	// compares against) from the seed. It is the benchmark's own work and
	// is charged to neither set-up nor the measured section.
	prepare func(w *workload, seed int64, scratch string) (*payload, error)
	// setup builds the system state the ops need.
	setup func(w *workload, p *payload, scratch string) (instance, error)
}

// payload is a workload's seed-derived input.
type payload struct {
	// Trial workloads: one generator call per ring element.
	gen experiment.Generator
	// Sweep-shaped workloads: one spec per ring element, its materialised
	// scenario, and the request body the served workload posts.
	specs     []experiment.ScenarioSpec
	scenarios []experiment.Scenario
	bodies    [][]byte
	// Oracles, filled where the gate needs a local run to compare with:
	// the aggregate digest, simulated events and wall time of the same
	// sweep through experiment.RunSweep in this process.
	oracleDigest []string
	oracleEvents []uint64
	oracleTime   []time.Duration
	// probe is the scenario the layer probes push through every layer.
	probe experiment.Scenario
}

// sweepTrials and sweepWorkers define the sweep op: the CLI/figure user's
// unit of work.
const (
	sweepTrials  = 8
	sweepWorkers = 2
	servedTrials = 2
)

// workloads is the fixed roster; names are part of the contract.
var workloads = []*workload{
	{name: "inet110-tdown", ring: 24, laps: 1, warm: 2, trialsPerOp: 1, prepare: prepareInet110, setup: setupMaterialised},
	{name: "clique10-mrai0", ring: 96, laps: 1, warm: 8, trialsPerOp: 1, prepare: prepareClique10, setup: setupMaterialised},
	{name: "inet1000-tlong", ring: 12, laps: 3, warm: 2, trialsPerOp: 1, prepare: prepareInet1000, setup: setupGenerated},
	{name: "sweep8-cold", ring: 8, laps: 4, warm: 2, trialsPerOp: sweepTrials, probeTrials: sweepTrials, prepare: prepareSweep(false), setup: setupSweepCold},
	{name: "sweep8-warm", ring: 4, laps: 400, warm: 4, trialsPerOp: sweepTrials, probeTrials: sweepTrials, prepare: prepareSweep(false), setup: setupSweepWarm},
	{name: "served", ring: 64, laps: 64, warm: 64, trialsPerOp: 2 * servedTrials, probeTrials: servedTrials, prepare: prepareServed, setup: setupServed},
	{name: "dist-w1", ring: 8, laps: 4, warm: 2, trialsPerOp: sweepTrials, probeTrials: sweepTrials, prepare: prepareSweep(true), setup: setupDist},
}

// lapsFor is the lap count of a run of the given length: the frozen count
// scaled with -seconds alone, never with how fast the laps turn out to run.
func (w *workload) lapsFor(seconds float64) int {
	return max(1, int(float64(w.laps)*seconds/runSeconds+0.5))
}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// ringBase derives the ring's base seed from -seed through the simulator's
// own named-stream generator, so that neighbouring -seed values give
// unrelated rings; the range is one every JSON decoder represents exactly.
func ringBase(seed int64) int64 {
	return des.NewRNG(seed).Stream("bench/ring").Int63n(1<<30) + 1
}

// ---- trial workloads -------------------------------------------------

// The Internet-like workloads fix a catalogue of structures, as the paper
// fixed its three derived graphs: ring element i always runs on graph
// number i+1 with the destination (and failed link) its generator draws
// for trial i, and the seed drives all the randomness of the run itself —
// processing delays, MRAI jitter. A trial's cost varies by a factor of
// two with the structure; were that drawn from the seed too, the luck of
// a couple of dozen draws would sit in every number of a run.

func prepareInet110(w *workload, seed int64, _ string) (*payload, error) {
	return trialPayload(catalogue(ringBase(seed), func(graph int64) experiment.Generator {
		return experiment.InternetTDown(110, bgp.DefaultConfig(), graph)
	}))
}

// catalogue is the generator of a stratified ring: element i is trial i of
// family(i+1), run with seed base+i.
func catalogue(base int64, family func(graph int64) experiment.Generator) experiment.Generator {
	return func(i int) (experiment.Scenario, error) {
		s, err := family(int64(i + 1))(i)
		s.Seed = base + int64(i)
		return s, err
	}
}

func prepareClique10(w *workload, seed int64, _ string) (*payload, error) {
	cfg := experiment.WithMRAI(bgp.DefaultConfig(), 0)
	gen := experiment.Repeat(experiment.CliqueTDown(10, cfg, ringBase(seed)))
	return trialPayload(gen)
}

func prepareInet1000(w *workload, seed int64, _ string) (*payload, error) {
	return trialPayload(catalogue(ringBase(seed), func(graph int64) experiment.Generator {
		return experiment.InternetTLong(1000, bgp.DefaultConfig(), graph)
	}))
}

func trialPayload(gen experiment.Generator) (*payload, error) {
	probe, err := gen(0)
	if err != nil {
		return nil, err
	}
	return &payload{gen: gen, probe: probe}, nil
}

// trialInstance runs one trial per op. With scenarios materialised the op
// is experiment.Run alone; otherwise the generator runs inside the op.
type trialInstance struct {
	gen       experiment.Generator
	scenarios []experiment.Scenario // nil: generate inside the op
	profiles  []kernelProfile       // traced runs: one profile per traced lap
	profLap   int                   // lap the last profile belongs to
}

// setupMaterialised builds the scenario ring up front: the topology is
// part of set-up, the op is the trial alone.
func setupMaterialised(w *workload, p *payload, _ string) (instance, error) {
	t := &trialInstance{gen: p.gen, scenarios: make([]experiment.Scenario, w.ring)}
	for i := range t.scenarios {
		s, err := p.gen(i)
		if err != nil {
			return nil, err
		}
		t.scenarios[i] = s
	}
	return t, nil
}

// setupGenerated leaves generation to the op.
func setupGenerated(w *workload, p *payload, _ string) (instance, error) {
	return &trialInstance{gen: p.gen}, nil
}

func (t *trialInstance) beginLap(lap int) error { return nil }

func (t *trialInstance) op(lap, i int, tr *tracer, id int) (opResult, error) {
	genInOp := t.scenarios == nil
	if tr != nil {
		if len(t.profiles) == 0 || t.profLap != lap {
			t.profiles = append(t.profiles, kernelProfile{})
			t.profLap = lap
		}
		prof := &t.profiles[len(t.profiles)-1]
		before := prof.Trial
		gen := func() (experiment.Scenario, error) { return t.gen(i) }
		res, err := tracedTrial(gen, genInOp, tr, id, -1, prof)
		if err != nil {
			return opResult{}, err
		}
		return opResult{result: res, events: res.EventsExecuted, traced: prof.Trial - before}, nil
	}
	var s experiment.Scenario
	if genInOp {
		var err error
		if s, err = t.gen(i); err != nil {
			return opResult{}, err
		}
	} else {
		s = t.scenarios[i]
	}
	res, err := experiment.Run(s)
	if err != nil {
		return opResult{}, err
	}
	return opResult{result: res, events: res.EventsExecuted}, nil
}

func (t *trialInstance) close() error { return nil }

// ---- sweep workloads --------------------------------------------------

// sweepSpec is ring element k of the sweep-shaped workloads: the paper's
// Clique(15) T_down, replicated over per-trial seeds by experiment.Repeat.
func sweepSpec(base int64, k int) experiment.ScenarioSpec {
	return experiment.ScenarioSpec{
		Topology: experiment.TopologySpec{Family: "clique", Size: 15},
		Event:    "tdown",
		Seed:     base + int64(k*sweepTrials),
	}
}

// prepareSweep builds the spec ring; withOracle also runs every ring
// element through a local cold RunSweep, the reference the distributed
// run must reproduce byte for byte (and the base of its wire tax).
func prepareSweep(withOracle bool) func(*workload, int64, string) (*payload, error) {
	return func(w *workload, seed int64, scratch string) (*payload, error) {
		p := &payload{}
		base := ringBase(seed)
		for k := 0; k < w.ring; k++ {
			spec := sweepSpec(base, k)
			sc, err := spec.Scenario()
			if err != nil {
				return nil, err
			}
			p.specs = append(p.specs, spec)
			p.scenarios = append(p.scenarios, sc)
		}
		p.probe = p.scenarios[0]
		if withOracle {
			if err := p.fillOracles(sweepTrials, sweepWorkers, nil, filepath.Join(scratch, "oracle")); err != nil {
				return nil, err
			}
		}
		return p, nil
	}
}

// fillOracles runs every ring element through a local cold sweep on the
// filesystem the workload's own sweeps run on (nil: the real one).
func (p *payload) fillOracles(trials, workers int, fsys durable.FS, dir string) error {
	for k, sc := range p.scenarios {
		elapsed, digest, events, err := localSweep(sc, trials, workers, fsys, filepath.Join(dir, fmt.Sprintf("c%d", k)))
		if err != nil {
			return err
		}
		p.oracleTime = append(p.oracleTime, elapsed)
		p.oracleDigest = append(p.oracleDigest, digest)
		p.oracleEvents = append(p.oracleEvents, events)
	}
	return os.RemoveAll(dir)
}

// localSweep is the bypass control for the service layers and the oracle
// of the correctness gate: trials trials of sc through
// experiment.RunSweep, cold, against a fresh cache directory. It returns
// the wall time, the aggregate digest and the simulated events.
func localSweep(sc experiment.Scenario, trials, workers int, fsys durable.FS, cacheDir string) (time.Duration, string, uint64, error) {
	start := time.Now()
	agg, results, _, err := experiment.RunSweep(experiment.Repeat(sc), trials, experiment.SweepOptions{Workers: workers, CacheDir: cacheDir, FS: fsys})
	elapsed := time.Since(start)
	if err != nil {
		return 0, "", 0, err
	}
	digest, err := experiment.DigestAggregate(agg)
	return elapsed, digest, sumEvents(results), err
}

func sumEvents(results []*experiment.Result) uint64 {
	var n uint64
	for _, r := range results {
		n += r.EventsExecuted
	}
	return n
}

// sweepInstance runs one 8-trial sweep per op against a cache directory:
// fresh per op (cold: the write side of the sweep layer) or populated by
// set-up (warm: the read side, no simulation at all).
type sweepInstance struct {
	p      *payload
	dir    string
	warm   bool
	lapDir string
	hits   int // cache probes that hit, over every op so far
	probes int
}

func (s *sweepInstance) cacheHitRatio() float64 {
	return metrics.Ratio(float64(s.hits), float64(s.probes))
}

func setupSweepCold(w *workload, p *payload, scratch string) (instance, error) {
	return &sweepInstance{p: p, dir: filepath.Join(scratch, "cold")}, nil
}

// setupSweepWarm populates one cache directory per ring element by
// running its sweep cold; every measured op then finds all eight trials.
func setupSweepWarm(w *workload, p *payload, scratch string) (instance, error) {
	s := &sweepInstance{p: p, dir: filepath.Join(scratch, "warm"), warm: true}
	p.oracleDigest, p.oracleEvents = nil, nil
	for k, sc := range p.scenarios {
		agg, results, stats, err := experiment.RunSweep(experiment.Repeat(sc), sweepTrials, experiment.SweepOptions{Workers: sweepWorkers, CacheDir: s.cacheDir(k)})
		if err != nil {
			return nil, err
		}
		if stats.Executed != sweepTrials {
			return nil, fmt.Errorf("populating sweep %d executed %d of %d trials", k, stats.Executed, sweepTrials)
		}
		d, err := experiment.DigestAggregate(agg)
		if err != nil {
			return nil, err
		}
		p.oracleDigest = append(p.oracleDigest, d)
		p.oracleEvents = append(p.oracleEvents, sumEvents(results))
	}
	return s, nil
}

func (s *sweepInstance) cacheDir(k int) string {
	if s.warm {
		return filepath.Join(s.dir, fmt.Sprintf("c%d", k))
	}
	return filepath.Join(s.lapDir, fmt.Sprintf("c%d", k))
}

func (s *sweepInstance) beginLap(lap int) error {
	if s.warm {
		return nil
	}
	if s.lapDir != "" {
		if err := os.RemoveAll(s.lapDir); err != nil {
			return err
		}
	}
	s.lapDir = filepath.Join(s.dir, fmt.Sprintf("lap%d", lap))
	return nil
}

func (s *sweepInstance) op(lap, i int, tr *tracer, id int) (opResult, error) {
	sp := tr.begin("sweep.call", id, -1)
	agg, results, stats, err := experiment.RunSweep(experiment.Repeat(s.p.scenarios[i]), sweepTrials, experiment.SweepOptions{Workers: sweepWorkers, CacheDir: s.cacheDir(i)})
	tr.end(sp)
	if err != nil {
		return opResult{}, err
	}
	s.hits += stats.CacheHits
	s.probes += stats.CacheHits + stats.CacheMisses
	wantExec, wantHits := sweepTrials, 0
	if s.warm {
		wantExec, wantHits = 0, sweepTrials
	}
	if stats.Executed != wantExec || stats.CacheHits != wantHits {
		return opResult{}, fmt.Errorf("sweep stats executed=%d hits=%d, want %d/%d", stats.Executed, stats.CacheHits, wantExec, wantHits)
	}
	if s.warm {
		// The gate: what the cache serves is what the cold run computed.
		d, err := experiment.DigestAggregate(agg)
		if err != nil {
			return opResult{}, err
		}
		if d != s.p.oracleDigest[i] {
			return opResult{}, fmt.Errorf("warm digest %s != cold digest %s", d, s.p.oracleDigest[i])
		}
	}
	return opResult{agg: &agg, events: sumEvents(results)}, nil
}

func (s *sweepInstance) close() error { return os.RemoveAll(s.dir) }

// ---- dist-w1 ----------------------------------------------------------

// distInstance runs the cold sweep ring through a coordinator and one
// in-process worker over loopback HTTP.
type distInstance struct {
	p      *payload
	dir    string
	lapDir string
	fleet  *fleet
	sweeps int
	// snaps holds the coordinator's counters at the start of every
	// measured lap, so a lap's leases are the difference of two.
	snaps []distCounters
}

// snapshot records the counters now; the harness calls it once more
// after the last lap.
func (d *distInstance) snapshot() { d.snaps = append(d.snaps, readDistCounters(d.fleet)) }

func setupDist(w *workload, p *payload, scratch string) (instance, error) {
	f, err := startFleet()
	if err != nil {
		return nil, err
	}
	return &distInstance{p: p, dir: filepath.Join(scratch, "dist"), fleet: f}, nil
}

func (d *distInstance) beginLap(lap int) error {
	if d.lapDir != "" {
		if err := os.RemoveAll(d.lapDir); err != nil {
			return err
		}
	}
	d.lapDir = filepath.Join(d.dir, fmt.Sprintf("lap%d", lap))
	if lap >= 0 {
		d.snapshot()
	}
	return nil
}

func (d *distInstance) op(lap, i int, tr *tracer, id int) (opResult, error) {
	d.sweeps++
	sp := tr.begin("dist.sweep", id, -1)
	agg, results, stats, err := d.fleet.sweep(fmt.Sprintf("bench/%d", d.sweeps), d.p.specs[i], d.p.scenarios[i], sweepTrials,
		filepath.Join(d.lapDir, fmt.Sprintf("c%d", i)))
	tr.end(sp)
	if err != nil {
		return opResult{}, err
	}
	if stats.Remote != sweepTrials || stats.Executed != 0 {
		return opResult{}, fmt.Errorf("dist stats remote=%d executed=%d, want %d/0", stats.Remote, stats.Executed, sweepTrials)
	}
	dig, err := experiment.DigestAggregate(agg)
	if err != nil {
		return opResult{}, err
	}
	if dig != d.p.oracleDigest[i] {
		return opResult{}, fmt.Errorf("distributed digest %s != local digest %s", dig, d.p.oracleDigest[i])
	}
	return opResult{agg: &agg, events: sumEvents(results)}, nil
}

func (d *distInstance) close() error {
	err := d.fleet.close()
	return errors.Join(err, os.RemoveAll(d.dir))
}

// ---- served -----------------------------------------------------------

// prepareServed builds the request ring: a 2-trial figure1 T_long job per
// element, seeds two apart so no two jobs share a trial, and the local
// sweep each served job must reproduce.
func prepareServed(w *workload, seed int64, scratch string) (*payload, error) {
	p := &payload{}
	base := ringBase(seed)
	for k := 0; k < w.ring; k++ {
		spec := experiment.ScenarioSpec{
			Topology: experiment.TopologySpec{Family: "figure1"},
			Event:    "tlong",
			Seed:     base + int64(k*servedTrials),
		}
		body, err := json.Marshal(struct {
			Spec   experiment.ScenarioSpec `json:"spec"`
			Trials int                     `json:"trials"`
		}{spec, servedTrials})
		if err != nil {
			return nil, err
		}
		sc, err := spec.Scenario()
		if err != nil {
			return nil, err
		}
		p.specs = append(p.specs, spec)
		p.scenarios = append(p.scenarios, sc)
		p.bodies = append(p.bodies, body)
	}
	p.probe = p.scenarios[0]
	if err := p.fillOracles(servedTrials, 1, newMemFS(), filepath.Join(scratch, "oracle")); err != nil {
		return nil, err
	}
	return p, nil
}

// servedInstance posts each ring element to a loopback bgpd twice: the
// first job simulates, the identical second is served from the store.
type servedInstance struct {
	p    *payload
	d    *bgpd
	lap  int
	cold []jobTiming
	warm []jobTiming
	// counters holds the daemon's /metrics counters at the end of every
	// measured lap (the warm-up lap's are dropped), with the fsyncs it
	// issued filed under "fsyncs".
	counters []map[string]int64
}

func setupServed(w *workload, p *payload, _ string) (instance, error) {
	return &servedInstance{p: p}, nil
}

// beginLap replaces the daemon and its store: a job is cold only against
// a cache that has never seen it.
func (s *servedInstance) beginLap(lap int) error {
	if err := s.stop(); err != nil {
		return err
	}
	d, err := startBgpd()
	s.d, s.lap = d, lap
	return err
}

func (s *servedInstance) stop() error {
	if s.d == nil {
		return nil
	}
	var cerr error
	if s.lap >= 0 {
		var m map[string]int64
		if m, cerr = s.d.counters(); cerr == nil {
			m["fsyncs"] = s.d.fs.syncCount()
			s.counters = append(s.counters, m)
		}
	}
	err := s.d.close()
	s.d = nil
	return errors.Join(cerr, err)
}

// cacheHitRatio is the share of the first measured lap's trials the daemon
// served from its store (cache or resume journal), from its own counters.
func (s *servedInstance) cacheHitRatio() float64 {
	if len(s.counters) == 0 {
		return 0
	}
	c := s.counters[0]
	return metrics.Ratio(float64(c["bgpd_trials_cache_hits_total"]+c["bgpd_trials_resumed_total"]), float64(c["bgpd_trials_total"]))
}

func (s *servedInstance) op(lap, i int, tr *tracer, id int) (opResult, error) {
	cold, ct, err := s.d.runJob(s.p.bodies[i], tr, id, "serve.cold_job")
	if err != nil {
		return opResult{}, err
	}
	warm, wt, err := s.d.runJob(s.p.bodies[i], tr, id, "serve.warm_job")
	if err != nil {
		return opResult{}, err
	}
	if tr != nil {
		s.cold = append(s.cold, ct)
		s.warm = append(s.warm, wt)
	}
	if cold.Stats == nil || cold.Stats.Executed != servedTrials {
		return opResult{}, fmt.Errorf("cold job stats %+v, want %d executed", cold.Stats, servedTrials)
	}
	if warm.Stats == nil || warm.Stats.Executed != 0 || warm.Stats.CacheHits+warm.Stats.Resumed != servedTrials {
		return opResult{}, fmt.Errorf("warm job stats %+v, want 0 executed and %d from the store", warm.Stats, servedTrials)
	}
	if cold.AggregateDigest != s.p.oracleDigest[i] || warm.AggregateDigest != s.p.oracleDigest[i] {
		return opResult{}, fmt.Errorf("served digests cold=%s warm=%s != local %s", cold.AggregateDigest, warm.AggregateDigest, s.p.oracleDigest[i])
	}
	return opResult{digest: cold.AggregateDigest, events: 2 * s.p.oracleEvents[i]}, nil
}

func (s *servedInstance) close() error { return s.stop() }
