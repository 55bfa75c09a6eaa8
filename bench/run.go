package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"bgploop/internal/experiment"
)

// runConfig is one run of one workload.
type runConfig struct {
	root    string // the benchmark directory (testdata/, out/)
	w       *workload
	seed    int64
	seconds float64
	trace   bool
	// smoke shrinks the ring to one op and runs a single lap. Only the
	// contract test sets it, to execute every workload in seconds.
	smoke bool
}

// runResult is the outcome of a run: the contract's result line plus the
// detail the full report prints.
type runResult struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	detail    runDetail
	opDigests []string // the first lap's op digests, in ring order
}

// runDetail accompanies a result in -json output and in the full report.
type runDetail struct {
	Workload   string      `json:"workload"`
	Seed       int64       `json:"seed"`
	Trace      bool        `json:"trace"`
	Env        environment `json:"env"`
	Ring       int         `json:"ring"`
	Laps       int         `json:"laps"`
	Ops        int         `json:"ops"`
	RingDigest string      `json:"ring_digest"`
	TailPct    float64     `json:"tail_pct,omitempty"`
	// OpMs is the spread of the untraced op times as measured, before the
	// pace correction behind op_ms_p50: the 10th, 25th, 50th, 75th and
	// 90th percentile, in ms. HostPace is the run's median pace.
	OpMs        [5]float64 `json:"op_ms_p10_p25_p50_p75_p90"`
	HostPace    float64    `json:"host_pace,omitempty"`
	OtherCPU    float64    `json:"other_cpu_share"`
	Failures    []string   `json:"failures,omitempty"`
	Attribution []attrRow  `json:"attribution,omitempty"`
	SpanFile    string     `json:"span_file,omitempty"`
}

// attrRow is one line of a workload's attribution table: a layer's self
// time per op and its share of the base named in Of.
type attrRow struct {
	Layer string  `json:"layer"`
	Ms    float64 `json:"ms"`
	Share float64 `json:"share"`
	Of    string  `json:"of"`
}

//go:embed testdata/digests.json
var pinnedJSON []byte

// pinned is the correctness gate's fixed point: the digest of every op of
// every workload's ring at the pinned seed, in ring order.
type pinned struct {
	Seed int64               `json:"seed"`
	Ops  map[string][]string `json:"ops"`
}

func loadPinned() (pinned, error) {
	var p pinned
	err := json.Unmarshal(pinnedJSON, &p)
	return p, err
}

// tracedRing caps the ring of a traced run: it cycles a prefix of the
// workload's ring, for a lap count as frozen as the untraced run's.
const tracedRing = 8

// runSeconds is the run length the workloads' lap counts were frozen for;
// it is BENCHMARK.json's run_seconds.
const runSeconds = 10

// setupReps is how many times a run sets the workload up; setup_s is the
// median, and the last set-up is the one measured against.
const setupReps = 5

// section is one measured stretch of laps.
type section struct {
	durs []time.Duration // per successful op, every lap, as measured
	// paced holds the same ops' times at the host's nominal pace (see
	// calib.go), paces the pace each was divided by, and pacedWall the
	// sum of paced: the closed loop's busy time at nominal pace.
	paced     []time.Duration
	paces     []float64
	pacedWall time.Duration
	// events is the simulated events behind the successful ops.
	events          uint64
	objects, bytes  uint64
	attempted       int
	failed          int
	laps            int
	lapDigests      []string // op digests of the section's first lap
	failures        []string
	sample          *experiment.Result // a result of the workload, for the probes
	cpuFrom, cpuTo  cpuSnapshot
	nextLap, nextOp int
}

// merge appends the laps of o, a later stretch of the same ring. The
// first lap's digests stand for the section; o's must equal them.
func (s *section) merge(o *section) {
	if s.laps == 0 {
		s.lapDigests = o.lapDigests
	} else if ringDigest(o.lapDigests) != ringDigest(s.lapDigests) {
		o.fail("lap %d: ring digest %s differs from the first lap's %s", o.nextLap-1, ringDigest(o.lapDigests), ringDigest(s.lapDigests))
	}
	s.durs = append(s.durs, o.durs...)
	s.paced = append(s.paced, o.paced...)
	s.paces = append(s.paces, o.paces...)
	s.pacedWall += o.pacedWall
	s.events += o.events
	s.objects += o.objects
	s.bytes += o.bytes
	s.attempted += o.attempted
	s.failed += o.failed
	s.laps += o.laps
	s.failures = append(s.failures, o.failures...)
	if o.sample != nil {
		s.sample = o.sample
	}
	s.nextLap, s.nextOp = o.nextLap, o.nextOp
}

func (s *section) fail(format string, args ...any) {
	s.failed++
	if len(s.failures) < 8 {
		s.failures = append(s.failures, fmt.Sprintf(format, args...))
	}
}

// opDigest is the content digest of what an op produced.
func opDigest(r opResult) (string, error) {
	switch {
	case r.result != nil:
		return experiment.DigestResult(r.result)
	case r.agg != nil:
		return experiment.DigestAggregate(*r.agg)
	case r.digest != "":
		return r.digest, nil
	}
	return "", errors.New("op produced nothing to digest")
}

// ringDigest folds a lap's op digests into one.
func ringDigest(ops []string) string {
	sum := sha256.Sum256([]byte(strings.Join(ops, "\n")))
	return hex.EncodeToString(sum[:])
}

// measure cycles the ring for laps whole laps. Ops are timed and their
// allocations counted one by one; everything between two ops — the pace
// calibration, digesting, comparing, the next lap's fresh directories — is
// outside every window. Each op's digest must equal the same ring
// element's digest on the section's first lap.
func measure(inst instance, ring, laps int, tr *tracer, firstLap, firstOp int) (*section, error) {
	s := &section{nextLap: firstLap, nextOp: firstOp, cpuFrom: readCPU()}
	alloc := newAllocCounter()
	for ; laps > 0; laps-- {
		lap := s.nextLap
		s.nextLap++
		if err := inst.beginLap(lap); err != nil {
			return nil, fmt.Errorf("lap %d: %w", lap, err)
		}
		for i := 0; i < ring; i++ {
			id := s.nextOp
			s.nextOp++
			s.attempted++
			o0, b0 := alloc.read()
			t0 := time.Now()
			r, err := inst.op(lap, i, tr, id)
			d := time.Since(t0)
			o1, b1 := alloc.read()
			pace := hostPace(d)
			if err != nil {
				s.fail("lap %d op %d: %v", lap, i, err)
				if s.laps == 0 {
					s.lapDigests = append(s.lapDigests, "")
				}
				continue
			}
			if r.traced > 0 {
				d = r.traced
			}
			dig, err := opDigest(r)
			if err != nil {
				s.fail("lap %d op %d: %v", lap, i, err)
			}
			if s.laps == 0 {
				s.lapDigests = append(s.lapDigests, dig)
			} else if err == nil && dig != s.lapDigests[i] {
				err = fmt.Errorf("digest %s differs from the first lap's %s", dig, s.lapDigests[i])
				s.fail("lap %d op %d: %v", lap, i, err)
			}
			if err != nil {
				continue
			}
			paced := time.Duration(float64(d) / pace)
			s.durs = append(s.durs, d)
			s.paced = append(s.paced, paced)
			s.paces = append(s.paces, pace)
			s.pacedWall += paced
			s.events += r.events
			s.objects += o1 - o0
			s.bytes += b1 - b0
			if r.result != nil {
				s.sample = r.result
			}
		}
		s.laps++
	}
	s.cpuTo = readCPU()
	return s, nil
}

// setUp builds the workload's state and runs its warm-up ops.
func setUp(w *workload, p *payload, scratch string) (instance, error) {
	inst, err := w.setup(w, p, scratch)
	if err != nil {
		return nil, err
	}
	if err := inst.beginLap(-1); err != nil {
		_ = inst.close()
		return nil, err
	}
	for i := 0; i < w.warm; i++ {
		if _, err := inst.op(-1, i, nil, -1); err != nil {
			_ = inst.close()
			return nil, fmt.Errorf("warm-up op %d: %w", i, err)
		}
	}
	return inst, nil
}

// run executes one workload once and returns its result. An error means
// the run could not be carried out at all; a run that completed with
// wrong outputs returns a result with Correct false.
func run(cfg runConfig) (*runResult, error) {
	w := *cfg.w // smoke scale edits a copy
	laps := w.lapsFor(cfg.seconds)
	if cfg.trace {
		// A traced lap costs two to three untraced ones (the reference
		// lap beside it, the spans, the apportioning), so a quarter of the
		// untraced run's ops keeps the two runs about as long.
		w.ring = min(w.ring, tracedRing)
		laps = max(1, laps*cfg.w.ring/(4*w.ring))
	}
	if cfg.smoke {
		w.ring, laps = 1, 1
	}
	// A warm-up never wraps the ring: against per-lap state (the daemon's
	// cache) a wrapped op would not be the op it warms up for.
	w.warm = min(w.warm, w.ring)
	scratch := filepath.Join(cfg.root, "out", "tmp", fmt.Sprintf("%s-%d", w.name, os.Getpid()))
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	defer func() {
		_ = os.RemoveAll(scratch)
		_ = os.Remove(filepath.Dir(scratch)) // the shared parent, once the last run has left
	}()

	p, err := w.prepare(&w, cfg.seed, scratch)
	if err != nil {
		return nil, fmt.Errorf("prepare: %w", err)
	}
	res := &runResult{detail: runDetail{
		Workload: w.name, Seed: cfg.seed, Trace: cfg.trace, Ring: w.ring,
		Env: readEnvironment(cfg.root),
	}}
	if cfg.trace {
		err = runTraced(cfg, &w, p, scratch, laps, res)
	} else {
		err = runUntraced(cfg, &w, p, scratch, laps, res)
	}
	if err != nil {
		return nil, err
	}
	res.Correct = res.Failed == 0
	return res, nil
}

// checkPinned compares the first lap's op digests with the pinned ones
// where the run is at the pinned seed. A traced or smoke run cycles a
// prefix of the ring and is compared with that prefix.
func checkPinned(cfg runConfig, ops []string, res *runResult) error {
	res.opDigests = ops
	pin, err := loadPinned()
	if err != nil {
		return fmt.Errorf("testdata/digests.json: %w", err)
	}
	if cfg.seed != pin.Seed {
		return nil
	}
	want := pin.Ops[cfg.w.name]
	if len(want) < len(ops) {
		res.Failed++
		res.detail.Failures = append(res.detail.Failures,
			fmt.Sprintf("testdata/digests.json pins %d ops at seed %d, the ring has %d", len(want), pin.Seed, len(ops)))
		return nil
	}
	for i, got := range ops {
		if got != want[i] {
			res.Failed++
			res.detail.Failures = append(res.detail.Failures,
				fmt.Sprintf("op %d digest %s != pinned %s (seed %d)", i, got, want[i], pin.Seed))
		}
	}
	return nil
}

func runUntraced(cfg runConfig, w *workload, p *payload, scratch string, laps int, res *runResult) error {
	var (
		inst   instance
		setups []float64
	)
	reps := setupReps
	if cfg.smoke {
		reps = 1
	}
	for rep := 0; rep < reps; rep++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return err
			}
		}
		start := time.Now()
		var err error
		if inst, err = setUp(w, p, filepath.Join(scratch, fmt.Sprintf("setup%d", rep))); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		d := time.Since(start)
		setups = append(setups, d.Seconds()/hostPace(d))
	}
	sec, err := measure(inst, w.ring, laps, nil, 0, 0)
	if cerr := inst.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return err
	}
	res.Attempted, res.Failed = sec.attempted, sec.failed
	res.detail.Failures = sec.failures
	res.detail.Laps, res.detail.Ops = sec.laps, len(sec.durs)
	res.detail.RingDigest = ringDigest(sec.lapDigests)
	res.detail.OtherCPU = otherCPUShare(sec.cpuFrom, sec.cpuTo)
	res.detail.OpMs = quantilesMs(sec.durs)
	res.detail.HostPace = median(sec.paces)
	if err := checkPinned(cfg, sec.lapDigests, res); err != nil {
		return err
	}
	ops := float64(len(sec.durs))
	if ops == 0 {
		return fmt.Errorf("no op succeeded: %s", strings.Join(sec.failures, "; "))
	}
	// Every statistic is over all the ops of the run: a frozen number of
	// whole laps of the same ring. The time metrics are at nominal pace.
	m := metricSet{
		"setup_s":          median(setups),
		"op_ms_p50":        ms(medianDur(sec.paced)),
		"trials_per_s":     ops * float64(w.trialsPerOp) / sec.pacedWall.Seconds(),
		"sim_events_per_s": float64(sec.events) / sec.pacedWall.Seconds(),
		"allocs_per_op":    float64(sec.objects) / ops,
		"kb_per_op":        float64(sec.bytes) / 1024 / ops,
	}
	var missing []string
	res.Metrics, missing = m.render(endToEnd)
	if len(missing) > 0 {
		return fmt.Errorf("metrics never measured: %v", missing)
	}
	return nil
}
