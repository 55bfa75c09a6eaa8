package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"bgploop/internal/metrics"
)

// reportConfig is one invocation without -workload: every workload,
// untraced and traced, in repeat sets.
type reportConfig struct {
	root    string
	seed    int64
	seconds float64
	repeat  int
	asJSON  bool
}

// contract is the part of BENCHMARK.json the report reads: the direction
// and regression bound of every end-to-end metric.
type contract struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func loadContract(root string) (contract, error) {
	var c contract
	data, err := os.ReadFile(filepath.Join(root, "..", "BENCHMARK.json"))
	if err != nil {
		return c, err
	}
	return c, json.Unmarshal(data, &c)
}

// childRun is what one child process reported.
type childRun struct {
	Result runResult `json:"result"`
	Detail runDetail `json:"detail"`
}

// runSet is one full set: every workload's untraced runs — one, or
// repeatRuns of them when sets are compared — and its traced run. A set's
// end-to-end value is the median over its untraced runs.
type runSet struct {
	EndToEnd map[string][]*childRun `json:"end_to_end"`
	PerLayer map[string]*childRun   `json:"per_layer"`
}

// repeatRuns is how many untraced runs of a workload stand behind each
// set's median when sets are compared (-repeat 2 and up). The sets' runs
// alternate, so a slow stretch of the host falls on both sides alike.
const repeatRuns = 3

// medians returns, per end-to-end metric, the median over runs, and the
// median share of the host's CPU that other processes took and the median
// host pace.
func medians(runs []*childRun) (map[string]float64, float64, float64) {
	out := map[string]float64{}
	for _, def := range endToEnd {
		var vs []float64
		for _, r := range runs {
			vs = append(vs, r.Result.Metrics[def.Name].Value)
		}
		out[def.Name] = median(vs)
	}
	var other, pace []float64
	for _, r := range runs {
		other = append(other, r.Detail.OtherCPU)
		pace = append(pace, r.Detail.HostPace)
	}
	return out, median(other), median(pace)
}

// spawn runs one workload in a fresh child process of this binary, so no
// run inherits another's heap, page cache warmth of its own making, or
// goroutines.
func spawn(cfg reportConfig, w *workload, trace int) (*childRun, error) {
	args := []string{
		"-root", cfg.root, "-workload", w.name,
		"-seed", strconv.FormatInt(cfg.seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"-trace", strconv.Itoa(trace), "-json",
	}
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(min(runtime.NumCPU(), 2)))
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	run := &childRun{}
	var last []byte
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		line := sc.Bytes()
		if rest, ok := bytes.CutPrefix(line, []byte("#detail ")); ok {
			if err := json.Unmarshal(rest, &run.Detail); err != nil {
				return nil, fmt.Errorf("%s: detail line: %w", w.name, err)
			}
			continue
		}
		last = append(last[:0], line...)
	}
	if len(last) == 0 || json.Unmarshal(last, &run.Result) != nil {
		if runErr != nil {
			return nil, fmt.Errorf("%s: %w", w.name, runErr)
		}
		return nil, fmt.Errorf("%s: no result line", w.name)
	}
	// A child that printed a result and still exited non-zero ran to the
	// end with wrong outputs; its result says so.
	return run, nil
}

// report runs the sets, prints them, and returns the exit code: non-zero
// when any run was incorrect or two sets disagree beyond the bounds.
func report(cfg reportConfig) int {
	if cfg.repeat < 1 {
		fmt.Fprintln(os.Stderr, "bench: -repeat must be at least 1")
		return 2
	}
	con, err := loadContract(cfg.root)
	if err != nil && cfg.repeat > 1 {
		fmt.Fprintf(os.Stderr, "bench: -repeat needs the bounds in BENCHMARK.json: %v\n", err)
		return 2
	}
	env := readEnvironment(cfg.root)
	sets := make([]runSet, cfg.repeat)
	for i := range sets {
		sets[i] = runSet{EndToEnd: map[string][]*childRun{}, PerLayer: map[string]*childRun{}}
	}
	runs := 1
	if cfg.repeat > 1 {
		runs = repeatRuns
	}
	bad := 0
	one := func(set int, w *workload, trace int) (*childRun, error) {
		start := time.Now()
		run, err := spawn(cfg, w, trace)
		if err != nil {
			return nil, err
		}
		if !run.Result.Correct {
			bad++
		}
		if !cfg.asJSON {
			fmt.Printf("# set %d  %-15s trace=%d  %5.1fs  attempted=%d failed=%d other_cpu=%.2f\n",
				set+1, w.name, trace, time.Since(start).Seconds(), run.Result.Attempted, run.Result.Failed, run.Detail.OtherCPU)
		}
		return run, nil
	}
	for _, w := range workloads {
		for r := 0; r < runs; r++ {
			for i := range sets {
				run, err := one(i, w, 0)
				if err != nil {
					fmt.Fprintf(os.Stderr, "bench: %v\n", err)
					return 1
				}
				sets[i].EndToEnd[w.name] = append(sets[i].EndToEnd[w.name], run)
			}
		}
		for i := range sets {
			run, err := one(i, w, 1)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %v\n", err)
				return 1
			}
			sets[i].PerLayer[w.name] = run
		}
	}

	if cfg.asJSON {
		out := struct {
			Env      environment    `json:"env"`
			Seed     int64          `json:"seed"`
			Seconds  float64        `json:"seconds"`
			OpCounts map[string]int `json:"op_counts"`
			Sets     []runSet       `json:"sets"`
		}{env, cfg.seed, cfg.seconds, map[string]int{}, sets}
		for _, w := range workloads {
			out.OpCounts[w.name] = w.ring * w.lapsFor(cfg.seconds)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", " ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
	} else {
		printSet(os.Stdout, env, cfg, sets[len(sets)-1])
	}
	if cfg.repeat > 1 {
		w := io.Writer(os.Stdout)
		if cfg.asJSON {
			w = os.Stderr
		}
		for i := 1; i < len(sets); i++ {
			bad += compareSets(w, con, i+1, sets[0], sets[i])
		}
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "bench: %d problem(s): see above\n", bad)
		return 1
	}
	return 0
}

// printRun prints one run's metrics, by name, with units.
func printRun(w io.Writer, res *runResult) {
	d := res.detail
	fmt.Fprintf(w, "# %s seed=%d trace=%v ring=%d laps=%d ops=%d digest=%.12s commit=%.12s %s gomaxprocs=%d\n",
		d.Workload, d.Seed, d.Trace, d.Ring, d.Laps, d.Ops, d.RingDigest, d.Env.Commit, d.Env.GoVersion, d.Env.GOMAXPROCS)
	if !d.Trace {
		fmt.Fprintf(w, "# %s op ms as measured p10/p25/p50/p75/p90 = %.4g / %.4g / %.4g / %.4g / %.4g  host_pace=%.3f other_cpu=%.2f\n",
			d.Workload, d.OpMs[0], d.OpMs[1], d.OpMs[2], d.OpMs[3], d.OpMs[4], d.HostPace, d.OtherCPU)
	}
	defs := endToEnd
	if d.Trace {
		defs = perLayer
	}
	printMetrics(w, d.Workload, defs, res.Metrics)
	printAttribution(w, d.Workload, d.Attribution)
}

func printMetrics(w io.Writer, workload string, defs []metricDef, vals map[string]value) {
	for _, def := range defs {
		if v, ok := vals[def.Name]; ok {
			fmt.Fprintf(w, "%-16s %-32s %16.6g %s\n", workload, def.Name, v.Value, v.Unit)
		}
	}
}

func printAttribution(w io.Writer, workload string, rows []attrRow) {
	for _, r := range rows {
		fmt.Fprintf(w, "%-16s attribution  %-46s %10.3f ms  %5.1f%% of %s\n", workload, r.Layer, r.Ms, 100*r.Share, r.Of)
	}
}

// printSet prints a full set: every metric of every workload, then the
// attribution tables.
func printSet(w io.Writer, env environment, cfg reportConfig, set runSet) {
	fmt.Fprintf(w, "\n# commit=%s %s cpu=%q nproc=%d gomaxprocs=%d date=%s seed=%d seconds=%g\n",
		env.Commit, env.GoVersion, env.CPUModel, env.NProc, env.GOMAXPROCS, env.Date, cfg.seed, cfg.seconds)
	fmt.Fprintf(w, "\n## end-to-end (untraced runs)\n")
	e2e := map[string]map[string]float64{}
	for _, wl := range workloads {
		e2e[wl.name], _, _ = medians(set.EndToEnd[wl.name])
		for _, def := range endToEnd {
			fmt.Fprintf(w, "%-16s %-32s %16.6g %s\n", wl.name, def.Name, e2e[wl.name][def.Name], def.Unit)
		}
	}
	fmt.Fprintf(w, "\n## per-layer (traced runs)\n")
	for _, wl := range workloads {
		printMetrics(w, wl.name, perLayer, set.PerLayer[wl.name].Result.Metrics)
	}
	cold, dist := e2e["sweep8-cold"]["op_ms_p50"], e2e["dist-w1"]["op_ms_p50"]
	if cold > 0 {
		fmt.Fprintf(w, "\n# dist wire tax across workloads: dist-w1 op_ms_p50 %.3f ms / sweep8-cold op_ms_p50 %.3f ms = %.3f\n", dist, cold, dist/cold)
	}
	fmt.Fprintf(w, "\n## attribution (self time per op, by layer)\n")
	for _, wl := range workloads {
		printAttribution(w, wl.name, set.PerLayer[wl.name].Detail.Attribution)
	}
}

// compareSets prints, per workload and end-to-end metric, the medians of
// set 1 and set n, how much worse the latter is, and the bound; and
// requires every exact count to be identical. It returns the number of
// violations.
func compareSets(w io.Writer, con contract, n int, a, b runSet) int {
	bad := 0
	fmt.Fprintf(w, "\n## repeatability: set %d against set 1, medians of %d interleaved runs\n", n, len(a.EndToEnd[workloads[0].name]))
	fmt.Fprintf(w, "%-16s %-18s %14s %14s %9s %7s  other_cpu(1,%d) host_pace(1,%d)\n", "workload", "metric", "set 1", fmt.Sprintf("set %d", n), "worse by", "bound", n, n)
	for _, wl := range workloads {
		ma, oa, pa := medians(a.EndToEnd[wl.name])
		mb, ob, pb := medians(b.EndToEnd[wl.name])
		for _, def := range con.EndToEnd {
			va, vb := ma[def.Name], mb[def.Name]
			worse := metrics.Ratio(vb-va, va)
			if def.Better == "higher" {
				worse = metrics.Ratio(va-vb, va)
			}
			mark := ""
			if worse > def.Bound {
				mark = "  OUTSIDE BOUND"
				bad++
			}
			fmt.Fprintf(w, "%-16s %-18s %14.6g %14.6g %8.1f%% %6.0f%%  %.2f %.2f  %.2f %.2f%s\n",
				wl.name, def.Name, va, vb, 100*worse, 100*def.Bound, oa, ob, pa, pb, mark)
		}
		digest := a.EndToEnd[wl.name][0].Detail.RingDigest
		for _, r := range append(a.EndToEnd[wl.name][1:], b.EndToEnd[wl.name]...) {
			if r.Detail.RingDigest != digest {
				fmt.Fprintf(w, "%-16s ring digest differs: %s vs %s\n", wl.name, digest, r.Detail.RingDigest)
				bad++
			}
		}
		la, lb := a.PerLayer[wl.name].Result.Metrics, b.PerLayer[wl.name].Result.Metrics
		var differ []string
		for _, def := range perLayer {
			if def.Exact && la[def.Name].Value != lb[def.Name].Value {
				differ = append(differ, fmt.Sprintf("%s %v vs %v", def.Name, la[def.Name].Value, lb[def.Name].Value))
			}
		}
		if len(differ) > 0 {
			fmt.Fprintf(w, "%-16s counts differ: %s\n", wl.name, strings.Join(differ, "; "))
			bad += len(differ)
		}
	}
	if bad == 0 {
		fmt.Fprintf(w, "# every pair within its bound; every exact count identical\n")
	}
	return bad
}
