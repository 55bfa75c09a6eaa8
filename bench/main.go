// Command bench is the repository's benchmark: seven workloads, each
// exercising the simulator's layers in a different proportion, reported as
// end-to-end metrics (untraced run) and per-layer metrics (traced run).
// BENCHMARK.json at the repository root is its contract; README.md in this
// directory is its manual.
//
// With -workload it runs that workload once, in this process, and prints
// one JSON result object as the last line of standard output. Without, it
// runs every workload, untraced and traced, each in a fresh child process,
// and prints every metric by name with its unit, then the attribution
// table; -repeat N runs N sets of runs, interleaved, and compares their
// medians against the bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
)

func main() {
	var (
		root    = flag.String("root", "bench", "the benchmark directory (holds testdata/ and out/)")
		name    = flag.String("workload", "", "run only this workload, in this process (default: all, each in a child process)")
		seed    = flag.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
		seconds = flag.Float64("seconds", 10, "how long each run measures, in seconds")
		trace   = flag.Int("trace", 0, "with -workload: 0 = end-to-end run, 1 = traced attribution run")
		asJSON  = flag.Bool("json", false, "machine-readable output with the environment stamp")
		repeat  = flag.Int("repeat", 1, "run this many sets of runs, interleaved, and compare their medians against the bounds")
		pin     = flag.Bool("pin", false, "print testdata/digests.json for the current code at -seed and exit")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "bench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	// Measure the simulator, not its optional guards; and never use more
	// cores than the smallest box the numbers are meant to repeat on.
	_ = os.Unsetenv("BGPSIM_GUARD")
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 2))

	switch {
	case *pin:
		os.Exit(pinDigests(*root, *seed))
	case *name != "":
		os.Exit(single(*root, *name, *seed, *seconds, *trace, *asJSON))
	default:
		os.Exit(report(reportConfig{root: *root, seed: *seed, seconds: *seconds, repeat: *repeat, asJSON: *asJSON}))
	}
}

// single runs one workload in this process. The result object is the
// last line of standard output; everything before it is commentary.
func single(root, name string, seed int64, seconds float64, trace int, asJSON bool) int {
	w := findWorkload(name)
	if w == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", name)
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintf(os.Stderr, "bench: -trace must be 0 or 1, got %d\n", trace)
		return 2
	}
	if seconds <= 0 {
		fmt.Fprintf(os.Stderr, "bench: -seconds must be positive, got %v\n", seconds)
		return 2
	}
	res, err := run(runConfig{root: root, w: w, seed: seed, seconds: seconds, trace: trace == 1})
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", name, err)
		return 1
	}
	if asJSON {
		detail, err := json.Marshal(res.detail)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		fmt.Printf("#detail %s\n", detail)
	} else {
		printRun(os.Stdout, res)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Printf("%s\n", line)
	if !res.Correct {
		for _, f := range res.detail.Failures {
			fmt.Fprintf(os.Stderr, "bench: %s: %s\n", name, f)
		}
		return 1
	}
	return 0
}

// pinDigests prints the digests file for the current code: the digest of
// every op of every workload's ring at seed, from a one-lap run. It is
// how testdata/digests.json is (re)made when a change is meant to alter
// results; the gate itself never writes the file.
func pinDigests(root string, seed int64) int {
	out := pinned{Seed: seed, Ops: map[string][]string{}}
	for _, w := range workloads {
		res, err := run(runConfig{root: root, w: w, seed: seed, seconds: 0.001})
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			return 1
		}
		out.Ops[w.name] = res.opDigests
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	return 0
}
