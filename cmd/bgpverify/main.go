// Command bgpverify statically analyses BGP scenario configurations
// for convergence safety without running the simulator. For each target
// it computes the permitted-path universe, searches the dispute digraph
// for dispute wheels, and reports one of three verdicts:
//
//	SAFE    — no dispute wheel exists; convergence is guaranteed for
//	          every activation order, timing, and failure sequence.
//	UNSAFE  — a concrete dispute wheel witness was found; convergence
//	          is not guaranteed (persistent oscillation is possible).
//	UNKNOWN — analysis limits were hit before the universe was
//	          exhausted; no wheel was found in the explored part.
//
// Targets are JSON scenario spec files (or directories of them), a
// built-in topology selected with -topo/-size/-event, or the classic
// BAD GADGET oscillator via -gadget. With -candidates the tool also
// enumerates the ordered (node, fallback-path) pairs that can carry a
// transient data-plane micro-loop, and which of them SSLD or the
// path-assertion check provably eliminates.
//
// Usage:
//
//	bgpverify [flags] [spec.json|dir ...]
//	bgpverify -topo clique -size 30
//	bgpverify -gadget -require unsafe
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"bgploop/internal/bgp"
	"bgploop/internal/buildinfo"
	"bgploop/internal/experiment"
	"bgploop/internal/safety"
	"bgploop/internal/topology"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintf(os.Stderr, "bgpverify: %v\n", err)
		os.Exit(1)
	}
}

// target pairs a display name with the scenario to analyse.
type target struct {
	name string
	s    experiment.Scenario
}

func run(argv []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("bgpverify", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		versionF = fs.Bool("version", false, "print the build-info stamp (module version, VCS revision) and exit")

		topo    = fs.String("topo", "", "built-in topology family: "+strings.Join(topology.Families(), ", "))
		size    = fs.Int("size", 10, "topology size parameter")
		event   = fs.String("event", "tdown", "failure event for built-in topologies: tdown or tlong")
		mrai    = fs.Duration("mrai", 30*time.Second, "MRAI value recorded in the scenario (does not affect the verdict)")
		enhance = fs.String("enhance", "standard", "protocol variant: "+strings.Join(bgp.VariantNames(), ", "))
		seed    = fs.Int64("seed", 1, "seed for generated topologies")
		gadget  = fs.Bool("gadget", false, "analyse the built-in BAD GADGET oscillator fixture")

		candidates = fs.Bool("candidates", false, "enumerate transient-loop candidates")
		maxCand    = fs.Int("max-candidates", 16, "cap on printed candidates (all are analysed; use 0 for no cap)")
		jsonOut    = fs.Bool("json", false, "emit machine-readable JSON reports")
		require    = fs.String("require", "", "fail unless every verdict matches: safe or unsafe")
		quiet      = fs.Bool("q", false, "verdict lines only (no witness or candidate detail)")
	)
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: bgpverify [flags] [spec.json|dir ...]\n\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(argv); err != nil {
		return err
	}
	if *versionF {
		fmt.Fprintln(stdout, "bgpverify", buildinfo.Read())
		return nil
	}

	var want safety.Verdict
	checkRequire := false
	switch *require {
	case "":
	case "safe":
		want, checkRequire = safety.Safe, true
	case "unsafe":
		want, checkRequire = safety.Unsafe, true
	default:
		return fmt.Errorf("-require %q: want safe or unsafe", *require)
	}

	targets, err := collectTargets(fs.Args(), *gadget, *topo, *size, *event, *mrai, *enhance, *seed)
	if err != nil {
		return err
	}
	if len(targets) == 0 {
		fs.Usage()
		return fmt.Errorf("nothing to analyse: give spec files, -topo, or -gadget")
	}

	type namedReport struct {
		Name   string         `json:"name"`
		Report *safety.Report `json:"report"`
	}
	var (
		reports    []namedReport
		mismatches []string
	)
	for _, t := range targets {
		in, err := experiment.SafetyInput(t.s, *candidates)
		if err != nil {
			return fmt.Errorf("%s: %w", t.name, err)
		}
		rep, err := safety.Analyze(in)
		if err != nil {
			return fmt.Errorf("%s: %w", t.name, err)
		}
		reports = append(reports, namedReport{t.name, rep})
		if checkRequire && rep.Verdict != want {
			mismatches = append(mismatches, fmt.Sprintf("%s: got %s, want %s", t.name, rep.Verdict, want))
		}
		if !*jsonOut {
			render(stdout, t.name, rep, *quiet, *maxCand)
		}
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(reports); err != nil {
			return err
		}
	}
	if len(mismatches) > 0 {
		return fmt.Errorf("verdict requirement failed:\n  %s", strings.Join(mismatches, "\n  "))
	}
	return nil
}

// collectTargets resolves positional spec paths plus the -gadget and
// -topo selections into the list of scenarios to analyse.
func collectTargets(args []string, gadget bool, topo string, size int, event string, mrai time.Duration, enhance string, seed int64) ([]target, error) {
	var targets []target
	if gadget {
		targets = append(targets, target{"BAD GADGET", experiment.BadGadget(0)})
	}
	if topo != "" {
		s, err := experiment.FlagScenario(topo, size, event, mrai, enhance, seed)
		if err != nil {
			return nil, err
		}
		targets = append(targets, target{fmt.Sprintf("%s-%d-%s", topo, size, event), s})
	}
	for _, arg := range args {
		info, err := os.Stat(arg)
		if err != nil {
			return nil, err
		}
		paths := []string{arg}
		if info.IsDir() {
			paths, err = specFiles(arg)
			if err != nil {
				return nil, err
			}
			if len(paths) == 0 {
				return nil, fmt.Errorf("%s: no *.json scenario specs", arg)
			}
		}
		for _, p := range paths {
			s, err := experiment.LoadScenarioFile(p)
			if err != nil {
				return nil, err
			}
			targets = append(targets, target{p, s})
		}
	}
	return targets, nil
}

// specFiles lists the *.json files directly inside dir, sorted.
func specFiles(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var paths []string
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".json") {
			paths = append(paths, filepath.Join(dir, e.Name()))
		}
	}
	sort.Strings(paths)
	return paths, nil
}

// render writes the human-readable report for one target.
func render(w io.Writer, name string, rep *safety.Report, quiet bool, maxCand int) {
	switch rep.Verdict {
	case safety.Safe:
		fmt.Fprintf(w, "%s: SAFE (%s) — %d nodes, %d edges\n", name, rep.Proof, rep.Nodes, rep.Edges)
	case safety.Unsafe:
		fmt.Fprintf(w, "%s: UNSAFE — %s\n", name, rep.Reason)
	case safety.Unknown:
		fmt.Fprintf(w, "%s: UNKNOWN — %s\n", name, rep.Reason)
	}
	if quiet {
		return
	}
	if rep.Universe != nil {
		fmt.Fprintf(w, "  universe: %d permitted paths, %d dispute states, %d arcs\n",
			rep.Universe.Paths, rep.Universe.States, rep.Universe.Arcs)
	}
	if rep.Wheel != nil {
		fmt.Fprintf(w, "  %s\n", indent(rep.Wheel.String(), "  "))
	}
	if rep.Candidates != nil {
		st := rep.CandidateStats
		fmt.Fprintf(w, "  transient-loop candidates: %d pair(s), %d mutual, %d SSLD-eliminable, %d assertion-eliminable, %d suppressed\n",
			st.Pairs, st.Mutual, st.SSLDEliminable, st.AssertionEliminable, st.Suppressed)
		shown := len(rep.Candidates)
		if maxCand > 0 && shown > maxCand {
			shown = maxCand
		}
		for _, c := range rep.Candidates[:shown] {
			fmt.Fprintf(w, "    %s\n", c)
		}
		if shown < len(rep.Candidates) {
			fmt.Fprintf(w, "    ... %d more (raise -max-candidates)\n", len(rep.Candidates)-shown)
		}
	}
}

// indent prefixes every line after the first with pad.
func indent(s, pad string) string {
	return strings.ReplaceAll(s, "\n", "\n"+pad)
}
