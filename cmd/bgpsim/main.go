// Command bgpsim runs a single BGP loop-study scenario and prints the
// paper's metrics, the exact transient-loop intervals, and optionally an
// update trace. With -trials it runs a seed sweep on the parallel
// executor and prints the aggregate instead.
//
// Examples:
//
//	bgpsim -topo clique -size 15 -event tdown
//	bgpsim -topo bclique -size 15 -event tlong -mrai 60s
//	bgpsim -topo internet -size 110 -event tdown -seed 7 -loops
//	bgpsim -topo figure1 -event tlong -enhance ssld
//	bgpsim -topo internet -size 110 -event tdown -trials 50 -j 8 -cache-dir ~/.cache/bgploop
//	bgpsim -topo clique -size 15 -event tdown -guard full
//	bgpsim -shrink ~/.cache/bgploop/forensics/bundle-0123456789abcdef.json
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"

	"bgploop/internal/bgp"
	"bgploop/internal/buildinfo"
	"bgploop/internal/core"
	"bgploop/internal/experiment"
	"bgploop/internal/invariant"
	"bgploop/internal/metrics"
	"bgploop/internal/report"
	"bgploop/internal/safety"
	"bgploop/internal/sweep"
	"bgploop/internal/topology"
	"bgploop/internal/trace"
	"bgploop/internal/transport"
	"bgploop/internal/wire"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "bgpsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("bgpsim", flag.ContinueOnError)
	var (
		versionF  = fs.Bool("version", false, "print the build-info stamp (module version, VCS revision) and exit")
		digestF   = fs.Bool("digest", false, "print only the canonical result digest (single run) or aggregate digest (sweep) — the provenance handle bgpd serves")
		scenarioF = fs.String("scenario", "", "run a JSON scenario file instead of building one from flags")
		jsonOut   = fs.Bool("json", false, "emit the run summary as JSON")
		topo      = fs.String("topo", "clique", "topology family: "+strings.Join(topology.Families(), ", "))
		size      = fs.Int("size", 15, "topology size parameter (clique n, bclique n => 2n nodes, internet n)")
		event     = fs.String("event", "tdown", "failure event: tdown or tlong")
		mrai      = fs.Duration("mrai", bgp.DefaultMRAI, "MRAI timer value")
		enhance   = fs.String("enhance", "standard", "protocol variant: "+strings.Join(bgp.VariantNames(), ", "))
		seed      = fs.Int64("seed", 1, "simulation seed")
		showLoops = fs.Bool("loops", false, "print the exact per-loop intervals")
		horizon   = fs.Duration("horizon", 0, "virtual-time cap; non-quiescence past it aborts with a diagnosis (0 = unlimited)")
		phaseBudg = fs.Uint64("phase-budget", 0, "per-phase event budget for the watchdog (0 = remaining global budget)")
		showTrace = fs.Int("trace", 0, "print up to N protocol events from the failure onward")
		wireDump  = fs.String("wiredump", "", "write the update trace as concatenated RFC 4271 UPDATE messages to this file")
		mrtDump   = fs.String("mrt", "", "write the update trace as MRT BGP4MP_MESSAGE records (RFC 6396) to this file")
		compare   = fs.Bool("compare", false, "run all five protocol variants side by side")
		csv       = fs.Bool("csv", false, "emit CSV instead of aligned text")
		trials    = fs.Int("trials", 1, "run a sweep of N trials (seeds seed, seed+1, ...) and print the aggregate")
		workers   = fs.Int("j", 0, "sweep parallelism: 0 = GOMAXPROCS, 1 = the sequential path (output is byte-identical at any width)")
		cacheDir  = fs.String("cache-dir", "", "content-addressed result cache; unchanged trials are served from disk instead of re-simulated, so re-running an interrupted sweep simulates only what it had not finished")
		lossF     = fs.Float64("loss", 0, "per-message loss probability on every link; loss is masked by retransmission (delay, not drop) up to the retry cap")
		holdF     = fs.Duration("hold", 0, "BGP hold time; non-zero enables the session FSM (keepalive generation, hold-expiry teardown, backoff re-establishment). Keepalives only arm over impaired links, so combine with bounded degrade windows (a faultPlan degrade+undegrade pair) rather than a permanent -loss, which never quiesces")
		keepF     = fs.Duration("keepalive", 0, "keepalive interval (default hold/3; requires -hold)")
		backoffF  = fs.Duration("reconnect-backoff", 0, "session re-establishment backoff base, doubling per failed attempt (default 30s; requires -hold)")
		guardF    = fs.String("guard", "", "runtime invariant guards: off or full (default: $BGPSIM_GUARD, else off)")
		preflight = fs.String("preflight", "", "static safety analysis before simulating: warn (report and continue) or strict (refuse UNSAFE scenarios); SAFE runs get a finite watchdog horizon derived from the static bound")
		shrinkF   = fs.String("shrink", "", "shrink a forensic bundle file to a minimal reproducing scenario spec and exit")
		shrinkOut = fs.String("shrink-out", "", "write the shrunk scenario spec to this file instead of stdout")
		shrinkN   = fs.Int("shrink-runs", 0, "cap on candidate trials executed by -shrink (0 = library default)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *versionF {
		fmt.Println("bgpsim", buildinfo.Read())
		return nil
	}

	if *shrinkF != "" {
		return runShrink(*shrinkF, *shrinkOut, *shrinkN)
	}

	// Ctrl-C cancels in-flight simulations cooperatively: the experiment
	// watchdog polls the context between kernel event chunks.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	var (
		scenario experiment.Scenario
		err      error
	)
	if *scenarioF != "" {
		scenario, err = experiment.LoadScenarioFile(*scenarioF)
	} else {
		scenario, err = experiment.FlagScenario(*topo, *size, *event, *mrai, *enhance, *seed)
	}
	if err != nil {
		return err
	}
	if *lossF > 0 {
		var tc transport.Config
		if scenario.Transport != nil {
			tc = *scenario.Transport
		}
		tc.Loss = *lossF
		scenario.Transport = &tc
	}
	if *holdF > 0 {
		scenario.BGP.Session.HoldTime = *holdF
	}
	if *keepF > 0 {
		scenario.BGP.Session.KeepaliveInterval = *keepF
	}
	if *backoffF > 0 {
		scenario.BGP.Session.ConnectRetry = *backoffF
	}
	if *guardF != "" {
		cad, err := invariant.ParseCadence(*guardF)
		if err != nil {
			return err
		}
		scenario.Guard.Cadence = cad
	}
	if *horizon > 0 {
		scenario.Horizon = *horizon
	}
	if *phaseBudg > 0 {
		scenario.PhaseEventBudget = *phaseBudg
	}
	if *showTrace > 0 || *wireDump != "" || *mrtDump != "" {
		scenario.TraceLimit = traceLimit
	}
	if *preflight != "" {
		if *preflight != "warn" && *preflight != "strict" {
			return fmt.Errorf("-preflight %q: want warn or strict", *preflight)
		}
		rep, err := experiment.Preflight(scenario, *preflight == "strict")
		if errors.Is(err, experiment.ErrStaticallyUnsafe) {
			return fmt.Errorf("preflight: %w\n(re-run without -preflight strict to simulate anyway)", err)
		}
		if err != nil {
			return fmt.Errorf("preflight: %w", err)
		}
		switch rep.Verdict {
		case safety.Unsafe:
			fmt.Fprintf(os.Stderr, "bgpsim: warning: scenario is statically UNSAFE — %s\n%s\n", rep.Reason, rep.Wheel)
		case safety.Unknown:
			fmt.Fprintf(os.Stderr, "bgpsim: preflight: verdict UNKNOWN — %s\n", rep.Reason)
		case safety.Safe:
			fmt.Fprintf(os.Stderr, "bgpsim: preflight: SAFE (%s); watchdog horizon %v\n",
				rep.Proof, experiment.StaticConvergenceBound(scenario))
			// The bound rides on the base scenario, so Repeat carries it
			// to every trial of a sweep.
			scenario = experiment.WithStaticBound(scenario, rep)
		}
	}

	if *trials > 1 || *cacheDir != "" {
		if *compare || *showTrace > 0 || *wireDump != "" || *mrtDump != "" || *showLoops {
			return fmt.Errorf("-trials/-cache-dir run a sweep; -compare/-trace/-wiredump/-mrt/-loops apply to single runs only")
		}
		return runSweep(ctx, scenario, *trials, *workers, *cacheDir, *csv, *jsonOut, *digestF)
	}

	if *compare {
		tbl, err := core.CompareEnhancements(scenario)
		if err != nil {
			return err
		}
		if *csv {
			return tbl.WriteCSV(os.Stdout)
		}
		return tbl.WriteText(os.Stdout)
	}

	rep, err := core.RunContext(ctx, scenario)
	if err != nil {
		return err
	}
	if *digestF {
		// The canonical result digest: byte-identical to what bgpd serves
		// for the same spec and seed (the end-to-end parity contract).
		d, err := experiment.DigestResult(&rep.Result)
		if err != nil {
			return err
		}
		fmt.Println(d)
		return nil
	}
	if *jsonOut {
		return rep.WriteJSON(os.Stdout)
	}
	tbl := rep.SummaryTable()
	if *csv {
		if err := tbl.WriteCSV(os.Stdout); err != nil {
			return err
		}
	} else if err := tbl.WriteText(os.Stdout); err != nil {
		return err
	}
	if len(rep.Phases) > 1 {
		// Multi-phase fault plan: show the per-phase breakdown.
		fmt.Println()
		phases := rep.PhaseTable()
		if *csv {
			if err := phases.WriteCSV(os.Stdout); err != nil {
				return err
			}
		} else if err := phases.WriteText(os.Stdout); err != nil {
			return err
		}
	}
	if *showLoops {
		fmt.Println()
		loops := rep.LoopTable()
		if *csv {
			if err := loops.WriteCSV(os.Stdout); err != nil {
				return err
			}
		} else if err := loops.WriteText(os.Stdout); err != nil {
			return err
		}
	}
	if *wireDump != "" && rep.Trace != nil {
		if err := writeDump(os.Stderr, *wireDump, "UPDATE messages", rep.Trace, wire.DumpTrace); err != nil {
			return err
		}
	}
	if *mrtDump != "" && rep.Trace != nil {
		if err := writeDump(os.Stderr, *mrtDump, "MRT records", rep.Trace, wire.DumpTraceMRT); err != nil {
			return err
		}
	}
	if *showTrace > 0 && rep.Trace != nil {
		fmt.Println()
		fmt.Printf("Protocol trace from the failure instant (%v):\n", rep.FailAt)
		printed := 0
		for _, e := range rep.Trace.Events() {
			if e.At < rep.FailAt {
				continue
			}
			if printed >= *showTrace {
				fmt.Printf("... trace truncated at %d events\n", *showTrace)
				break
			}
			fmt.Println(e)
			printed++
		}
	}
	return nil
}

// traceLimit is the one recording limit behind -trace, -wiredump and
// -mrt; -trace prints the first N recorded events at or after the failure.
const traceLimit = 1 << 20

// writeDump writes the update events of rec to path in one wire format
// and reports the count on stderr. Events the recorder's limit dropped are
// missing from the file, so their count is reported too.
func writeDump(stderr io.Writer, path, what string, rec *trace.Recorder, dump func(io.Writer, []trace.Event) (int, error)) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	n, derr := dump(f, rec.Events())
	if cerr := f.Close(); derr == nil {
		derr = cerr
	}
	if derr != nil {
		return derr
	}
	fmt.Fprintf(stderr, "bgpsim: wrote %d %s to %s\n", n, what, path)
	if d := rec.Dropped(); d > 0 {
		fmt.Fprintf(stderr, "bgpsim: warning: trace limit of %d events reached; %d later protocol events are missing from %s\n", rec.Limit, d, path)
	}
	return nil
}

// runShrink loads a forensic bundle (written by a guarded, cache-backed
// sweep under <cache-dir>/forensics/) and delta-debugs its scenario to a
// minimal reproducer with the same failure signature. The shrunk spec is
// itself a -scenario file, so the reduced failure replays directly.
func runShrink(path, outPath string, maxRuns int) error {
	b, err := invariant.ReadBundle(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "bgpsim: shrinking %s (signature %q)\n", path, b.Signature)
	spec, stats, err := experiment.ShrinkFailure(b, maxRuns)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(spec, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if outPath != "" {
		if err := os.WriteFile(outPath, data, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "bgpsim: wrote shrunk scenario to %s\n", outPath)
	} else if _, err := os.Stdout.Write(data); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "bgpsim: shrunk to %d nodes, %d links in %d runs (%d reductions accepted)\n",
		spec.Topology.Size, len(spec.Topology.Edges), stats.Runs, stats.Accepted)
	return nil
}

// runSweep fans trials of the scenario (seeds seed, seed+1, ...) across
// the parallel executor and prints the aggregate. The output is
// byte-identical at every -j width.
func runSweep(ctx context.Context, s experiment.Scenario, trials, workers int, cacheDir string, csv, jsonOut, digest bool) error {
	agg, _, stats, err := experiment.RunSweep(experiment.Repeat(s), trials, experiment.SweepOptions{
		Workers:  workers,
		CacheDir: cacheDir,
		Context:  ctx,
	})
	if err != nil {
		return err
	}
	// The summary goes to stderr in every output mode, so a re-run with
	// -digest still shows that a warm cache simulated nothing.
	defer fmt.Fprintf(os.Stderr, "bgpsim: %d trials: %d simulated, %d cache hits\n",
		stats.Trials, stats.Executed, stats.CacheHits)
	if digest {
		d, err := experiment.DigestAggregate(agg)
		if err != nil {
			return err
		}
		fmt.Println(d)
		return nil
	}
	if jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(struct {
			Aggregate experiment.Aggregate
			Stats     sweep.Stats
		}{agg, stats})
	}
	tbl := &report.Table{
		Title:   fmt.Sprintf("sweep aggregate (%d trials, seeds %d..%d)", agg.Trials, s.Seed, s.Seed+int64(trials)-1),
		Columns: []string{"metric", "mean", "std", "min", "max"},
	}
	add := func(name string, m metrics.Sample) {
		tbl.AddFloats(name, m.Mean, m.Std, m.Min, m.Max)
	}
	add("convergence_s", agg.ConvergenceSec)
	add("looping_duration_s", agg.LoopingDurationSec)
	add("ttl_exhaustions", agg.TTLExhaustions)
	add("looping_ratio", agg.LoopingRatio)
	add("packets_sent", agg.PacketsSent)
	add("updates_sent", agg.UpdatesSent)
	add("loop_count", agg.LoopCount)
	add("max_loop_size", agg.MaxLoopSize)
	if csv {
		return tbl.WriteCSV(os.Stdout)
	}
	return tbl.WriteText(os.Stdout)
}
