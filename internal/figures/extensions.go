package figures

import (
	"fmt"
	"sort"
	"time"

	"bgploop/internal/bgp"
	"bgploop/internal/core/sortedmap"
	"bgploop/internal/des"
	"bgploop/internal/experiment"
	"bgploop/internal/loopanalysis"
	"bgploop/internal/report"
	"bgploop/internal/topology"
)

// Extension figures go beyond the paper: message overhead, exact per-loop
// distributions, topology-model and routing-policy ablations, and the
// T_up recovery phase. They are registered under x-prefixed IDs and run
// through the same Suite, so every sweep here honours Scale.Sweep and x1
// shares the MRAI cells of Figures 5 and 7.
var extRegistry = map[string]figure{
	"x1": {"Update message overhead vs MRAI (T_down Clique, T_long B-Clique)", extX1},
	"x2": {"Exact transient-loop size/duration distribution (T_down Internet-like)", extX2},
	"x3": {"Topology-model ablation: hierarchical vs Barabasi-Albert vs Waxman (T_down)", extX3},
	"x4": {"Routing-policy ablation: shortest-path vs Gao-Rexford (T_down Internet-like)", extX4},
	"x5": {"T_up recovery phase vs failure phase (flap workloads)", extX5},
	"x6": {"Delay-model ablation: MRAI dominates processing and propagation delays", extX6},
	"x7": {"Route flap damping ablation on flapping workloads (RFC 2439)", extX7},
}

// ExtensionIDs returns the extension figure IDs in order.
func ExtensionIDs() []string { return sortedmap.Keys(extRegistry) }

// extX1: MRAI's purpose is suppressing update storms; this sweep shows the
// message count falling as MRAI grows while (per Figures 5/7) convergence
// and looping grow — the trade-off at the heart of the paper.
func extX1(su *Suite) (*report.Table, error) {
	sc := su.sc
	tbl := &report.Table{Columns: []string{"mrai_s", "clique_updates", "bclique_updates"}}
	for _, m := range sc.MRAIs {
		clique, err := su.cell(cliqueTDown, sc.CliqueMRAISize, m, bgp.Enhancements{})
		if err != nil {
			return nil, err
		}
		bclique, err := su.cell(bcliqueTLong, sc.BCliqueMRAISize, m, bgp.Enhancements{})
		if err != nil {
			return nil, err
		}
		tbl.AddFloats(fmt.Sprintf("%g", m.Seconds()),
			clique.UpdatesSent.Mean, bclique.UpdatesSent.Mean)
	}
	return tbl, nil
}

// extX2: the per-loop statistics the paper's §6 lists as next steps.
func extX2(su *Suite) (*report.Table, error) {
	sc := su.sc
	n := sc.InternetSizes[len(sc.InternetSizes)-1]
	_, results, _, err := experiment.RunSweep(experiment.InternetTDown(n, bgp.DefaultConfig(), sc.Seed), sc.InternetTrials, sc.Sweep)
	if err != nil {
		return nil, err
	}
	bySize := make(map[int][]time.Duration)
	total := 0
	for _, res := range results {
		for _, l := range res.Loops {
			bySize[l.Size()] = append(bySize[l.Size()], l.Duration())
			total++
		}
	}
	sizes := make([]int, 0, len(bySize))
	for s := range bySize {
		sizes = append(sizes, s)
	}
	sort.Ints(sizes)
	tbl := &report.Table{Columns: []string{"loop_size", "count", "share", "mean_duration_s", "max_duration_s", "bound_s"}}
	for _, s := range sizes {
		durs := bySize[s]
		var sum, max time.Duration
		for _, d := range durs {
			sum += d
			if d > max {
				max = d
			}
		}
		tbl.AddFloats(fmt.Sprintf("%d", s),
			float64(len(durs)),
			float64(len(durs))/float64(total),
			(sum / time.Duration(len(durs))).Seconds(),
			max.Seconds(),
			loopanalysis.WorstCaseResolution(s, bgp.DefaultMRAI).Seconds())
	}
	return tbl, nil
}

// extX3 tests footnote 1's concern directly: the same T_down workload on
// three topology models of equal size.
func extX3(su *Suite) (*report.Table, error) {
	sc := su.sc
	n := sc.InternetSizes[0]
	tbl := &report.Table{Columns: []string{"model", "convergence_s", "ttl_exhaustions", "looping_ratio", "max_loop_size"}}
	for _, b := range []struct{ name, family string }{
		{"hierarchical", "internet"},
		{"barabasi-albert", "ba"},
		{"waxman", "waxman"},
	} {
		gen := func(trial int) (experiment.Scenario, error) {
			g, err := topology.Generate(b.family, n, sc.Seed)
			if err != nil {
				return experiment.Scenario{}, err
			}
			pick := des.NewRNG(sc.Seed + int64(trial)).Stream("figures/x3/" + b.name)
			lows := topology.LowestDegreeNodes(g)
			dest := lows[pick.Intn(len(lows))]
			return experiment.TDownScenario(g, dest, bgp.DefaultConfig(), sc.Seed+int64(trial)), nil
		}
		agg, _, _, err := experiment.RunSweep(gen, sc.InternetTrials, sc.Sweep)
		if err != nil {
			return nil, err
		}
		tbl.AddFloats(b.name,
			agg.ConvergenceSec.Mean, agg.TTLExhaustions.Mean,
			agg.LoopingRatio.Mean, agg.MaxLoopSize.Mean)
	}
	return tbl, nil
}

// extX4 compares the paper's shortest-path model against Gao-Rexford
// policy routing on the same topology and failures.
func extX4(su *Suite) (*report.Table, error) {
	sc := su.sc
	n := sc.InternetSizes[0]
	g, err := topology.InternetLike(n, sc.Seed)
	if err != nil {
		return nil, err
	}
	tbl := &report.Table{Columns: []string{"policy", "convergence_s", "ttl_exhaustions", "looping_ratio", "updates_sent"}}
	for _, v := range []struct{ name, policy string }{
		{"shortest-path", ""},
		{"gao-rexford", experiment.PolicyGaoRexford},
	} {
		gen := func(trial int) (experiment.Scenario, error) {
			pick := des.NewRNG(sc.Seed + int64(trial)).Stream("figures/x4")
			lows := topology.LowestDegreeNodes(g)
			dest := lows[pick.Intn(len(lows))]
			s := experiment.TDownScenario(g, dest, bgp.DefaultConfig(), sc.Seed+int64(trial))
			s.NamedPolicy = v.policy
			return s, nil
		}
		agg, _, _, err := experiment.RunSweep(gen, sc.InternetTrials, sc.Sweep)
		if err != nil {
			return nil, err
		}
		tbl.AddFloats(v.name,
			agg.ConvergenceSec.Mean, agg.TTLExhaustions.Mean,
			agg.LoopingRatio.Mean, agg.UpdatesSent.Mean)
	}
	return tbl, nil
}

// extX6 quantifies §3's claim that "the MRAI timer's impact on delaying
// routing information exchange is far more significant than all the other
// factors": scaling the physical delays up or down by 10x barely moves
// convergence or looping, while scaling MRAI moves both linearly.
func extX6(su *Suite) (*report.Table, error) {
	sc := su.sc
	n := sc.CliqueMRAISize
	type variant struct {
		name             string
		procMin, procMax time.Duration
		linkDelay        time.Duration
		mrai             time.Duration
	}
	base := bgp.DefaultConfig()
	variants := []variant{
		{"paper (proc 0.1-0.5s, link 2ms, mrai 30s)", 100 * time.Millisecond, 500 * time.Millisecond, 2 * time.Millisecond, 30 * time.Second},
		{"10x link delay", 100 * time.Millisecond, 500 * time.Millisecond, 20 * time.Millisecond, 30 * time.Second},
		{"0.1x processing delay", 10 * time.Millisecond, 50 * time.Millisecond, 2 * time.Millisecond, 30 * time.Second},
		{"0.5x MRAI", 100 * time.Millisecond, 500 * time.Millisecond, 2 * time.Millisecond, 15 * time.Second},
		{"2x MRAI", 100 * time.Millisecond, 500 * time.Millisecond, 2 * time.Millisecond, 60 * time.Second},
	}
	tbl := &report.Table{Columns: []string{"delay_model", "convergence_s", "looping_duration_s", "looping_ratio"}}
	for _, v := range variants {
		cfg := base
		cfg.ProcDelayMin, cfg.ProcDelayMax = v.procMin, v.procMax
		cfg.MRAI = v.mrai
		s := experiment.CliqueTDown(n, cfg, sc.Seed)
		s.LinkDelay = v.linkDelay
		agg, _, _, err := experiment.RunSweep(experiment.Repeat(s), sc.Trials, sc.Sweep)
		if err != nil {
			return nil, err
		}
		tbl.AddFloats(v.name,
			agg.ConvergenceSec.Mean, agg.LoopingDurationSec.Mean, agg.LoopingRatio.Mean)
	}
	return tbl, nil
}

// extX7 compares the measured failure of a flap-heavy workload with and
// without RFC 2439 route flap damping: after several pre-flaps, damping
// has suppressed the unstable routes, so the measured failure triggers
// far less path exploration (at the cost of reuse-timer delays visible in
// the convergence tail).
func extX7(su *Suite) (*report.Table, error) {
	sc := su.sc
	tbl := &report.Table{Columns: []string{
		"config", "convergence_s", "ttl_exhaustions", "updates_sent", "suppressed", "reused",
	}}
	for i, name := range []string{"no damping", "rfc2439 damping"} {
		cfg := bgp.DefaultConfig()
		cfg.Damping = i == 1
		s := experiment.BCliqueTLong(sc.BCliqueMRAISize, cfg, sc.Seed)
		s.FlapCycles = 3
		res, err := su.runOne(s)
		if err != nil {
			return nil, err
		}
		tbl.AddFloats(name,
			res.ConvergenceTime.Seconds(),
			float64(res.TTLExhaustions),
			float64(res.UpdatesSent),
			float64(res.RoutesSuppressed),
			float64(res.RoutesReused))
	}
	return tbl, nil
}

// extX5 runs flap (fail + repair) workloads and contrasts the failure
// phase with the recovery (T_up) phase: good news travels without the
// obsolete-path problem, so recovery loops are rare and short.
func extX5(su *Suite) (*report.Table, error) {
	sc := su.sc
	scenarios := []struct {
		name string
		s    experiment.Scenario
	}{
		{"clique-tdown", experiment.CliqueTDown(sc.CliqueMRAISize, bgp.DefaultConfig(), sc.Seed)},
		{"bclique-tlong", experiment.BCliqueTLong(sc.BCliqueMRAISize, bgp.DefaultConfig(), sc.Seed)},
	}
	tbl := &report.Table{Columns: []string{
		"workload", "fail_conv_s", "fail_exhaustions", "recover_conv_s", "recover_exhaustions",
	}}
	for _, sc2 := range scenarios {
		s := sc2.s
		s.RestoreDelay = time.Second
		res, err := su.runOne(s)
		if err != nil {
			return nil, err
		}
		if res.Recovery == nil {
			return nil, fmt.Errorf("figures: %s: no recovery phase", sc2.name)
		}
		tbl.AddFloats(sc2.name,
			res.ConvergenceTime.Seconds(), float64(res.TTLExhaustions),
			res.Recovery.ConvergenceTime.Seconds(), float64(res.Recovery.TTLExhaustions))
	}
	return tbl, nil
}

// runOne runs s as a one-trial sweep, so single-run figures share
// Scale.Sweep's cache, workers and trial count with the rest.
func (su *Suite) runOne(s experiment.Scenario) (*experiment.Result, error) {
	_, results, _, err := experiment.RunSweep(experiment.Repeat(s), 1, su.sc.Sweep)
	if err != nil {
		return nil, err
	}
	if len(results) == 0 {
		return nil, fmt.Errorf("figures: %s: the trial failed", s.Graph.Name())
	}
	return results[0], nil
}
