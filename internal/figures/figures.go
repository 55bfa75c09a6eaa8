// Package figures regenerates every figure of the paper's evaluation
// (Figures 4-9). Each figure ID maps to a parameter sweep over the
// experiment harness and renders the same rows/series the paper plots.
//
// Figure index (paper -> here):
//
//	4a  looping duration vs convergence, T_down Clique, vs size
//	4b  looping duration vs convergence, T_long B-Clique, vs size
//	4c  looping duration vs convergence, T_down Internet-like, vs size
//	5a  looping duration & convergence vs MRAI, T_down Clique
//	5b  looping duration & convergence vs MRAI, T_long B-Clique
//	6a  #TTL exhaustions & looping ratio vs size, T_down Clique
//	6b  #TTL exhaustions & looping ratio vs size, T_long B-Clique
//	6c  #TTL exhaustions & looping ratio vs size, T_down Internet-like
//	7a  #TTL exhaustions & looping ratio vs MRAI, T_down Clique
//	7b  #TTL exhaustions & looping ratio vs MRAI, T_long B-Clique
//	8a  T_down TTL exhaustions normalised to standard BGP, Clique
//	8b  T_down convergence time per enhancement, Clique
//	8c  T_down TTL exhaustions per enhancement, Internet-like
//	8d  T_down convergence time per enhancement, Internet-like
//	9a  T_long TTL exhaustions normalised to standard BGP, B-Clique
//	9b  T_long convergence time per enhancement, B-Clique
//	9c  T_long TTL exhaustions per enhancement, Internet-like
//	9d  T_long convergence time per enhancement, Internet-like
package figures

import (
	"fmt"
	"sort"
	"time"

	"bgploop/internal/bgp"
	"bgploop/internal/experiment"
	"bgploop/internal/metrics"
	"bgploop/internal/report"
)

// Scale sets the sweep resolution. FullScale reproduces the paper's
// ranges; QuickScale is a fast smoke-test resolution for benchmarks and
// CI.
type Scale struct {
	// CliqueSizes are full-mesh sizes for the Clique T_down sweeps.
	CliqueSizes []int
	// BCliqueSizes are B-Clique parameters n (topology has 2n nodes).
	BCliqueSizes []int
	// InternetSizes are Internet-like topology sizes.
	InternetSizes []int
	// MRAIs is the MRAI sweep grid.
	MRAIs []time.Duration
	// CliqueMRAISize / BCliqueMRAISize fix the topology for MRAI sweeps.
	CliqueMRAISize  int
	BCliqueMRAISize int
	// Trials replicates Clique/B-Clique runs (seed varies); Internet
	// runs additionally vary the destination and failed link.
	Trials         int
	InternetTrials int
	// Seed is the base seed for every sweep.
	Seed int64
	// BGP is the base protocol configuration (enhancements are overridden
	// by the Figure 8/9 sweeps).
	BGP bgp.Config
	// Sweep configures the trial executor behind every figure sweep:
	// Workers fans trials across goroutines (byte-identical output to the
	// sequential path), CacheDir serves unchanged trials from the
	// content-addressed cache, and a Stats pointer accumulates executor
	// counters across all of the figure's sweeps.
	Sweep experiment.SweepOptions
}

// FullScale returns the paper-fidelity sweep ranges.
func FullScale() Scale {
	return Scale{
		CliqueSizes:     []int{5, 10, 15, 20, 25, 30},
		BCliqueSizes:    []int{5, 10, 15, 20, 25, 30},
		InternetSizes:   []int{29, 48, 75, 110},
		MRAIs:           mraiGrid(5, 10, 15, 20, 30, 45, 60),
		CliqueMRAISize:  15,
		BCliqueMRAISize: 15,
		Trials:          3,
		InternetTrials:  5,
		Seed:            1,
		BGP:             bgp.DefaultConfig(),
	}
}

// QuickScale returns a reduced grid that exercises every code path in a
// few seconds.
func QuickScale() Scale {
	return Scale{
		CliqueSizes:     []int{4, 6, 8},
		BCliqueSizes:    []int{4, 6},
		InternetSizes:   []int{29},
		MRAIs:           mraiGrid(5, 10, 20),
		CliqueMRAISize:  6,
		BCliqueMRAISize: 5,
		Trials:          2,
		InternetTrials:  2,
		Seed:            1,
		BGP:             bgp.DefaultConfig(),
	}
}

func mraiGrid(secs ...int) []time.Duration {
	out := make([]time.Duration, len(secs))
	for i, s := range secs {
		out[i] = time.Duration(s) * time.Second
	}
	return out
}

// Variants are the protocol variants compared in Figures 8 and 9, in the
// paper's order.
var Variants = []struct {
	Name string
	E    bgp.Enhancements
}{
	{"standard", bgp.Enhancements{}},
	{"ssld", bgp.Enhancements{SSLD: true}},
	{"wrate", bgp.Enhancements{WRATE: true}},
	{"assertion", bgp.Enhancements{Assertion: true}},
	{"ghostflush", bgp.Enhancements{GhostFlushing: true}},
}

// runner is a sweep entry point keyed by figure ID.
type runner struct {
	caption string
	run     func(Scale) (*report.Table, error)
}

var registry = map[string]runner{
	"4a": {"Overall looping duration vs convergence time, T_down Clique", fig4a},
	"4b": {"Overall looping duration vs convergence time, T_long B-Clique", fig4b},
	"4c": {"Overall looping duration vs convergence time, T_down Internet-like", fig4c},
	"5a": {"Looping duration and convergence time vs MRAI, T_down Clique", fig5a},
	"5b": {"Looping duration and convergence time vs MRAI, T_long B-Clique", fig5b},
	"6a": {"TTL exhaustions and looping ratio vs size, T_down Clique", fig6a},
	"6b": {"TTL exhaustions and looping ratio vs size, T_long B-Clique", fig6b},
	"6c": {"TTL exhaustions and looping ratio vs size, T_down Internet-like", fig6c},
	"7a": {"TTL exhaustions and looping ratio vs MRAI, T_down Clique", fig7a},
	"7b": {"TTL exhaustions and looping ratio vs MRAI, T_long B-Clique", fig7b},
	"8a": {"T_down TTL exhaustions normalised to standard BGP, Clique", fig8a},
	"8b": {"T_down convergence time per enhancement, Clique", fig8b},
	"8c": {"T_down TTL exhaustions per enhancement, Internet-like", fig8c},
	"8d": {"T_down convergence time per enhancement, Internet-like", fig8d},
	"9a": {"T_long TTL exhaustions normalised to standard BGP, B-Clique", fig9a},
	"9b": {"T_long convergence time per enhancement, B-Clique", fig9b},
	"9c": {"T_long TTL exhaustions per enhancement, Internet-like", fig9c},
	"9d": {"T_long convergence time per enhancement, Internet-like", fig9d},
}

// IDs returns the known figure IDs in order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Caption returns the figure's description, or "" for unknown IDs.
func Caption(id string) string {
	if r, ok := registry[id]; ok {
		return r.caption
	}
	return extRegistry[id].caption
}

// Run regenerates one figure (paper "4a".."9d" or extension "x1"..) at
// the given scale.
func Run(id string, sc Scale) (*report.Table, error) {
	r, ok := registry[id]
	if !ok {
		r, ok = extRegistry[id]
	}
	if !ok {
		return nil, fmt.Errorf("figures: unknown figure %q (known: %v + %v)", id, IDs(), ExtensionIDs())
	}
	sc = sc.withDefaults()
	tbl, err := r.run(sc)
	if err != nil {
		return nil, fmt.Errorf("figures: %s: %w", id, err)
	}
	tbl.Title = "Figure " + id
	tbl.Caption = r.caption
	return tbl, nil
}

func (sc Scale) withDefaults() Scale {
	full := FullScale()
	if len(sc.CliqueSizes) == 0 {
		sc.CliqueSizes = full.CliqueSizes
	}
	if len(sc.BCliqueSizes) == 0 {
		sc.BCliqueSizes = full.BCliqueSizes
	}
	if len(sc.InternetSizes) == 0 {
		sc.InternetSizes = full.InternetSizes
	}
	if len(sc.MRAIs) == 0 {
		sc.MRAIs = full.MRAIs
	}
	if sc.CliqueMRAISize == 0 {
		sc.CliqueMRAISize = full.CliqueMRAISize
	}
	if sc.BCliqueMRAISize == 0 {
		sc.BCliqueMRAISize = full.BCliqueMRAISize
	}
	if sc.Trials == 0 {
		sc.Trials = full.Trials
	}
	if sc.InternetTrials == 0 {
		sc.InternetTrials = full.InternetTrials
	}
	if sc.Seed == 0 {
		sc.Seed = full.Seed
	}
	if sc.BGP.MRAI == 0 && sc.BGP.Policy == nil {
		sc.BGP = full.BGP
	}
	return sc
}

// --- sweep primitives -------------------------------------------------

func (sc Scale) cliqueTDown(n int, cfg bgp.Config) (experiment.Aggregate, error) {
	agg, _, _, err := experiment.RunSweep(experiment.Repeat(experiment.CliqueTDown(n, cfg, sc.Seed)), sc.Trials, sc.Sweep)
	return agg, err
}

func (sc Scale) bcliqueTLong(n int, cfg bgp.Config) (experiment.Aggregate, error) {
	agg, _, _, err := experiment.RunSweep(experiment.Repeat(experiment.BCliqueTLong(n, cfg, sc.Seed)), sc.Trials, sc.Sweep)
	return agg, err
}

func (sc Scale) internetTDown(n int, cfg bgp.Config) (experiment.Aggregate, error) {
	agg, _, _, err := experiment.RunSweep(experiment.InternetTDown(n, cfg, sc.Seed), sc.InternetTrials, sc.Sweep)
	return agg, err
}

func (sc Scale) internetTLong(n int, cfg bgp.Config) (experiment.Aggregate, error) {
	agg, _, _, err := experiment.RunSweep(experiment.InternetTLong(n, cfg, sc.Seed), sc.InternetTrials, sc.Sweep)
	return agg, err
}

// --- Figures 4 and 6: size sweeps --------------------------------------

type sizeSweep func(sc Scale, n int, cfg bgp.Config) (experiment.Aggregate, error)

func durationVsConvergence(sc Scale, sizes []int, label string, sweep sizeSweep) (*report.Table, error) {
	tbl := &report.Table{Columns: []string{label, "looping_duration_s", "convergence_s"}}
	for _, n := range sizes {
		agg, err := sweep(sc, n, sc.BGP)
		if err != nil {
			return nil, err
		}
		tbl.AddFloats(fmt.Sprintf("%d", n), agg.LoopingDurationSec.Mean, agg.ConvergenceSec.Mean)
	}
	return tbl, nil
}

func exhaustionsAndRatio(sc Scale, sizes []int, label string, sweep sizeSweep) (*report.Table, error) {
	tbl := &report.Table{Columns: []string{label, "ttl_exhaustions", "looping_ratio"}}
	for _, n := range sizes {
		agg, err := sweep(sc, n, sc.BGP)
		if err != nil {
			return nil, err
		}
		tbl.AddFloats(fmt.Sprintf("%d", n), agg.TTLExhaustions.Mean, agg.LoopingRatio.Mean)
	}
	return tbl, nil
}

func fig4a(sc Scale) (*report.Table, error) {
	return durationVsConvergence(sc, sc.CliqueSizes, "clique_size",
		func(sc Scale, n int, cfg bgp.Config) (experiment.Aggregate, error) { return sc.cliqueTDown(n, cfg) })
}

func fig4b(sc Scale) (*report.Table, error) {
	return durationVsConvergence(sc, sc.BCliqueSizes, "bclique_n",
		func(sc Scale, n int, cfg bgp.Config) (experiment.Aggregate, error) { return sc.bcliqueTLong(n, cfg) })
}

func fig4c(sc Scale) (*report.Table, error) {
	return durationVsConvergence(sc, sc.InternetSizes, "internet_size",
		func(sc Scale, n int, cfg bgp.Config) (experiment.Aggregate, error) { return sc.internetTDown(n, cfg) })
}

func fig6a(sc Scale) (*report.Table, error) {
	return exhaustionsAndRatio(sc, sc.CliqueSizes, "clique_size",
		func(sc Scale, n int, cfg bgp.Config) (experiment.Aggregate, error) { return sc.cliqueTDown(n, cfg) })
}

func fig6b(sc Scale) (*report.Table, error) {
	return exhaustionsAndRatio(sc, sc.BCliqueSizes, "bclique_n",
		func(sc Scale, n int, cfg bgp.Config) (experiment.Aggregate, error) { return sc.bcliqueTLong(n, cfg) })
}

func fig6c(sc Scale) (*report.Table, error) {
	return exhaustionsAndRatio(sc, sc.InternetSizes, "internet_size",
		func(sc Scale, n int, cfg bgp.Config) (experiment.Aggregate, error) { return sc.internetTDown(n, cfg) })
}

// --- Figures 5 and 7: MRAI sweeps ---------------------------------------

func mraiSweep(sc Scale, sweep func(cfg bgp.Config) (experiment.Aggregate, error), cols []string,
	row func(experiment.Aggregate) []float64) (*report.Table, error) {
	tbl := &report.Table{Columns: append([]string{"mrai_s"}, cols...)}
	for _, m := range sc.MRAIs {
		agg, err := sweep(experiment.WithMRAI(sc.BGP, m))
		if err != nil {
			return nil, err
		}
		tbl.AddFloats(fmt.Sprintf("%g", m.Seconds()), row(agg)...)
	}
	return tbl, nil
}

func fig5a(sc Scale) (*report.Table, error) {
	return mraiSweep(sc,
		func(cfg bgp.Config) (experiment.Aggregate, error) { return sc.cliqueTDown(sc.CliqueMRAISize, cfg) },
		[]string{"looping_duration_s", "convergence_s"},
		func(a experiment.Aggregate) []float64 {
			return []float64{a.LoopingDurationSec.Mean, a.ConvergenceSec.Mean}
		})
}

func fig5b(sc Scale) (*report.Table, error) {
	return mraiSweep(sc,
		func(cfg bgp.Config) (experiment.Aggregate, error) { return sc.bcliqueTLong(sc.BCliqueMRAISize, cfg) },
		[]string{"looping_duration_s", "convergence_s"},
		func(a experiment.Aggregate) []float64 {
			return []float64{a.LoopingDurationSec.Mean, a.ConvergenceSec.Mean}
		})
}

func fig7a(sc Scale) (*report.Table, error) {
	return mraiSweep(sc,
		func(cfg bgp.Config) (experiment.Aggregate, error) { return sc.cliqueTDown(sc.CliqueMRAISize, cfg) },
		[]string{"ttl_exhaustions", "looping_ratio"},
		func(a experiment.Aggregate) []float64 {
			return []float64{a.TTLExhaustions.Mean, a.LoopingRatio.Mean}
		})
}

func fig7b(sc Scale) (*report.Table, error) {
	return mraiSweep(sc,
		func(cfg bgp.Config) (experiment.Aggregate, error) { return sc.bcliqueTLong(sc.BCliqueMRAISize, cfg) },
		[]string{"ttl_exhaustions", "looping_ratio"},
		func(a experiment.Aggregate) []float64 {
			return []float64{a.TTLExhaustions.Mean, a.LoopingRatio.Mean}
		})
}

// --- Figures 8 and 9: enhancement comparisons ---------------------------

// enhancementSweep runs every variant at every size and returns one table
// per metric extractor.
func enhancementSweep(sc Scale, sizes []int, label string, sweep sizeSweep,
	metric func(experiment.Aggregate) float64, normalise bool) (*report.Table, error) {
	cols := []string{label}
	for _, v := range Variants {
		cols = append(cols, v.Name)
	}
	tbl := &report.Table{Columns: cols}
	for _, n := range sizes {
		values := make([]float64, 0, len(Variants))
		for _, v := range Variants {
			cfg := experiment.WithEnhancements(sc.BGP, v.E)
			agg, err := sweep(sc, n, cfg)
			if err != nil {
				return nil, err
			}
			values = append(values, metric(agg))
		}
		if normalise {
			base := values[0]
			for i := range values {
				values[i] = metrics.Ratio(values[i], base)
			}
		}
		tbl.AddFloats(fmt.Sprintf("%d", n), values...)
	}
	return tbl, nil
}

func exhaustMetric(a experiment.Aggregate) float64 { return a.TTLExhaustions.Mean }
func convMetric(a experiment.Aggregate) float64    { return a.ConvergenceSec.Mean }

func cliqueSweepFn(sc Scale, n int, cfg bgp.Config) (experiment.Aggregate, error) {
	return sc.cliqueTDown(n, cfg)
}

func bcliqueSweepFn(sc Scale, n int, cfg bgp.Config) (experiment.Aggregate, error) {
	return sc.bcliqueTLong(n, cfg)
}

func internetTDownFn(sc Scale, n int, cfg bgp.Config) (experiment.Aggregate, error) {
	return sc.internetTDown(n, cfg)
}

func internetTLongFn(sc Scale, n int, cfg bgp.Config) (experiment.Aggregate, error) {
	return sc.internetTLong(n, cfg)
}

func fig8a(sc Scale) (*report.Table, error) {
	return enhancementSweep(sc, sc.CliqueSizes, "clique_size", cliqueSweepFn, exhaustMetric, true)
}

func fig8b(sc Scale) (*report.Table, error) {
	return enhancementSweep(sc, sc.CliqueSizes, "clique_size", cliqueSweepFn, convMetric, false)
}

func fig8c(sc Scale) (*report.Table, error) {
	return enhancementSweep(sc, sc.InternetSizes, "internet_size", internetTDownFn, exhaustMetric, false)
}

func fig8d(sc Scale) (*report.Table, error) {
	return enhancementSweep(sc, sc.InternetSizes, "internet_size", internetTDownFn, convMetric, false)
}

func fig9a(sc Scale) (*report.Table, error) {
	return enhancementSweep(sc, sc.BCliqueSizes, "bclique_n", bcliqueSweepFn, exhaustMetric, true)
}

func fig9b(sc Scale) (*report.Table, error) {
	return enhancementSweep(sc, sc.BCliqueSizes, "bclique_n", bcliqueSweepFn, convMetric, false)
}

func fig9c(sc Scale) (*report.Table, error) {
	return enhancementSweep(sc, sc.InternetSizes, "internet_size", internetTLongFn, exhaustMetric, false)
}

func fig9d(sc Scale) (*report.Table, error) {
	return enhancementSweep(sc, sc.InternetSizes, "internet_size", internetTLongFn, convMetric, false)
}
