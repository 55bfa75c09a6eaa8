// Package figures regenerates every figure of the paper's evaluation
// (Figures 4-9). The paper plots four workloads (§4.1) over sizes, MRAI
// values and protocol variants; one such point is a cell, and each figure
// ID is a view — a choice of axis and metric columns — over cells. A Suite
// sweeps every cell at most once, however many figures read it.
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
	"strconv"
	"time"

	"bgploop/internal/bgp"
	"bgploop/internal/core/sortedmap"
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
	// Sweep configures the trial executor behind every sweep of every
	// figure, extensions included: Workers fans trials across goroutines
	// (byte-identical output to the sequential path), CacheDir serves
	// unchanged trials from the content-addressed cache, Context cancels,
	// and a Stats pointer accumulates executor counters across sweeps.
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
	}
}

func mraiGrid(secs ...int) []time.Duration {
	out := make([]time.Duration, len(secs))
	for i, s := range secs {
		out[i] = time.Duration(s) * time.Second
	}
	return out
}

// workload is one of the paper's four experiment families (§4.1).
type workload struct {
	// label names the size axis of Figures 4, 6, 8 and 9.
	label string
	// grid reads the workload's part of a scale.
	grid func(Scale) grid
	// generator builds the trial generator at size n.
	generator func(n int, cfg bgp.Config, seed int64) experiment.Generator
}

// grid is what a Scale says about one workload: the size axis, the fixed
// size of the MRAI sweeps of Figures 5 and 7 (the paper has none on the
// Internet-like topologies), and the trials per cell.
type grid struct {
	sizes            []int
	mraiSize, trials int
}

var (
	cliqueTDown = &workload{"clique_size",
		func(sc Scale) grid { return grid{sc.CliqueSizes, sc.CliqueMRAISize, sc.Trials} },
		func(n int, cfg bgp.Config, seed int64) experiment.Generator {
			return experiment.Repeat(experiment.CliqueTDown(n, cfg, seed))
		}}
	bcliqueTLong = &workload{"bclique_n",
		func(sc Scale) grid { return grid{sc.BCliqueSizes, sc.BCliqueMRAISize, sc.Trials} },
		func(n int, cfg bgp.Config, seed int64) experiment.Generator {
			return experiment.Repeat(experiment.BCliqueTLong(n, cfg, seed))
		}}
	internetTDown = &workload{"internet_size",
		func(sc Scale) grid { return grid{sc.InternetSizes, 0, sc.InternetTrials} },
		experiment.InternetTDown}
	internetTLong = &workload{"internet_size",
		func(sc Scale) grid { return grid{sc.InternetSizes, 0, sc.InternetTrials} },
		experiment.InternetTLong}
)

// metric is one plotted column: a mean over a cell's trials.
type metric struct {
	column string
	of     func(experiment.Aggregate) float64
}

var (
	loopingDuration = metric{"looping_duration_s", func(a experiment.Aggregate) float64 { return a.LoopingDurationSec.Mean }}
	convergence     = metric{"convergence_s", func(a experiment.Aggregate) float64 { return a.ConvergenceSec.Mean }}
	exhaustions     = metric{"ttl_exhaustions", func(a experiment.Aggregate) float64 { return a.TTLExhaustions.Mean }}
	loopingRatio    = metric{"looping_ratio", func(a experiment.Aggregate) float64 { return a.LoopingRatio.Mean }}
)

// figure is one registry row: a caption and the view that renders it.
type figure struct {
	caption string
	view    func(*Suite) (*report.Table, error)
}

var registry = map[string]figure{
	"4a": {"Overall looping duration vs convergence time, T_down Clique", vsSize(cliqueTDown, loopingDuration, convergence)},
	"4b": {"Overall looping duration vs convergence time, T_long B-Clique", vsSize(bcliqueTLong, loopingDuration, convergence)},
	"4c": {"Overall looping duration vs convergence time, T_down Internet-like", vsSize(internetTDown, loopingDuration, convergence)},
	"5a": {"Looping duration and convergence time vs MRAI, T_down Clique", vsMRAI(cliqueTDown, loopingDuration, convergence)},
	"5b": {"Looping duration and convergence time vs MRAI, T_long B-Clique", vsMRAI(bcliqueTLong, loopingDuration, convergence)},
	"6a": {"TTL exhaustions and looping ratio vs size, T_down Clique", vsSize(cliqueTDown, exhaustions, loopingRatio)},
	"6b": {"TTL exhaustions and looping ratio vs size, T_long B-Clique", vsSize(bcliqueTLong, exhaustions, loopingRatio)},
	"6c": {"TTL exhaustions and looping ratio vs size, T_down Internet-like", vsSize(internetTDown, exhaustions, loopingRatio)},
	"7a": {"TTL exhaustions and looping ratio vs MRAI, T_down Clique", vsMRAI(cliqueTDown, exhaustions, loopingRatio)},
	"7b": {"TTL exhaustions and looping ratio vs MRAI, T_long B-Clique", vsMRAI(bcliqueTLong, exhaustions, loopingRatio)},
	"8a": {"T_down TTL exhaustions normalised to standard BGP, Clique", perVariant(cliqueTDown, exhaustions, true)},
	"8b": {"T_down convergence time per enhancement, Clique", perVariant(cliqueTDown, convergence, false)},
	"8c": {"T_down TTL exhaustions per enhancement, Internet-like", perVariant(internetTDown, exhaustions, false)},
	"8d": {"T_down convergence time per enhancement, Internet-like", perVariant(internetTDown, convergence, false)},
	"9a": {"T_long TTL exhaustions normalised to standard BGP, B-Clique", perVariant(bcliqueTLong, exhaustions, true)},
	"9b": {"T_long convergence time per enhancement, B-Clique", perVariant(bcliqueTLong, convergence, false)},
	"9c": {"T_long TTL exhaustions per enhancement, Internet-like", perVariant(internetTLong, exhaustions, false)},
	"9d": {"T_long convergence time per enhancement, Internet-like", perVariant(internetTLong, convergence, false)},
}

// IDs returns the known figure IDs in order.
func IDs() []string { return sortedmap.Keys(registry) }

// Caption returns the figure's description, or "" for unknown IDs.
func Caption(id string) string {
	if f, ok := registry[id]; ok {
		return f.caption
	}
	return extRegistry[id].caption
}

// Run regenerates one figure (paper "4a".."9d" or extension "x1"..) at
// the given scale: a one-figure Suite.
func Run(id string, sc Scale) (*report.Table, error) {
	return NewSuite(sc).Run(id)
}

// cell is one swept point: a workload at one size, under the paper's
// configuration (bgp.DefaultConfig) with this MRAI and enhancement set.
type cell struct {
	w    *workload
	n    int
	mrai time.Duration
	e    bgp.Enhancements
}

// Suite renders figures at one scale and remembers the aggregate of every
// cell it has swept, so figures that plot different metrics of the same
// points — 4a and 6a, the MRAI=30 s row of 5a, the "standard" column of
// 8a — share one sweep. It lives for one call (one bgpfig invocation) and
// holds aggregates only; Scale.Sweep.CacheDir remains the cross-run
// result cache. Not safe for concurrent use.
type Suite struct {
	sc    Scale
	cells map[cell]experiment.Aggregate
}

// NewSuite returns an empty suite at the given scale.
func NewSuite(sc Scale) *Suite {
	return &Suite{sc: sc.withDefaults(), cells: make(map[cell]experiment.Aggregate)}
}

// Run renders one figure, sweeping only the cells no earlier figure of
// this suite already has.
func (su *Suite) Run(id string) (*report.Table, error) {
	f, ok := registry[id]
	if !ok {
		f, ok = extRegistry[id]
	}
	if !ok {
		return nil, fmt.Errorf("figures: unknown figure %q (known: %v + %v)", id, IDs(), ExtensionIDs())
	}
	tbl, err := f.view(su)
	if err != nil {
		return nil, fmt.Errorf("figures: %s: %w", id, err)
	}
	tbl.Title = "Figure " + id
	tbl.Caption = f.caption
	return tbl, nil
}

// cell returns the cell's aggregate, sweeping it on first use.
func (su *Suite) cell(w *workload, n int, mrai time.Duration, e bgp.Enhancements) (experiment.Aggregate, error) {
	c := cell{w, n, mrai, e}
	if agg, ok := su.cells[c]; ok {
		return agg, nil
	}
	cfg := experiment.WithEnhancements(experiment.WithMRAI(bgp.DefaultConfig(), mrai), e)
	agg, _, _, err := experiment.RunSweep(w.generator(n, cfg, su.sc.Seed), w.grid(su.sc).trials, su.sc.Sweep)
	if err != nil {
		return experiment.Aggregate{}, err
	}
	su.cells[c] = agg
	return agg, nil
}

// addRow appends one row of metric columns read off a cell.
func addRow(tbl *report.Table, label string, agg experiment.Aggregate, cols []metric) {
	values := make([]float64, len(cols))
	for i, m := range cols {
		values[i] = m.of(agg)
	}
	tbl.AddFloats(label, values...)
}

func columns(axis string, cols []metric) []string {
	out := []string{axis}
	for _, m := range cols {
		out = append(out, m.column)
	}
	return out
}

// vsSize plots the metrics over the workload's size grid under the
// paper's configuration (Figures 4 and 6).
func vsSize(w *workload, cols ...metric) func(*Suite) (*report.Table, error) {
	return func(su *Suite) (*report.Table, error) {
		tbl := &report.Table{Columns: columns(w.label, cols)}
		for _, n := range w.grid(su.sc).sizes {
			agg, err := su.cell(w, n, bgp.DefaultMRAI, bgp.Enhancements{})
			if err != nil {
				return nil, err
			}
			addRow(tbl, strconv.Itoa(n), agg, cols)
		}
		return tbl, nil
	}
}

// vsMRAI plots the metrics over the MRAI grid at the workload's fixed
// MRAI-sweep size (Figures 5 and 7).
func vsMRAI(w *workload, cols ...metric) func(*Suite) (*report.Table, error) {
	return func(su *Suite) (*report.Table, error) {
		tbl := &report.Table{Columns: columns("mrai_s", cols)}
		n := w.grid(su.sc).mraiSize
		for _, m := range su.sc.MRAIs {
			agg, err := su.cell(w, n, m, bgp.Enhancements{})
			if err != nil {
				return nil, err
			}
			addRow(tbl, fmt.Sprintf("%g", m.Seconds()), agg, cols)
		}
		return tbl, nil
	}
}

// perVariant plots one metric over the size grid with one column per
// bgp.Variants entry (Figures 8 and 9); normalise divides each row by its
// first, "standard", column.
func perVariant(w *workload, m metric, normalise bool) func(*Suite) (*report.Table, error) {
	return func(su *Suite) (*report.Table, error) {
		tbl := &report.Table{Columns: append([]string{w.label}, bgp.VariantNames()...)}
		for _, n := range w.grid(su.sc).sizes {
			values := make([]float64, 0, len(bgp.Variants))
			for _, v := range bgp.Variants {
				agg, err := su.cell(w, n, bgp.DefaultMRAI, v.E)
				if err != nil {
					return nil, err
				}
				values = append(values, m.of(agg))
			}
			if normalise {
				base := values[0]
				for i := range values {
					values[i] = metrics.Ratio(values[i], base)
				}
			}
			tbl.AddFloats(strconv.Itoa(n), values...)
		}
		return tbl, nil
	}
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
	return sc
}
