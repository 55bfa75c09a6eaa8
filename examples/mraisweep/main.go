// Mraisweep demonstrates the paper's Observation 1: both BGP convergence
// time and overall looping duration grow linearly with the MRAI timer
// value, while the looping ratio stays roughly constant (Observation 2).
// It sweeps MRAI on a Clique T_down and a B-Clique T_long workload and
// fits least-squares lines to the measured series.
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"bgploop/internal/bgp"
	"bgploop/internal/experiment"
	"bgploop/internal/metrics"
	"bgploop/internal/report"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	mrais := []time.Duration{
		5 * time.Second, 10 * time.Second, 15 * time.Second,
		20 * time.Second, 30 * time.Second, 45 * time.Second,
	}
	workloads := []struct {
		name     string
		scenario func(cfg bgp.Config) experiment.Scenario
	}{
		{"clique-10 T_down", func(cfg bgp.Config) experiment.Scenario {
			return experiment.CliqueTDown(10, cfg, 1)
		}},
		{"bclique-8 T_long", func(cfg bgp.Config) experiment.Scenario {
			return experiment.BCliqueTLong(8, cfg, 1)
		}},
	}

	for _, w := range workloads {
		tbl := &report.Table{
			Title:   w.name,
			Columns: []string{"mrai_s", "convergence_s", "looping_duration_s", "looping_ratio"},
		}
		var xs, conv, loop, ratio []float64
		for _, m := range mrais {
			cfg := bgp.DefaultConfig()
			cfg.MRAI = m
			agg, _, _, err := experiment.RunSweep(experiment.Repeat(w.scenario(cfg)), 3, experiment.SweepOptions{})
			if err != nil {
				return err
			}
			xs = append(xs, m.Seconds())
			conv = append(conv, agg.ConvergenceSec.Mean)
			loop = append(loop, agg.LoopingDurationSec.Mean)
			ratio = append(ratio, agg.LoopingRatio.Mean)
			tbl.AddFloats(fmt.Sprintf("%g", m.Seconds()),
				agg.ConvergenceSec.Mean, agg.LoopingDurationSec.Mean, agg.LoopingRatio.Mean)
		}
		if err := tbl.WriteText(os.Stdout); err != nil {
			return err
		}

		convFit, err := metrics.FitLine(xs, conv)
		if err != nil {
			return err
		}
		loopFit, err := metrics.FitLine(xs, loop)
		if err != nil {
			return err
		}
		ratioStats := metrics.NewSample(ratio)
		fmt.Printf("convergence ~ %.2f * MRAI + %.1f  (R^2 = %.4f)\n", convFit.Slope, convFit.Intercept, convFit.R2)
		fmt.Printf("looping     ~ %.2f * MRAI + %.1f  (R^2 = %.4f)\n", loopFit.Slope, loopFit.Intercept, loopFit.R2)
		fmt.Printf("looping ratio stays ~constant: %s\n\n", ratioStats)
	}
	fmt.Println("Observation 1 holds when both R^2 values are close to 1; Observation 2")
	fmt.Println("holds when the looping-ratio standard deviation is small relative to its mean.")
	return nil
}
