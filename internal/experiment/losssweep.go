package experiment

import (
	"fmt"

	"bgploop/internal/transport"
)

// LossPoint pairs one loss rate with the aggregated metrics of its trials
// — one point of a "looping duration vs loss rate" figure series.
type LossPoint struct {
	// Loss is the per-message loss probability applied to every link.
	Loss float64
	// Aggregate summarises the trials run at this rate.
	Aggregate Aggregate
}

// WithLoss returns s with the base transport impairment's loss rate
// replaced (non-loss impairment fields are preserved). A rate that leaves
// the config inactive clears Transport entirely, so the zero point of a
// loss sweep is byte-identical to the unimpaired engine.
func WithLoss(s Scenario, rate float64) Scenario {
	var cfg transport.Config
	if s.Transport != nil {
		cfg = *s.Transport
	}
	cfg.Loss = rate
	if cfg.Active() {
		s.Transport = &cfg
	} else {
		s.Transport = nil
	}
	return s
}

// LossSweep runs the base scenario's trial sweep once per loss rate and
// returns the per-rate aggregates in input order. Each rate reuses the
// base scenario unchanged except for the transport loss probability (via
// WithLoss), and each trial within a rate varies only its seed (via
// Repeat) — so differences between points measure the impairment, not a
// reshuffled workload. The options apply to every per-rate sweep; with a
// CacheDir the per-rate sweeps are cached independently under their own
// content addresses.
func LossSweep(base Scenario, rates []float64, trials int, opts SweepOptions) ([]LossPoint, error) {
	points := make([]LossPoint, 0, len(rates))
	for _, rate := range rates {
		s := WithLoss(base, rate)
		agg, _, _, err := RunSweep(Repeat(s), trials, opts)
		if err != nil {
			return points, fmt.Errorf("experiment: loss sweep at rate %g: %w", rate, err)
		}
		points = append(points, LossPoint{Loss: rate, Aggregate: agg})
	}
	return points, nil
}
