package bgploop_test

// The ablation benchmarks report their convergence time and TTL
// exhaustions via b.ReportMetric: `go test -bench=Ablation` regenerates
// the ablation table of EXPERIMENTS.md. BenchmarkMultiDest is the one
// harness bench/ has no workload for.
//
// The repo's benchmark proper is bench/ (`bash bench/run.sh`); the paper's
// figures are regenerated with `go run ./cmd/bgpfig` and exercised per
// figure by the internal/figures tests.

import (
	"testing"

	"bgploop"
	"bgploop/internal/bgp"
	"bgploop/internal/experiment"
	"bgploop/internal/topology"
)

// --- ablations ----------------------------------------------------------

// benchScenario runs one scenario per iteration and reports its
// convergence time and TTL exhaustions.
func benchScenario(b *testing.B, s bgploop.Scenario) {
	b.Helper()
	b.ReportAllocs()
	var conv, exh float64
	for i := 0; i < b.N; i++ {
		s.Seed = int64(i + 1)
		rep, err := bgploop.Run(s)
		if err != nil {
			b.Fatal(err)
		}
		conv = rep.ConvergenceTime.Seconds()
		exh = float64(rep.TTLExhaustions)
	}
	b.ReportMetric(conv, "conv-s")
	b.ReportMetric(exh, "exhaustions")
}

// AblationSSLDTiming quantifies the SSLD interpretation gap discussed in
// DESIGN.md/EXPERIMENTS.md: the literal-text immediate withdrawal vs the
// SSFNET-calibrated announcement-gated withdrawal.
func BenchmarkAblationSSLDCalibrated(b *testing.B) {
	cfg := bgploop.DefaultConfig()
	cfg.Enhancements.SSLD = true
	benchScenario(b, bgploop.CliqueTDown(10, cfg, 1))
}

func BenchmarkAblationSSLDImmediate(b *testing.B) {
	cfg := bgploop.DefaultConfig()
	cfg.Enhancements.SSLD = true
	cfg.Enhancements.SSLDImmediate = true
	benchScenario(b, bgploop.CliqueTDown(10, cfg, 1))
}

// AblationMRAIModel compares the reset timer model (default) against the
// free-running continuous model.
func BenchmarkAblationMRAIReset(b *testing.B) {
	benchScenario(b, bgploop.CliqueTDown(10, bgploop.DefaultConfig(), 1))
}

func BenchmarkAblationMRAIContinuous(b *testing.B) {
	cfg := bgploop.DefaultConfig()
	cfg.MRAIContinuous = true
	benchScenario(b, bgploop.CliqueTDown(10, cfg, 1))
}

// AblationJitter removes MRAI jitter, showing how synchronised timers
// change convergence (the paper always jitters).
func BenchmarkAblationNoJitter(b *testing.B) {
	cfg := bgploop.DefaultConfig()
	cfg.JitterMin, cfg.JitterMax = 1.0, 1.0
	benchScenario(b, bgploop.CliqueTDown(10, cfg, 1))
}

// AblationCombined stacks the two winning enhancements, an experiment the
// paper leaves open.
func BenchmarkAblationAssertionPlusGhostFlush(b *testing.B) {
	cfg := bgploop.DefaultConfig()
	cfg.Enhancements.Assertion = true
	cfg.Enhancements.GhostFlushing = true
	benchScenario(b, bgploop.CliqueTDown(10, cfg, 1))
}

// AblationMRAIZero removes rate limiting entirely. On small topologies
// convergence collapses to processing speed, but on a clique of 10 the
// unthrottled update storm saturates the serial route processors and
// convergence balloons past the MRAI-30s baseline (611 s vs 130 s
// measured) — the message-suppression role of the MRAI timer that [5]
// documents and §3 leans on, demonstrated by ablation.
func BenchmarkAblationMRAIZero(b *testing.B) {
	cfg := bgploop.DefaultConfig()
	cfg.MRAI = 0
	benchScenario(b, bgploop.CliqueTDown(10, cfg, 1))
}

// --- multi-prefix harness ------------------------------------------------

// BenchmarkMultiDest measures the multi-prefix harness: every AS in a
// 20-node Internet-like topology originates a prefix and one provider
// fails.
func BenchmarkMultiDest(b *testing.B) {
	g, err := bgploop.InternetLike(20, 1)
	if err != nil {
		b.Fatal(err)
	}
	var busiest topology.Node
	for _, v := range g.Nodes() {
		if g.Degree(v) > g.Degree(busiest) {
			busiest = v
		}
	}
	b.ReportAllocs()
	var exh float64
	for i := 0; i < b.N; i++ {
		res, err := experiment.RunMulti(experiment.TDownScenario(g, busiest, bgp.DefaultConfig(), int64(i+1)), nil)
		if err != nil {
			b.Fatal(err)
		}
		exh = float64(res.TTLExhaustions)
	}
	b.ReportMetric(exh, "exhaustions")
}
