package bgploop_test

// Ablation and substrate micro-benchmarks. The ablations report their
// convergence time and TTL exhaustions via b.ReportMetric: `go test
// -bench=Ablation` regenerates the ablation table of EXPERIMENTS.md. The
// substrate benchmarks are `go test -bench` smoke for single layers.
//
// The repo's benchmark proper is bench/ (`bash bench/run.sh`); the paper's
// figures are regenerated with `go run ./cmd/bgpfig` and exercised per
// figure by the internal/figures tests.

import (
	"testing"
	"time"

	"bgploop"
	"bgploop/internal/bgp"
	"bgploop/internal/dataplane"
	"bgploop/internal/experiment"
	"bgploop/internal/routing"
	"bgploop/internal/topology"
	"bgploop/internal/wire"
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

// --- substrate micro-benchmarks ------------------------------------------

// BenchmarkControlPlaneCliqueTDown measures raw simulator throughput on
// the heaviest standard workload (events/sec shows up as ns/op).
func BenchmarkControlPlaneClique20(b *testing.B) {
	benchScenario(b, bgploop.CliqueTDown(20, bgploop.DefaultConfig(), 1))
}

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
		res, err := experiment.RunMulti(experiment.MultiScenario{
			Graph:    g,
			Event:    experiment.TDown,
			FailNode: busiest,
			BGP:      bgp.DefaultConfig(),
			Seed:     int64(i + 1),
		})
		if err != nil {
			b.Fatal(err)
		}
		exh = float64(res.TTLExhaustions)
	}
	b.ReportMetric(exh, "exhaustions")
}

// BenchmarkWireUpdateRoundTrip measures the RFC 4271 codec.
func BenchmarkWireUpdateRoundTrip(b *testing.B) {
	up := bgp.Update{Dest: 0, Path: routing.Path{5, 6, 4, 3, 2, 1, 0}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		msg, err := wire.EncodeSimUpdate(5, up)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := wire.DecodeSimUpdate(msg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReplayThroughput measures raw data-plane replay speed over a
// FIB history that always holds a loop but moves it every 150 ms, between
// 1<->2 and 1<->3: every packet burns a full TTL, and since that takes
// 256 ms, every packet is in flight across at least one FIB change. A loop
// that never changed would exercise the closed-form path alone, O(1) per
// packet however long the packet lives.
func BenchmarkReplayThroughput(b *testing.B) {
	const window = 10 * time.Second
	h := dataplane.NewHistory(4)
	record := func(at time.Duration, node, nexthop topology.Node) {
		if err := h.Record(at, node, nexthop); err != nil {
			b.Fatal(err)
		}
	}
	record(0, 2, 1)
	record(0, 3, 1)
	for k := 0; time.Duration(k)*150*time.Millisecond < window+time.Second; k++ {
		record(time.Duration(k)*150*time.Millisecond, 1, topology.Node(2+k%2))
	}
	cfg := dataplane.ReplayConfig{
		Dest:    0,
		Sources: []topology.Node{1, 2, 3},
		Start:   0,
		End:     window,
	}
	b.ReportAllocs()
	packets := 0
	for i := 0; i < b.N; i++ {
		res, err := dataplane.Replay(h, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.TTLExhausted != res.Sent {
			b.Fatalf("%d of %d packets died in the loop, want all", res.TTLExhausted, res.Sent)
		}
		packets += res.Sent
	}
	b.ReportMetric(float64(packets)/b.Elapsed().Seconds(), "packets/s")
}

// BenchmarkInternet110TDown is the paper's headline topology.
func BenchmarkInternet110TDown(b *testing.B) {
	gen := experiment.InternetTDown(110, bgp.DefaultConfig(), 1)
	b.ReportAllocs()
	var ratio float64
	for i := 0; i < b.N; i++ {
		s, err := gen(i)
		if err != nil {
			b.Fatal(err)
		}
		rep, err := bgploop.Run(s)
		if err != nil {
			b.Fatal(err)
		}
		ratio = rep.LoopingRatio
	}
	b.ReportMetric(ratio, "looping-ratio")
}
