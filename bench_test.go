package bgploop_test

// One benchmark per paper figure (4a..9d) plus ablation and substrate
// micro-benchmarks. The figure benchmarks run a reduced sweep grid per
// iteration (virtual time is free; wall time tracks event counts) and
// additionally report headline metrics from the sweep via b.ReportMetric,
// so `go test -bench=.` doubles as a compact reproduction report.
//
// Full paper-scale figures are regenerated with `go run ./cmd/bgpfig`.

import (
	"strconv"
	"testing"
	"time"

	"bgploop"
	"bgploop/internal/bgp"
	"bgploop/internal/dataplane"
	"bgploop/internal/experiment"
	"bgploop/internal/figures"
	"bgploop/internal/routing"
	"bgploop/internal/topology"
	"bgploop/internal/wire"
)

// benchScale is a small grid that still exercises every sweep dimension.
func benchScale() figures.Scale {
	return figures.Scale{
		CliqueSizes:     []int{5, 8},
		BCliqueSizes:    []int{5},
		InternetSizes:   []int{29},
		MRAIs:           []time.Duration{10 * time.Second, 20 * time.Second},
		CliqueMRAISize:  6,
		BCliqueMRAISize: 5,
		Trials:          1,
		InternetTrials:  1,
		Seed:            1,
		BGP:             bgploop.DefaultConfig(),
	}
}

func benchFigure(b *testing.B, id string) {
	b.Helper()
	sc := benchScale()
	b.ReportAllocs()
	var lastCell float64
	for i := 0; i < b.N; i++ {
		tbl, err := figures.Run(id, sc)
		if err != nil {
			b.Fatal(err)
		}
		if len(tbl.Rows) == 0 {
			b.Fatal("no rows")
		}
		last := tbl.Rows[len(tbl.Rows)-1]
		v, err := strconv.ParseFloat(last[len(last)-1], 64)
		if err == nil {
			lastCell = v
		}
	}
	b.ReportMetric(lastCell, "last-cell")
}

// Figures 4a-4c: overall looping duration vs convergence time.
func BenchmarkFig4a(b *testing.B) { benchFigure(b, "4a") }
func BenchmarkFig4b(b *testing.B) { benchFigure(b, "4b") }
func BenchmarkFig4c(b *testing.B) { benchFigure(b, "4c") }

// Figures 5a-5b: MRAI sweeps of looping duration and convergence.
func BenchmarkFig5a(b *testing.B) { benchFigure(b, "5a") }
func BenchmarkFig5b(b *testing.B) { benchFigure(b, "5b") }

// Figures 6a-6c: TTL exhaustions and looping ratio vs size.
func BenchmarkFig6a(b *testing.B) { benchFigure(b, "6a") }
func BenchmarkFig6b(b *testing.B) { benchFigure(b, "6b") }
func BenchmarkFig6c(b *testing.B) { benchFigure(b, "6c") }

// Figures 7a-7b: TTL exhaustions and looping ratio vs MRAI.
func BenchmarkFig7a(b *testing.B) { benchFigure(b, "7a") }
func BenchmarkFig7b(b *testing.B) { benchFigure(b, "7b") }

// Figures 8a-8d: T_down enhancement comparison.
func BenchmarkFig8a(b *testing.B) { benchFigure(b, "8a") }
func BenchmarkFig8b(b *testing.B) { benchFigure(b, "8b") }
func BenchmarkFig8c(b *testing.B) { benchFigure(b, "8c") }
func BenchmarkFig8d(b *testing.B) { benchFigure(b, "8d") }

// Figures 9a-9d: T_long enhancement comparison.
func BenchmarkFig9a(b *testing.B) { benchFigure(b, "9a") }
func BenchmarkFig9b(b *testing.B) { benchFigure(b, "9b") }
func BenchmarkFig9c(b *testing.B) { benchFigure(b, "9c") }
func BenchmarkFig9d(b *testing.B) { benchFigure(b, "9d") }

// Extension figures x1-x7 (message overhead, loop distributions,
// topology/policy/delay/damping ablations, recovery phases).
func BenchmarkFigX1(b *testing.B) { benchFigure(b, "x1") }
func BenchmarkFigX2(b *testing.B) { benchFigure(b, "x2") }
func BenchmarkFigX3(b *testing.B) { benchFigure(b, "x3") }
func BenchmarkFigX4(b *testing.B) { benchFigure(b, "x4") }
func BenchmarkFigX5(b *testing.B) { benchFigure(b, "x5") }
func BenchmarkFigX6(b *testing.B) { benchFigure(b, "x6") }
func BenchmarkFigX7(b *testing.B) { benchFigure(b, "x7") }

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
