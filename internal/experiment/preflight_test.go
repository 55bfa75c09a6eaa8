package experiment

import (
	"errors"
	"strings"
	"testing"
	"time"

	"bgploop/internal/bgp"
	"bgploop/internal/safety"
	"bgploop/internal/topology"
)

// TestPreflightBadGadgetRefused pins the UNSAFE side of the static
// analyzer: BAD GADGET is diagnosed with a verified dispute-wheel
// witness, and the sweep-layer preflight gate refuses to simulate it.
func TestPreflightBadGadgetRefused(t *testing.T) {
	s := BadGadget(30_000)
	rep, err := safety.Analyze(SafetyInput(s, true))
	if err != nil {
		t.Fatalf("preflight: %v", err)
	}
	if rep.Verdict != safety.Unsafe {
		t.Fatalf("verdict = %s, want UNSAFE", rep.Verdict)
	}
	if rep.Wheel == nil || len(rep.Wheel.Pivots) == 0 {
		t.Fatal("UNSAFE without a wheel witness")
	}
	if err := rep.Wheel.Verify(SafetyInput(s, false)); err != nil {
		t.Fatalf("witness does not verify: %v", err)
	}
	// The full analysis also enumerated candidates: the gadget's clique
	// carries mutual fallback conflicts on every edge not touching the
	// hub.
	if rep.CandidateStats.Pairs == 0 || rep.CandidateStats.Mutual == 0 {
		t.Fatalf("gadget candidates missing: %+v", rep.CandidateStats)
	}

	_, _, _, err = RunSweep(Repeat(s), 2, SweepOptions{Workers: 1, Preflight: true})
	if !errors.Is(err, ErrStaticallyUnsafe) {
		t.Fatalf("sweep error = %v, want ErrStaticallyUnsafe", err)
	}
	if !strings.Contains(err.Error(), "dispute wheel") {
		t.Fatalf("refusal does not render the wheel: %v", err)
	}
}

// mixedScenarios builds the differential corpus: >= 50 small scenarios
// across every built-in family, event type, enhancement set, and a
// range of seeds. All use default (shortest-path) rankings, so every
// one must be statically SAFE.
func mixedScenarios(t *testing.T) []Scenario {
	t.Helper()
	cfgFor := func(enh string) bgp.Config {
		cfg := bgp.DefaultConfig()
		switch enh {
		case "ssld":
			cfg.Enhancements.SSLD = true
		case "assertion":
			cfg.Enhancements.Assertion = true
		case "ghostflush":
			cfg.Enhancements.GhostFlushing = true
		}
		return cfg
	}
	var out []Scenario
	enhs := []string{"standard", "ssld", "assertion", "ghostflush"}
	for i, seed := range []int64{1, 2, 7, 13} {
		cfg := cfgFor(enhs[i%len(enhs)])
		for n := 3; n <= 6; n++ {
			out = append(out, CliqueTDown(n, cfg, seed))
			out = append(out, TDownScenario(topology.Chain(n), 0, cfg, seed))
		}
		for n := 4; n <= 6; n++ {
			out = append(out, TDownScenario(topology.Ring(n), 0, cfg, seed))
		}
		out = append(out, TLongScenario(topology.Ring(5), 0, topology.NormEdge(0, 1), cfg, seed))
		out = append(out, BCliqueTLong(4, cfg, seed))
		out = append(out, TDownScenario(topology.BClique(3), 0, cfg, seed))
		out = append(out, TLongScenario(topology.Figure1(), 0, topology.Figure1FailedLink(), cfg, seed))
	}
	if len(out) < 50 {
		t.Fatalf("differential corpus too small: %d scenarios", len(out))
	}
	return out
}

// TestDifferentialSafeSweep is the SAFE side of the cross-validation:
// every scenario in the mixed corpus is statically SAFE, and running
// all of them through the preflight-gated sweep — where SAFE verdicts
// arm a *finite* watchdog horizon derived from the static convergence
// bound — completes without a single quiescence failure. A dispute-type
// oscillation, or an unsound static bound, would trip the watchdog and
// fail the sweep.
func TestDifferentialSafeSweep(t *testing.T) {
	scenarios := mixedScenarios(t)
	for i, s := range scenarios {
		rep, err := PreflightVerdict(s)
		if err != nil {
			t.Fatalf("scenario %d: preflight: %v", i, err)
		}
		if rep.Verdict != safety.Safe {
			t.Fatalf("scenario %d (%s): verdict %s, want SAFE (%s)",
				i, s.Graph.Name(), rep.Verdict, rep.Reason)
		}
	}
	// The preflight generator must actually arm the finite horizon.
	armed, err := preflightGenerator(Repeat(scenarios[0]), nil)(0)
	if err != nil {
		t.Fatalf("preflight generator: %v", err)
	}
	if armed.staticHorizon <= 0 {
		t.Fatal("SAFE scenario did not get a static watchdog horizon")
	}
	if bound := StaticConvergenceBound(scenarios[0]); armed.staticHorizon != bound {
		t.Fatalf("horizon %v != static bound %v", armed.staticHorizon, bound)
	}

	gen := func(trial int) (Scenario, error) { return scenarios[trial], nil }
	agg, results, _, err := RunSweep(gen, len(scenarios), SweepOptions{Preflight: true})
	if err != nil {
		t.Fatalf("preflight-gated sweep failed: %v", err)
	}
	if agg.Trials != len(scenarios) {
		t.Fatalf("ran %d trials, want %d", agg.Trials, len(scenarios))
	}
	for i, res := range results {
		if res == nil {
			t.Fatalf("trial %d missing result", i)
		}
		if res.ConvergenceTime < 0 {
			t.Fatalf("trial %d: negative convergence time", i)
		}
	}
}

// TestObservedLoopsMatchStaticCandidates closes the loop-level
// differential: every transient data-plane loop the simulator observes
// in the clique and B-Clique fixtures must traverse only arcs of the
// statically derived permitted forwarding digraph — i.e. the static
// candidate enumeration over-approximates dynamic reality, never
// misses it.
func TestObservedLoopsMatchStaticCandidates(t *testing.T) {
	var fixtures []Scenario
	for _, seed := range []int64{1, 2, 3} {
		fixtures = append(fixtures,
			CliqueTDown(5, bgp.DefaultConfig(), seed),
			BCliqueTLong(4, bgp.DefaultConfig(), seed))
	}
	totalLoops := 0
	for _, s := range fixtures {
		fwd, err := safety.NewForwarding(SafetyInput(s, false))
		if err != nil {
			t.Fatalf("%s: forwarding digraph: %v", s.Graph.Name(), err)
		}
		res, err := Run(s)
		if err != nil {
			t.Fatalf("%s: run: %v", s.Graph.Name(), err)
		}
		check := func(nodes []topology.Node, where string) {
			totalLoops++
			if ok, why := fwd.MatchLoop(nodes); !ok {
				t.Errorf("%s: dynamic loop %v (%s) not statically enumerated: %s",
					s.Graph.Name(), nodes, where, why)
			}
		}
		for _, l := range res.Loops {
			check(l.Nodes, "main")
		}
		for _, ph := range res.Phases {
			for _, l := range ph.Loops {
				check(l.Nodes, "phase "+ph.Name)
			}
		}
		if res.Recovery != nil {
			for _, l := range res.Recovery.Loops {
				check(l.Nodes, "recovery")
			}
		}
	}
	if totalLoops == 0 {
		t.Fatal("differential is vacuous: fixtures produced no loops")
	}
}

// TestSafetyKeyStability pins the safety cache key: timing and seeds do
// not change it, topology and enhancements do, and unfingerprintable
// configurations yield "".
func TestSafetyKeyStability(t *testing.T) {
	base := CliqueTDown(5, bgp.DefaultConfig(), 1)
	k1 := SafetyKey(base)
	if k1 == "" {
		t.Fatal("clique scenario should be fingerprintable")
	}
	reseeded := CliqueTDown(5, bgp.DefaultConfig(), 99)
	reseeded.LinkDelay = base.LinkDelay + time.Millisecond
	if k2 := SafetyKey(reseeded); k2 != k1 {
		t.Error("seed/timing changed the safety key")
	}
	cfg := bgp.DefaultConfig()
	cfg.MRAI = 5 * time.Second
	if k3 := SafetyKey(CliqueTDown(5, cfg, 1)); k3 != k1 {
		t.Error("MRAI changed the safety key")
	}
	cfg = bgp.DefaultConfig()
	cfg.Enhancements.SSLD = true
	if k4 := SafetyKey(CliqueTDown(5, cfg, 1)); k4 == k1 {
		t.Error("enhancements did not change the safety key")
	}
	if k5 := SafetyKey(CliqueTDown(6, bgp.DefaultConfig(), 1)); k5 == k1 {
		t.Error("topology did not change the safety key")
	}
	if k := SafetyKey(BadGadget(1000)); k != "" {
		t.Error("PolicyFor scenario should be unfingerprintable")
	}
}

// TestStaticBoundProperties pins the shape of the derived watchdog
// horizon: positive for bounded scenarios, zero under damping, and
// monotone in topology size.
func TestStaticBoundProperties(t *testing.T) {
	small := StaticConvergenceBound(CliqueTDown(4, bgp.DefaultConfig(), 1))
	large := StaticConvergenceBound(CliqueTDown(12, bgp.DefaultConfig(), 1))
	if small <= 0 || large <= 0 {
		t.Fatalf("bounds must be positive: %v, %v", small, large)
	}
	if large <= small {
		t.Errorf("bound not monotone in size: %v !> %v", large, small)
	}
	damped := CliqueTDown(4, bgp.DefaultConfig(), 1)
	damped.BGP.Damping = bgp.DefaultDamping()
	if b := StaticConvergenceBound(damped); b != 0 {
		t.Errorf("damping scenario got bound %v, want 0 (no bound)", b)
	}
	// WithStaticBound never overrides an explicit horizon and never arms
	// on non-SAFE reports.
	explicit := CliqueTDown(4, bgp.DefaultConfig(), 1)
	explicit.Horizon = time.Hour
	rep, err := PreflightVerdict(explicit)
	if err != nil {
		t.Fatal(err)
	}
	if got := WithStaticBound(explicit, rep); got.staticHorizon != 0 {
		t.Error("explicit horizon was overridden")
	}
	if got := WithStaticBound(CliqueTDown(4, bgp.DefaultConfig(), 1), &safety.Report{Verdict: safety.Unknown}); got.staticHorizon != 0 {
		t.Error("UNKNOWN report armed a horizon")
	}
}
