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

func mustSafetyInput(t *testing.T, s Scenario, candidates bool) safety.Input {
	t.Helper()
	in, err := SafetyInput(s, candidates)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestPreflightBadGadgetRefused pins the UNSAFE side of the static
// analyzer: BAD GADGET is diagnosed with a verified dispute-wheel
// witness, and the strict preflight gate refuses it.
func TestPreflightBadGadgetRefused(t *testing.T) {
	s := BadGadget(30_000)
	rep, err := safety.Analyze(mustSafetyInput(t, s, true))
	if err != nil {
		t.Fatalf("preflight: %v", err)
	}
	if rep.Verdict != safety.Unsafe {
		t.Fatalf("verdict = %s, want UNSAFE", rep.Verdict)
	}
	if rep.Wheel == nil || len(rep.Wheel.Pivots) == 0 {
		t.Fatal("UNSAFE without a wheel witness")
	}
	if err := rep.Wheel.Verify(mustSafetyInput(t, s, false)); err != nil {
		t.Fatalf("witness does not verify: %v", err)
	}
	// The full analysis also enumerated candidates: the gadget's clique
	// carries mutual fallback conflicts on every edge not touching the
	// hub.
	if rep.CandidateStats.Pairs == 0 || rep.CandidateStats.Mutual == 0 {
		t.Fatalf("gadget candidates missing: %+v", rep.CandidateStats)
	}

	gated, err := Preflight(s, true)
	if !errors.Is(err, ErrStaticallyUnsafe) {
		t.Fatalf("strict preflight error = %v, want ErrStaticallyUnsafe", err)
	}
	if gated == nil || gated.Verdict != safety.Unsafe {
		t.Fatalf("strict preflight report = %+v, want the UNSAFE verdict", gated)
	}
	if !strings.Contains(err.Error(), rep.Reason) || !strings.Contains(err.Error(), gated.Wheel.String()) {
		t.Fatalf("refusal does not carry the reason and the rendered wheel: %v", err)
	}
	// Without strict the verdict is reported, not refused.
	if warned, err := Preflight(s, false); err != nil || warned.Verdict != safety.Unsafe {
		t.Fatalf("non-strict preflight = %+v, %v; want UNSAFE and no error", warned, err)
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
// all of them through a preflight-gated sweep — where SAFE verdicts
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
	// Each trial passes the strict gate and arms the finite horizon its
	// SAFE verdict allows, as bgpsim does for its base scenario.
	armed := func(trial int) (Scenario, error) {
		s := scenarios[trial]
		rep, err := Preflight(s, true)
		if err != nil {
			return Scenario{}, err
		}
		return WithStaticBound(s, rep), nil
	}
	first, err := armed(0)
	if err != nil {
		t.Fatalf("preflight: %v", err)
	}
	if first.staticHorizon <= 0 {
		t.Fatal("SAFE scenario did not get a static watchdog horizon")
	}
	if bound := StaticConvergenceBound(scenarios[0]); first.staticHorizon != bound {
		t.Fatalf("horizon %v != static bound %v", first.staticHorizon, bound)
	}

	agg, results, _, err := RunSweep(armed, len(scenarios), SweepOptions{})
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
		fwd, err := safety.NewForwarding(mustSafetyInput(t, s, false))
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
	damped.BGP.Damping = true
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
