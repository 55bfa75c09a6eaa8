package experiment

import (
	"runtime"
	"testing"
	"time"

	"bgploop/internal/bgp"
	"bgploop/internal/faultplan"
	"bgploop/internal/sweep"
	"bgploop/internal/topology"
	"bgploop/internal/transport"
)

// TestTransportDisabledIsNoOp pins the strict no-op contract: a nil
// Transport, an explicit all-zero config, and a config with only
// retransmission parameters set (no impairment probabilities, so
// Active() is false) all replay the exact event schedule and metrics of
// the pre-transport engine. Run's model installation is gated on this
// test's name.
func TestTransportDisabledIsNoOp(t *testing.T) {
	base := TLongScenario(topology.Figure1(), 0, topology.Figure1FailedLink(), bgp.DefaultConfig(), 7)
	base.TraceLimit = 1 << 20
	want := runDigest(t, base)

	zero := base
	zero.Transport = &transport.Config{}
	if got := runDigest(t, zero); got != want {
		t.Errorf("all-zero transport config digest %s != bare digest %s", got, want)
	}

	inactive := base
	inactive.Transport = &transport.Config{RTOInitial: 100 * time.Millisecond, RTOMax: time.Second, MaxRetries: 3}
	if got := runDigest(t, inactive); got != want {
		t.Errorf("inactive transport config digest %s != bare digest %s", got, want)
	}
}

// TestCacheKeyTransportSession extends the content-address contract to
// the transport and session fields: inactive configurations alias the
// bare key (they are behavioural no-ops), and every active field change
// changes the key.
func TestCacheKeyTransportSession(t *testing.T) {
	base := CliqueTDown(4, bgp.DefaultConfig(), 5)
	k1 := base.CacheKey()
	if k1 == "" {
		t.Fatal("default scenario must be cacheable")
	}

	// Inactive transport and disabled session share the bare address.
	s := base
	s.Transport = &transport.Config{}
	if s.CacheKey() != k1 {
		t.Error("inactive transport config changed the key")
	}
	s = base
	s.Transport = &transport.Config{RTOInitial: time.Second}
	if s.CacheKey() != k1 {
		t.Error("retransmission-only (inactive) transport config changed the key")
	}
	s = base
	s.BGP.Session = bgp.SessionConfig{}
	if s.CacheKey() != k1 {
		t.Error("disabled session config changed the key")
	}

	// Defaulted and spelled-out forms of the same active config alias.
	s = base
	s.Transport = &transport.Config{Loss: 0.05}
	k := s.CacheKey()
	explicit := base
	explicit.Transport = &transport.Config{Loss: 0.05}
	*explicit.Transport = explicit.Transport.WithDefaults()
	if explicit.CacheKey() != k {
		t.Error("spelling out transport defaults changed the key")
	}

	perturb := []struct {
		name  string
		apply func(*Scenario)
	}{
		{"loss", func(s *Scenario) { s.Transport = &transport.Config{Loss: 0.01} }},
		{"loss-rate", func(s *Scenario) { s.Transport = &transport.Config{Loss: 0.02} }},
		{"duplicate", func(s *Scenario) { s.Transport = &transport.Config{Duplicate: 0.01} }},
		{"reorder", func(s *Scenario) { s.Transport = &transport.Config{ReorderProb: 0.01} }},
		{"jitter", func(s *Scenario) { s.Transport = &transport.Config{Jitter: time.Millisecond} }},
		{"loss-rto", func(s *Scenario) { s.Transport = &transport.Config{Loss: 0.01, RTOInitial: 2 * time.Second} }},
		{"loss-retries", func(s *Scenario) { s.Transport = &transport.Config{Loss: 0.01, MaxRetries: 3} }},
		{"session", func(s *Scenario) { s.BGP.Session = bgp.SessionConfig{HoldTime: 90 * time.Second} }},
		{"session-hold", func(s *Scenario) { s.BGP.Session = bgp.SessionConfig{HoldTime: 60 * time.Second} }},
		{"session-keepalive", func(s *Scenario) {
			s.BGP.Session = bgp.SessionConfig{HoldTime: 90 * time.Second, KeepaliveInterval: 10 * time.Second}
		}},
		{"session-retry", func(s *Scenario) {
			s.BGP.Session = bgp.SessionConfig{HoldTime: 90 * time.Second, ConnectRetry: 5 * time.Second}
		}},
		{"degrade-plan", func(s *Scenario) {
			s.FaultPlan = &faultplan.Plan{Phases: []faultplan.Phase{{
				Name: "degrade", Delay: time.Second, Measure: true, Role: faultplan.RoleMain,
				Actions: []faultplan.Action{faultplan.DegradeLink(topology.Edge{A: 0, B: 1}, transport.Config{Loss: 0.3})},
			}}}
		}},
		{"degrade-plan-rate", func(s *Scenario) {
			s.FaultPlan = &faultplan.Plan{Phases: []faultplan.Phase{{
				Name: "degrade", Delay: time.Second, Measure: true, Role: faultplan.RoleMain,
				Actions: []faultplan.Action{faultplan.DegradeLink(topology.Edge{A: 0, B: 1}, transport.Config{Loss: 0.4})},
			}}}
		}},
	}
	seen := map[string]string{k1: "base"}
	for _, p := range perturb {
		ps := base
		p.apply(&ps)
		k := ps.CacheKey()
		if k == "" {
			t.Errorf("%s: perturbed scenario not cacheable", p.name)
			continue
		}
		if prev, dup := seen[k]; dup {
			t.Errorf("%s: key collides with %s", p.name, prev)
		}
		seen[k] = p.name
	}
}

// degradedScenario is the acceptance sweep's base: the paper's Clique
// T_down with uniform link loss layered on top. Zero loss leaves
// Transport nil, the unimpaired engine.
func degradedScenario(n int, loss float64, seed int64) Scenario {
	s := CliqueTDown(n, bgp.DefaultConfig(), seed)
	if loss > 0 {
		s.Transport = &transport.Config{Loss: loss}
	}
	return s
}

// TestDegradedDigestParity is the acceptance criterion for the
// impairment layer: a loss-rate sweep over {0, 1%, 5%, 10%} on
// Clique(10) produces byte-identical digests at -j 1 and -j GOMAXPROCS,
// and a re-run against the same cache is served entirely from disk with
// unchanged digests. The guard engine runs with guards full throughout —
// the invariants (conservation, FIFO-per-epoch, RIB/FIB coherence) must
// hold under impairment, and observation must stay free.
func TestDegradedDigestParity(t *testing.T) {
	t.Setenv("BGPSIM_GUARD", "full")
	rates := []float64{0, 0.01, 0.05, 0.10}
	const trials = 2
	dir := t.TempDir()

	digests := func(opts SweepOptions) []string {
		t.Helper()
		out := make([]string, 0, len(rates)*trials)
		for _, rate := range rates {
			_, results, _, err := RunSweep(Repeat(degradedScenario(10, rate, 7)), trials, opts)
			if err != nil {
				t.Fatalf("rate %g: %v", rate, err)
			}
			for _, res := range results {
				d, err := DigestResult(res)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, d)
			}
		}
		return out
	}

	want := digests(SweepOptions{Workers: 1, CacheDir: dir})
	got := digests(SweepOptions{Workers: runtime.GOMAXPROCS(0)})
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("digest %d: -j max %s != -j 1 %s", i, got[i], want[i])
		}
	}

	var stats sweep.Stats
	warm := digests(SweepOptions{Workers: runtime.GOMAXPROCS(0), CacheDir: dir, Stats: &stats})
	if stats.Executed != 0 || stats.CacheHits != len(rates)*trials {
		t.Errorf("warm re-run stats %+v, want everything cache-served", stats)
	}
	for i := range want {
		if warm[i] != want[i] {
			t.Errorf("digest %d: warm cache %s != fresh %s", i, warm[i], want[i])
		}
	}
}

// TestLossSweepMonotoneCost sanity-checks a loss-rate series: the zero
// point is the unimpaired engine, and raising the loss rate strictly
// increases the time to converge (retransmission delays stretch the
// update exchange).
func TestLossSweepMonotoneCost(t *testing.T) {
	var conv []float64
	for _, rate := range []float64{0, 0.10} {
		agg, _, _, err := RunSweep(Repeat(degradedScenario(6, rate, 21)), 1, SweepOptions{})
		if err != nil {
			t.Fatal(err)
		}
		conv = append(conv, agg.ConvergenceSec.Mean)
	}
	clean, err := Run(CliqueTDown(6, bgp.DefaultConfig(), 21))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := conv[0], clean.ConvergenceTime.Seconds(); got != want {
		t.Errorf("zero-loss sweep point convergence %v != unimpaired run %v", got, want)
	}
	if conv[1] <= conv[0] {
		t.Errorf("10%% loss converged in %v, not slower than clean %v", conv[1], conv[0])
	}
}

// fsmClique builds a Clique(n) T_down-style scenario with the session
// FSM enabled and an explicit fault plan.
func fsmClique(n int, seed int64, plan *faultplan.Plan) Scenario {
	cfg := bgp.DefaultConfig()
	// A short MRAI lets a single path-hunting episode resolve well inside
	// the disturbance window, so total looping measures how many episodes
	// a scenario triggers rather than saturating at the window length.
	cfg.MRAI = 2 * time.Second
	cfg.Session = bgp.SessionConfig{
		HoldTime:          2 * time.Second,
		KeepaliveInterval: 500 * time.Millisecond,
		ConnectRetry:      500 * time.Millisecond,
		ConnectRetryMax:   4 * time.Second,
	}
	s := TDownScenario(topology.Clique(n), 0, cfg, seed)
	s.FaultPlan = plan
	return s
}

// TestDegradedHoldExpiryLoopsLonger is the end-to-end acceptance
// regression for the resilience stack: sustained heavy loss on one link
// (no physical failure) must expire the hold timer, force a session
// teardown with implicit withdrawal, re-establish through the backoff
// machinery — and the resulting stale-route windows must cost strictly
// more total packet-looping than the clean failure of the same link,
// where the withdrawal is immediate.
func TestDegradedHoldExpiryLoopsLonger(t *testing.T) {
	// Degrading every destination link makes a "lossy T_down": the
	// destination stays physically attached, but its neighbors' hold
	// timers starve and the implicit withdrawals trigger the paper's
	// path-hunting episode — repeatedly, since each backoff-driven
	// re-establishment re-advertises the destination and then starves
	// again. The clean baseline fails the destination node outright,
	// which hunts exactly once.
	g := topology.Clique(5)
	destLinks := make([]topology.Edge, 0, 4)
	for _, u := range g.Neighbors(0) {
		destLinks = append(destLinks, topology.NormEdge(0, u))
	}
	heavy := transport.Config{
		Loss:       0.7,
		RTOInitial: 300 * time.Millisecond,
		RTOMax:     1600 * time.Millisecond,
		MaxRetries: 10,
	}

	// Each plan bounds its disturbance within a single measured phase:
	// fail (or degrade) at the phase start, repair (or restore) 20 s in.
	// The restore must share the phase — while a link feeding an
	// FSM-enabled speaker stays impaired, the keepalive exchange never
	// quiesces, so a degrade-only phase would never end.
	cleanPlan := &faultplan.Plan{Name: "clean-failure", Phases: []faultplan.Phase{
		{Name: "failure", Delay: time.Second, Measure: true, Role: faultplan.RoleMain,
			Actions: []faultplan.Action{
				faultplan.FailNode(0),
				faultplan.RestoreNode(0).AtOffset(20 * time.Second),
			}},
	}}
	restore := faultplan.Action{Op: faultplan.Undegrade, Links: destLinks}
	degradedPlan := &faultplan.Plan{Name: "degraded-failure", Phases: []faultplan.Phase{
		{Name: "degrade", Delay: time.Second, Measure: true, Role: faultplan.RoleMain,
			Actions: []faultplan.Action{
				faultplan.DegradeGroup(heavy, destLinks...),
				restore.AtOffset(20 * time.Second),
			}},
	}}

	const seed = 13
	clean, err := Run(fsmClique(5, seed, cleanPlan))
	if err != nil {
		t.Fatal(err)
	}
	degraded, err := Run(fsmClique(5, seed, degradedPlan))
	if err != nil {
		t.Fatal(err)
	}

	if clean.HoldExpiries != 0 {
		t.Errorf("clean failure expired %d hold timers; physical failure must tear sessions down directly", clean.HoldExpiries)
	}
	if degraded.HoldExpiries == 0 {
		t.Fatal("sustained 70% loss never expired a hold timer")
	}
	// Re-establishment through the backoff machinery: strictly more
	// establishments than the cold-start handshakes plus the clean
	// repair's own re-establishments.
	if degraded.SessionsEstablished <= clean.SessionsEstablished {
		t.Errorf("degraded run established %d sessions, clean %d; expiry must be followed by re-establishment",
			degraded.SessionsEstablished, clean.SessionsEstablished)
	}
	if degraded.Net.Retransmitted == 0 {
		t.Error("degraded run recorded no retransmissions")
	}
	t.Logf("clean: looping=%v holdExpiries=%d established=%d", clean.LoopingDuration, clean.HoldExpiries, clean.SessionsEstablished)
	t.Logf("degraded: looping=%v holdExpiries=%d established=%d retransmitted=%d",
		degraded.LoopingDuration, degraded.HoldExpiries, degraded.SessionsEstablished, degraded.Net.Retransmitted)
	if degraded.LoopingDuration <= clean.LoopingDuration {
		t.Errorf("degraded looping %v not strictly longer than clean-failure looping %v",
			degraded.LoopingDuration, clean.LoopingDuration)
	}
}
