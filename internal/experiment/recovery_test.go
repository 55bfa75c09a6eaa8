package experiment

import (
	"testing"
	"time"

	"bgploop/internal/bgp"
	"bgploop/internal/topology"
)

func TestRecoveryPhaseTLong(t *testing.T) {
	s := TLongScenario(topology.Figure1(), 0, topology.Figure1FailedLink(), bgp.DefaultConfig(), 1)
	s.RestoreDelay = 2 * time.Second
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Recovery == nil {
		t.Fatal("no recovery phase recorded")
	}
	rec := res.Recovery
	if rec.ConvergenceTime <= 0 {
		t.Error("recovery produced no updates")
	}
	// T_up restores shorter routes: good news propagates without the
	// obsolete-path problem, so recovery looping should be far milder
	// than the failure phase (typically zero).
	if rec.TTLExhaustions > res.TTLExhaustions {
		t.Errorf("recovery exhaustions %d exceed failure-phase %d",
			rec.TTLExhaustions, res.TTLExhaustions)
	}
	// The failure-phase metrics must be unchanged by the extra phase.
	plain := s
	plain.RestoreDelay = 0
	base, err := Run(plain)
	if err != nil {
		t.Fatal(err)
	}
	if base.ConvergenceTime != res.ConvergenceTime || base.TTLExhaustions != res.TTLExhaustions {
		t.Errorf("restore phase perturbed failure-phase metrics: %v/%d vs %v/%d",
			base.ConvergenceTime, base.TTLExhaustions, res.ConvergenceTime, res.TTLExhaustions)
	}
}

func TestRecoveryPhaseTDown(t *testing.T) {
	s := CliqueTDown(5, bgp.DefaultConfig(), 2)
	s.RestoreDelay = time.Second
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.Recovery == nil {
		t.Fatal("no recovery phase recorded")
	}
	// After T_up the destination is reachable again: packets sent in the
	// recovery window are (eventually) deliverable, so some must arrive.
	if res.Recovery.Replay.Sent > 0 && res.Recovery.Replay.Delivered == 0 {
		t.Errorf("no packet delivered during recovery: %+v", res.Recovery.Replay)
	}
	if res.Recovery.ConvergenceTime <= 0 {
		t.Error("T_up produced no updates")
	}
}

func TestFlapCyclesRun(t *testing.T) {
	s := BCliqueTLong(4, bgp.DefaultConfig(), 5)
	s.FlapCycles = 2
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.ConvergenceTime <= 0 {
		t.Error("flap scenario produced no measured convergence")
	}
	// The measured failure happens after the pre-flaps, so the failure
	// instant is late in virtual time.
	if res.FailAt < 30*time.Second {
		t.Errorf("FailAt = %v: pre-flap cycles seem to have been skipped", res.FailAt)
	}
}

func TestFlapCyclesWithDampingSuppresses(t *testing.T) {
	cfg := bgp.DefaultConfig()
	cfg.Damping = true
	s := BCliqueTLong(4, cfg, 6)
	s.FlapCycles = 3
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if res.RoutesSuppressed == 0 {
		t.Error("three flap cycles never triggered damping suppression")
	}
	if res.RoutesReused != res.RoutesSuppressed {
		t.Errorf("suppressed %d but reused %d: suppressions leaked past quiescence",
			res.RoutesSuppressed, res.RoutesReused)
	}
}

func TestNegativeFlapCyclesRejected(t *testing.T) {
	s := CliqueTDown(4, bgp.DefaultConfig(), 1)
	s.FlapCycles = -1
	if err := s.Validate(); err == nil {
		t.Error("negative flap cycles accepted")
	}
}

func TestNoRecoveryByDefault(t *testing.T) {
	res, err := Run(CliqueTDown(4, bgp.DefaultConfig(), 3))
	if err != nil {
		t.Fatal(err)
	}
	if res.Recovery != nil {
		t.Error("recovery phase recorded without RestoreDelay")
	}
}
