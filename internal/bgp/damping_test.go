package bgp

import (
	"testing"
	"time"

	"bgploop/internal/topology"
)

func dampingConfig() Config {
	cfg := fastConfig()
	cfg.MRAI = 0 // isolate damping behaviour from rate limiting
	cfg.Damping = true
	return cfg
}

// flap drives node 1's view of peer 0 through announce/withdraw cycles by
// injecting updates directly. It advances virtual time in bounded steps so
// that pending reuse timers (minutes away) do not fire.
func flap(s *sim, times int) {
	sp := s.speakers[1]
	for i := 0; i < times; i++ {
		sp.Deliver(0, &Update{Dest: 0, Path: pathOf(0)})
		s.sched.RunUntil(s.sched.Now() + time.Second)
		sp.Deliver(0, &Update{Dest: 0, Withdraw: true})
		s.sched.RunUntil(s.sched.Now() + time.Second)
	}
}

func TestDampingSuppressesFlappingRoute(t *testing.T) {
	s := newSim(t, topology.Chain(2), 0, dampingConfig(), 31)
	flap(s, 3) // three withdrawal flaps: 3000 penalty > 2000 threshold
	sp := s.speakers[1]
	if sp.Stats().RoutesSuppressed == 0 {
		t.Fatal("flapping route never suppressed")
	}
	// While suppressed, a fresh announcement must not be installed.
	sp.Deliver(0, &Update{Dest: 0, Path: pathOf(0)})
	s.sched.RunUntil(s.sched.Now() + time.Second)
	if sp.Table(0).HasRoute() {
		t.Error("suppressed route was installed")
	}
}

func TestDampingReusesAfterDecay(t *testing.T) {
	s := newSim(t, topology.Chain(2), 0, dampingConfig(), 32)
	flap(s, 3)
	sp := s.speakers[1]
	if sp.Stats().RoutesSuppressed == 0 {
		t.Fatal("route never suppressed")
	}
	// Deliver the final (good) announcement while suppressed, then let
	// the penalty decay: running to quiescence executes the reuse event.
	sp.Deliver(0, &Update{Dest: 0, Path: pathOf(0)})
	s.sched.Run()
	if sp.Stats().RoutesReused == 0 {
		t.Fatal("suppression never ended")
	}
	if !sp.Table(0).HasRoute() {
		t.Error("route not reinstalled after reuse")
	}
	if got := sp.Table(0).Best().String(); got != "(1 0)" {
		t.Errorf("best after reuse = %s", got)
	}
}

func TestDampingStableRouteUnaffected(t *testing.T) {
	// A single announcement accrues no penalty and must never suppress.
	s := newSim(t, topology.Chain(3), 0, dampingConfig(), 33)
	if got := s.best(2).String(); got != "(2 1 0)" {
		t.Errorf("best = %s, want (2 1 0)", got)
	}
	var suppressed int
	for _, sp := range s.speakers {
		suppressed += sp.Stats().RoutesSuppressed
	}
	if suppressed != 0 {
		t.Errorf("stable network suppressed %d routes", suppressed)
	}
}

func TestDampingAttributeFlap(t *testing.T) {
	// Path changes (not withdrawals) accrue the attribute penalty: 4
	// changes x 500 = 2000 >= threshold. The paths name nodes 5, 6 and 9,
	// so the graph has them: a path through a node past the graph is
	// dropped as malformed.
	s := newSim(t, topology.Chain(10), 0, dampingConfig(), 34)
	sp := s.speakers[1]
	paths := []*Update{
		{Dest: 9, Path: pathOf(0, 5, 9)},
		{Dest: 9, Path: pathOf(0, 6, 9)},
		{Dest: 9, Path: pathOf(0, 5, 9)},
		{Dest: 9, Path: pathOf(0, 6, 9)},
		{Dest: 9, Path: pathOf(0, 5, 9)},
		{Dest: 9, Path: pathOf(0, 6, 9)},
	}
	for _, up := range paths {
		sp.Deliver(0, up)
		s.sched.RunUntil(s.sched.Now() + time.Second)
	}
	if sp.Stats().RoutesSuppressed == 0 {
		t.Error("attribute flapping never suppressed")
	}
}

func TestDampingDecayHalfLife(t *testing.T) {
	d := &dampState{penalty: 1000, lastDecay: 0}
	d.decayTo(des15min())
	if d.penalty < 499 || d.penalty > 501 {
		t.Errorf("penalty after one half life = %v, want ~500", d.penalty)
	}
	// Decay is monotone in time and idempotent for now <= lastDecay.
	p := d.penalty
	d.decayTo(0)
	if d.penalty != p {
		t.Error("backwards decay changed the penalty")
	}
}

func des15min() (t time.Duration) { return 15 * time.Minute }

func TestDampingReuseDelay(t *testing.T) {
	d := &dampState{penalty: 1500}
	delay := d.reuseDelay()
	// 1500 -> 750 is exactly one half life.
	if delay < 14*time.Minute || delay > 16*time.Minute {
		t.Errorf("reuse delay = %v, want ~15m", delay)
	}
	d.penalty = 100
	if d.reuseDelay() != 0 {
		t.Error("below-threshold penalty should reuse immediately")
	}
}
