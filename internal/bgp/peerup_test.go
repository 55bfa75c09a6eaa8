package bgp

import (
	"testing"
	"time"

	"bgploop/internal/des"
	"bgploop/internal/topology"
)

// restoreLink repairs (a, b) one second after the current virtual time and
// runs to quiescence, returning the restore instant.
func (s *sim) restoreLink(t *testing.T, a, b topology.Node) des.Time {
	t.Helper()
	at := s.sched.Now() + time.Second
	s.at(t, at, s.net.Restore, topology.Edge{A: a, B: b})
	if s.sched.RunLimit(5_000_000) >= 5_000_000 {
		t.Fatal("post-restore convergence did not quiesce")
	}
	return at
}

func TestPeerUpReestablishesRoutes(t *testing.T) {
	s := newSim(t, topology.Chain(3), 0, fastConfig(), 21)
	s.failLink(t, 0, 1)
	if s.speakers[2].Table(0).HasRoute() {
		t.Fatal("node 2 kept a route across the partition")
	}
	s.restoreLink(t, 0, 1)
	if got := s.best(1).String(); got != "(1 0)" {
		t.Errorf("node 1 best after restore = %s, want (1 0)", got)
	}
	if got := s.best(2).String(); got != "(2 1 0)" {
		t.Errorf("node 2 best after restore = %s, want (2 1 0)", got)
	}
}

func TestPeerUpIdempotent(t *testing.T) {
	s := newSim(t, topology.Chain(2), 0, fastConfig(), 22)
	sp := s.speakers[1]
	before := len(sp.Peers())
	sp.PeerUp(0) // already up: must be ignored
	if len(sp.Peers()) != before {
		t.Errorf("duplicate PeerUp grew the peer set: %v", sp.Peers())
	}
}

func TestFlapRestoresOriginalRoutes(t *testing.T) {
	// Fail the Figure-1 primary link, then repair it: every node must
	// return to its exact pre-failure route.
	s := newSim(t, topology.Figure1(), 0, fastConfig(), 23)
	wantBefore := map[topology.Node]string{
		4: "(4 0)", 5: "(5 4 0)", 6: "(6 4 0)",
	}
	for v, want := range wantBefore {
		if got := s.best(v).String(); got != want {
			t.Fatalf("pre-failure best(%d) = %s, want %s", v, got, want)
		}
	}
	s.failLink(t, 4, 0)
	s.restoreLink(t, 4, 0)
	for v, want := range wantBefore {
		if got := s.best(v).String(); got != want {
			t.Errorf("post-recovery best(%d) = %s, want %s", v, got, want)
		}
	}
}

func TestTDownTUpCycle(t *testing.T) {
	// Fail all of the origin's links, then repair them: the clique must
	// fully re-learn the destination.
	s := newSim(t, topology.Clique(5), 0, DefaultConfig(), 24)
	s.failNode(t, 0)
	at := s.sched.Now() + time.Second
	s.at(t, at, s.net.Restore, s.net.Graph().IncidentEdges(0)...)
	if s.sched.RunLimit(5_000_000) >= 5_000_000 {
		t.Fatal("T_up did not quiesce")
	}
	for v := topology.Node(1); v < 5; v++ {
		tab := s.speakers[v].Table(0)
		if tab.NextHop() != 0 {
			t.Errorf("node %d next hop after T_up = %d, want 0", v, tab.NextHop())
		}
	}
}
