package bgp

import (
	"testing"
	"time"

	"bgploop/internal/des"
	"bgploop/internal/netsim"
	"bgploop/internal/routing"
	"bgploop/internal/topology"
)

// pathOf builds a routing.Path from node literals.
func pathOf(nodes ...topology.Node) routing.Path { return routing.Path(nodes) }

// sentRecord is one observed UpdateSent event.
type sentRecord struct {
	at       des.Time
	from, to topology.Node
	update   Update
}

// fibRecord is one observed RouteChanged event.
type fibRecord struct {
	at            des.Time
	node, nexthop topology.Node
}

// testObserver records protocol events for assertions.
type testObserver struct {
	sent []sentRecord
	fib  []fibRecord
}

func (o *testObserver) RouteChanged(now des.Time, node, dest, nexthop topology.Node, best routing.Path) {
	o.fib = append(o.fib, fibRecord{at: now, node: node, nexthop: nexthop})
}

func (o *testObserver) UpdateSent(now des.Time, from, to topology.Node, update Update) {
	o.sent = append(o.sent, sentRecord{at: now, from: from, to: to, update: update})
}

// nextHopAt replays the recorded FIB changes to find node's next hop as of
// time t (None before any record).
func (o *testObserver) nextHopAt(node topology.Node, t des.Time) topology.Node {
	nh := topology.None
	for _, r := range o.fib {
		if r.node != node || r.at > t {
			continue
		}
		nh = r.nexthop
	}
	return nh
}

// sim bundles a ready-to-run simulation for tests.
type sim struct {
	sched    *des.Scheduler
	net      *netsim.Network
	speakers map[topology.Node]*Speaker
	obs      *testObserver
	dest     topology.Node
}

// newSim builds a network of speakers over g, originates dest, and runs to
// initial convergence.
func newSim(t *testing.T, g *topology.Graph, dest topology.Node, cfg Config, seed int64) *sim {
	t.Helper()
	sched := des.NewScheduler()
	net := netsim.New(sched, g, netsim.DefaultLinkDelay)
	rng := des.NewRNG(seed)
	obs := &testObserver{}
	speakers := make(map[topology.Node]*Speaker, g.NumNodes())
	for _, v := range g.Nodes() {
		sp, err := NewSpeaker(v, sched, net, cfg, rng, obs)
		if err != nil {
			t.Fatalf("NewSpeaker(%d): %v", v, err)
		}
		speakers[v] = sp
	}
	if err := speakers[dest].Originate(dest); err != nil {
		t.Fatalf("Originate: %v", err)
	}
	if sched.RunLimit(5_000_000) >= 5_000_000 {
		t.Fatal("initial convergence did not quiesce")
	}
	return &sim{sched: sched, net: net, speakers: speakers, obs: obs, dest: dest}
}

// at applies op — one of the network's link operations — to each link in
// order at virtual time when, in one event.
func (s *sim) at(t *testing.T, when des.Time, op func(topology.Edge), links ...topology.Edge) {
	t.Helper()
	if err := s.net.At(when, func() {
		for _, e := range links {
			op(e)
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// failLink fails (a, b) one second after the current virtual time and runs
// the simulation to quiescence, returning the failure instant.
func (s *sim) failLink(t *testing.T, a, b topology.Node) des.Time {
	t.Helper()
	at := s.sched.Now() + time.Second
	s.at(t, at, s.net.Fail, topology.Edge{A: a, B: b})
	if s.sched.RunLimit(5_000_000) >= 5_000_000 {
		t.Fatal("post-failure convergence did not quiesce")
	}
	return at
}

// failNode fails all links of v one second after the current virtual time
// and runs to quiescence, returning the failure instant.
func (s *sim) failNode(t *testing.T, v topology.Node) des.Time {
	t.Helper()
	at := s.sched.Now() + time.Second
	s.at(t, at, s.net.Fail, s.net.Graph().IncidentEdges(v)...)
	if s.sched.RunLimit(5_000_000) >= 5_000_000 {
		t.Fatal("post-failure convergence did not quiesce")
	}
	return at
}

// best returns node v's loc-RIB path toward the sim's destination.
func (s *sim) best(v topology.Node) routing.Path {
	tab := s.speakers[v].Table(s.dest)
	if tab == nil {
		return nil
	}
	return tab.Best()
}

// lastUpdateSent returns the latest LastUpdateSent across all speakers.
func (s *sim) lastUpdateSent() des.Time {
	var last des.Time
	for _, sp := range s.speakers {
		if t := sp.Stats().LastUpdateSent; t > last {
			last = t
		}
	}
	return last
}

// totals sums the speakers' stats.
func (s *sim) totals() Stats {
	var sum Stats
	for _, sp := range s.speakers {
		st := sp.Stats()
		sum.UpdatesReceived += st.UpdatesReceived
		sum.AnnouncementsSent += st.AnnouncementsSent
		sum.WithdrawalsSent += st.WithdrawalsSent
		sum.BestChanges += st.BestChanges
		sum.SSLDConversions += st.SSLDConversions
		sum.GhostFlushes += st.GhostFlushes
		sum.AssertionInvalidations += st.AssertionInvalidations
		sum.MalformedDropped += st.MalformedDropped
		if st.LastUpdateSent > sum.LastUpdateSent {
			sum.LastUpdateSent = st.LastUpdateSent
		}
	}
	return sum
}

// fastConfig returns a config with no MRAI jitter for deterministic
// small-scale assertions.
func fastConfig() Config {
	c := DefaultConfig()
	c.JitterMin = 1.0
	c.JitterMax = 1.0
	return c
}
