package bgp

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"bgploop/internal/des"
	"bgploop/internal/netsim"
	"bgploop/internal/topology"
	"bgploop/internal/transport"
)

// fsmConfig returns a snappy session-FSM configuration for tests.
func fsmConfig() Config {
	cfg := DefaultConfig()
	cfg.MRAI = 0
	cfg.ProcDelayMin = time.Millisecond
	cfg.ProcDelayMax = 2 * time.Millisecond
	cfg.Session = SessionConfig{
		HoldTime:          3 * time.Second,
		KeepaliveInterval: time.Second,
		ConnectRetry:      2 * time.Second,
		ConnectRetryMax:   16 * time.Second,
	}
	return cfg
}

func TestSessionConfigValidate(t *testing.T) {
	good := []SessionConfig{
		{},
		{HoldTime: 90 * time.Second},
		{HoldTime: 3 * time.Second, KeepaliveInterval: time.Second},
	}
	for _, c := range good {
		if err := c.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", c, err)
		}
	}
	bad := []SessionConfig{
		{HoldTime: -time.Second},
		{KeepaliveInterval: time.Second}, // timers without HoldTime
		{HoldTime: time.Second, KeepaliveInterval: 2 * time.Second},
		{HoldTime: time.Minute, ConnectRetry: 30 * time.Second, ConnectRetryMax: time.Second},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", c)
		}
	}
	d := SessionConfig{HoldTime: 90 * time.Second}.WithDefaults()
	if d.KeepaliveInterval != 30*time.Second || d.ConnectRetry != DefaultConnectRetry || d.ConnectRetryMax != 8*DefaultConnectRetry {
		t.Errorf("defaults not applied: %+v", d)
	}
}

// TestSessionColdStartEstablishes checks the FSM handshake on clean links:
// every peering establishes, routes converge as usual, and no keepalive or
// hold machinery runs (clean links never arm it).
func TestSessionColdStartEstablishes(t *testing.T) {
	s := newSim(t, topology.Chain(3), 0, fsmConfig(), 1)
	for v, sp := range s.speakers {
		for _, u := range s.net.Graph().Neighbors(v) {
			if !sp.PeerEstablished(u) {
				t.Errorf("node %d: session to %d is %v, want established", v, u, sp.SessionState(u))
			}
		}
		st := sp.Stats()
		if st.SessionsEstablished == 0 || st.OpensSent == 0 {
			t.Errorf("node %d: no handshake recorded: %+v", v, st)
		}
		if st.KeepalivesSent != 0 || st.HoldExpiries != 0 {
			t.Errorf("node %d: keepalive/hold machinery ran on clean links: %+v", v, st)
		}
	}
	if got := s.best(2); got == nil || !got.Equal(pathOf(2, 1, 0)) {
		t.Errorf("node 2 best = %v, want (2 1 0)", s.best(2))
	}
}

// TestHoldExpiryExactlyAtHoldTime pins the hold timer's edge: under total
// loss the session is alive one instant before the configured hold time
// has elapsed since the impairment appeared, and dead right after. It then
// checks backoff re-establishment once the impairment clears.
func TestHoldExpiryExactlyAtHoldTime(t *testing.T) {
	s := newSim(t, topology.Chain(2), 0, fsmConfig(), 7)
	s.net.SetImpairment(transport.NewModel(des.NewRNG(7), nil))

	blackhole := transport.Config{Loss: 0.9999999, MaxRetries: 1, RTOInitial: time.Millisecond}
	degradeAt := s.sched.Now() + time.Second
	link := topology.NormEdge(0, 1)
	s.at(t, degradeAt, func(e topology.Edge) { s.net.Degrade(e, blackhole) }, link)
	restoreAt := degradeAt + 20*time.Second
	s.at(t, restoreAt, s.net.Undegrade, link)

	hold := des.Time(3 * time.Second) // fsmConfig's HoldTime
	probe := func(at des.Time, fn func(at des.Time)) {
		if _, err := s.sched.At(at, func() { fn(at) }); err != nil {
			t.Fatal(err)
		}
	}
	probe(degradeAt+hold-1, func(at des.Time) {
		for v, sp := range s.speakers {
			if st := sp.Stats(); st.HoldExpiries != 0 {
				t.Errorf("t=%v: node %d hold expired before the hold time elapsed", at, v)
			}
		}
	})
	probe(degradeAt+hold+1, func(at des.Time) {
		for v, sp := range s.speakers {
			if st := sp.Stats(); st.HoldExpiries != 1 {
				t.Errorf("t=%v: node %d HoldExpiries = %d, want exactly 1 at the hold time", at, v, st.HoldExpiries)
			}
			if got := sp.SessionState(topology.Node(1 - v)); got != SessionConnect {
				t.Errorf("t=%v: node %d session state = %v, want connect", at, v, got)
			}
		}
	})

	if s.sched.RunLimit(5_000_000) >= 5_000_000 {
		t.Fatal("run did not quiesce after impairment cleared")
	}
	for v, sp := range s.speakers {
		st := sp.Stats()
		if st.HoldExpiries != 1 {
			t.Errorf("node %d: HoldExpiries = %d, want 1", v, st.HoldExpiries)
		}
		if st.SessionsEstablished < 2 {
			t.Errorf("node %d: SessionsEstablished = %d, want re-establishment after expiry", v, st.SessionsEstablished)
		}
		if !sp.PeerEstablished(topology.Node(1 - v)) {
			t.Errorf("node %d: session not re-established after restore", v)
		}
	}
	if got := s.best(1); got == nil || !got.Equal(pathOf(1, 0)) {
		t.Errorf("node 1 best after recovery = %v, want (1 0)", s.best(1))
	}
}

// TestKeepaliveSuppressionUnderLoad checks RFC 4271 §4.4 suppression:
// while update traffic keeps flowing to an impaired peer, keepalive ticks
// are elided instead of transmitted.
func TestKeepaliveSuppressionUnderLoad(t *testing.T) {
	s := newSim(t, topology.Chain(3), 0, fsmConfig(), 3)
	s.net.SetImpairment(transport.NewModel(des.NewRNG(3), nil))

	// Benign impairment on 1-2: arms the keepalive machinery without
	// perturbing delivery beyond a microsecond of jitter.
	link12 := topology.NormEdge(1, 2)
	base := s.sched.Now() + time.Second
	s.at(t, base, func(e topology.Edge) { s.net.Degrade(e, transport.Config{Jitter: time.Microsecond}) }, link12)
	// Flap 0-1 every 400ms: each transition makes node 1 send an update
	// to node 2 well inside the 1s keepalive interval.
	for i := 0; i < 3; i++ {
		at := base + des.Time(i)*800*time.Millisecond
		s.at(t, at+100*time.Millisecond, s.net.Fail, topology.NormEdge(0, 1))
		s.at(t, at+500*time.Millisecond, s.net.Restore, topology.NormEdge(0, 1))
	}
	s.at(t, base+4*time.Second, s.net.Undegrade, link12)
	if s.sched.RunLimit(5_000_000) >= 5_000_000 {
		t.Fatal("run did not quiesce after impairment cleared")
	}
	st := s.speakers[1].Stats()
	if st.KeepalivesSuppressed == 0 {
		t.Errorf("node 1 never suppressed a keepalive under update load: %+v", st)
	}
	if st.HoldExpiries != 0 {
		t.Errorf("node 1 hold timer expired under benign jitter: %+v", st)
	}
}

// TestConnectBackoffDoubling pins the re-establishment backoff schedule:
// ConnectRetry doubling per silent attempt, capped at ConnectRetryMax.
func TestConnectBackoffDoubling(t *testing.T) {
	s := newSim(t, topology.Chain(2), 0, fsmConfig(), 5)
	sp := s.speakers[0]
	want := []des.Time{
		2 * time.Second, 4 * time.Second, 8 * time.Second, 16 * time.Second,
		16 * time.Second, // capped
	}
	for i, w := range want {
		if got := sp.connectBackoff(i); got != w {
			t.Errorf("connectBackoff(%d) = %v, want %v", i, got, w)
		}
	}
	if got := sp.connectBackoff(100); got != 16*time.Second {
		t.Errorf("connectBackoff(100) = %v, want the cap", got)
	}
}

// TestSessionDisabledIsLegacy checks the FSM-off path: sessions follow the
// physical link, the state accessors derive from the peer set, and no
// session counters move.
func TestSessionDisabledIsLegacy(t *testing.T) {
	cfg := DefaultConfig()
	cfg.ProcDelayMin = time.Millisecond
	cfg.ProcDelayMax = 2 * time.Millisecond
	s := newSim(t, topology.Chain(2), 0, cfg, 1)
	sp := s.speakers[0]
	if !sp.PeerEstablished(1) || sp.SessionState(1) != SessionEstablished {
		t.Error("legacy mode: up link must read as established")
	}
	s.failLink(t, 0, 1)
	if sp.PeerEstablished(1) || sp.SessionState(1) != SessionIdle {
		t.Error("legacy mode: failed link must read as idle")
	}
	st := sp.Stats()
	if st.OpensSent != 0 || st.KeepalivesSent != 0 || st.SessionsEstablished != 0 || st.HoldExpiries != 0 {
		t.Errorf("legacy mode moved session counters: %+v", st)
	}
}

// TestSessionMessagesBypassRouteProcessor checks that an Open is handled
// at its delivery instant even when the serial route processor is busy:
// the handshake completes at propagation speed, not processing speed.
func TestSessionMessagesBypassRouteProcessor(t *testing.T) {
	cfg := fsmConfig()
	cfg.ProcDelayMin = 400 * time.Millisecond
	cfg.ProcDelayMax = 500 * time.Millisecond
	sched := des.NewScheduler()
	g := topology.Chain(2)
	net := netsim.New(sched, g, netsim.DefaultLinkDelay)
	rng := des.NewRNG(9)
	sp0, err := NewSpeaker(0, sched, net, cfg, rng, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSpeaker(1, sched, net, cfg, rng, nil); err != nil {
		t.Fatal(err)
	}
	// Both Opens leave at t=0 and arrive at t=2ms; acks arrive at 4ms.
	// With processing delays of 400ms+, establishment before 10ms proves
	// the bypass.
	sched.RunUntil(10 * time.Millisecond)
	if !sp0.PeerEstablished(1) {
		t.Errorf("session not established at t=10ms; state=%v (Opens must bypass the route processor)", sp0.SessionState(1))
	}
	sched.Run()
}

// TestSessionOpenByValueMalformed: Opens travel as *Open only. An Open by
// value, or a nil *Open, is counted as malformed and leaves the session
// alone, while the same retransmitted handshake by pointer is re-acked.
func TestSessionOpenByValueMalformed(t *testing.T) {
	s := newSim(t, topology.Chain(2), 0, fsmConfig(), 3)
	sp := s.speakers[0]
	if !sp.PeerEstablished(1) {
		t.Fatalf("session not established: %v", sp.SessionState(1))
	}
	retransmit := Open{Gen: sp.sessions[sp.slot(1)].peerGen}
	before := sp.Stats()
	sp.Deliver(1, retransmit)
	sp.Deliver(1, (*Open)(nil))
	s.sched.RunLimit(1000)
	st := sp.Stats()
	if got := st.MalformedDropped - before.MalformedDropped; got != 2 {
		t.Errorf("MalformedDropped = %d, want 2", got)
	}
	if st.OpensSent != before.OpensSent {
		t.Errorf("a malformed Open was answered: %d Opens sent, was %d", st.OpensSent, before.OpensSent)
	}
	sp.Deliver(1, &retransmit)
	s.sched.RunLimit(1000)
	if st := sp.Stats(); st.OpensSent != before.OpensSent+1 || st.MalformedDropped != before.MalformedDropped+2 {
		t.Errorf("a retransmitted *Open: %d Opens sent, %d malformed; want %d and %d",
			st.OpensSent, st.MalformedDropped, before.OpensSent+1, before.MalformedDropped+2)
	}
	if !sp.PeerEstablished(1) {
		t.Errorf("session not established after the retransmit: %v", sp.SessionState(1))
	}
}

// handshakeSim is an established FSM network over g in which every node
// originates its own prefix, run to quiescence.
type handshakeSim struct {
	sched    *des.Scheduler
	speakers []*Speaker
}

// handshakeBudget bounds the events one delivered Open may cost: a
// restart and the table exchanges it starts, many times over.
const handshakeBudget = 1_000_000

func newHandshakeSim(t *testing.T, g *topology.Graph, seed int64) *handshakeSim {
	t.Helper()
	sched := des.NewScheduler()
	net := netsim.New(sched, g, netsim.DefaultLinkDelay)
	speakers, err := NewSpeakers(sched, net, fsmConfig(), des.NewRNG(seed), nil, g.Nodes())
	if err != nil {
		t.Fatal(err)
	}
	for _, sp := range speakers {
		if err := sp.Originate(sp.ID()); err != nil {
			t.Fatal(err)
		}
	}
	if sched.RunLimit(handshakeBudget) >= handshakeBudget {
		t.Fatal("initial convergence did not quiesce")
	}
	return &handshakeSim{sched: sched, speakers: speakers}
}

// deliver hands o to speaker to as if from had sent it and runs the
// network until it drains.
func (h *handshakeSim) deliver(t *testing.T, to, from topology.Node, o Open) {
	t.Helper()
	h.speakers[to].Deliver(from, &o)
	if h.sched.RunLimit(handshakeBudget) >= handshakeBudget {
		t.Fatalf("%+v from %d to %d: the run did not drain in %d events", o, from, to, handshakeBudget)
	}
}

// ribs lists every speaker's table for every destination: best path, next
// hop and the path received from each peer.
func (h *handshakeSim) ribs() []string {
	var out []string
	for _, sp := range h.speakers {
		for _, d := range h.speakers {
			tab := sp.Table(d.ID())
			line := fmt.Sprintf("%d to %d: best %v via %d;", sp.ID(), d.ID(), tab.Best(), tab.NextHop())
			for _, u := range tab.PeersWithRoutes() {
				p, _ := tab.Received(u)
				line += fmt.Sprintf(" %d:%v", u, p)
			}
			out = append(out, line)
		}
	}
	return out
}

// checkSettled fails unless every session is established at both ends,
// each end holding the generation the other end runs, and the tables are
// want.
func (h *handshakeSim) checkSettled(t *testing.T, want []string) {
	t.Helper()
	for _, sp := range h.speakers {
		for _, u := range sp.nbrs {
			mine, theirs := &sp.sessions[sp.slot(u)], &h.speakers[u].sessions[h.speakers[u].slot(sp.ID())]
			if mine.state != SessionEstablished {
				t.Errorf("node %d: session to %d is %v, want established", sp.ID(), u, mine.state)
			}
			if mine.peerGen != theirs.localGen {
				t.Errorf("node %d holds generation %d of node %d, which runs %d", sp.ID(), mine.peerGen, u, theirs.localGen)
			}
		}
	}
	if got := h.ribs(); !slices.Equal(got, want) {
		t.Errorf("tables differ from the undisturbed run:\n got %q\nwant %q", got, want)
	}
}

// TestSessionOpenSettles: an Open of a new peer generation delivered to an
// established session restarts it once. The peer's answer acks our new
// generation and must re-sync the session, not restart it again, or the
// two ends restart each other forever. An Open older than the generation
// held is stale. Either way the session ends established with the tables
// of an undisturbed run.
func TestSessionOpenSettles(t *testing.T) {
	for _, c := range []struct {
		name  string
		open  Open
		stale bool // ignored: the receiver sends nothing and keeps its session
	}{
		{"new generation", Open{Gen: 99}, false},
		{"older generation", Open{Gen: 0}, true},
	} {
		t.Run(c.name, func(t *testing.T) {
			h := newHandshakeSim(t, topology.Chain(2), 3)
			want, before := h.ribs(), h.speakers[1].Stats()
			h.deliver(t, 1, 0, c.open)
			h.checkSettled(t, want)
			if after := h.speakers[1].Stats(); c.stale && after != before {
				t.Errorf("a stale Open was acted on: stats %+v, were %+v", after, before)
			}
		})
	}
}

// FuzzSessionHandshake delivers a short sequence of Opens with arbitrary
// generations and acks to an established two- or three-node network, each
// after the previous one drained. Every run must drain within the budget
// and end with every session established and the undisturbed tables.
//
// Input: the topology (Chain(2), Chain(3) or a triangle) and the seed, then
// up to eight Opens of three bytes each: the (receiver, sender) pair, Gen
// and Ack.
func FuzzSessionHandshake(f *testing.F) {
	f.Add([]byte{2, 1, 1, 2, 1, 3, 4, 2, 0, 1, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		g := []*topology.Graph{topology.Chain(2), topology.Chain(3), topology.Clique(3)}[int(data[0])%3]
		h := newHandshakeSim(t, g, int64(data[1]))
		want := h.ribs()
		edges := g.Edges()
		for ops, rest := 0, data[2:]; ops < 8 && len(rest) >= 3; ops, rest = ops+1, rest[3:] {
			i := int(rest[0]) % (2 * len(edges))
			to, from := edges[i/2].A, edges[i/2].B
			if i%2 == 1 {
				to, from = from, to
			}
			h.deliver(t, to, from, Open{Gen: uint64(rest[1]), Ack: uint64(rest[2])})
		}
		h.checkSettled(t, want)
	})
}
