package bgp

import (
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
