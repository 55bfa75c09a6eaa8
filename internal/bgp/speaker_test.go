package bgp

import (
	"fmt"
	"math"
	"slices"
	"testing"
	"time"

	"bgploop/internal/des"
	"bgploop/internal/routing"
	"bgploop/internal/topology"
)

func TestChainPropagation(t *testing.T) {
	s := newSim(t, topology.Chain(4), 0, fastConfig(), 1)
	wants := map[topology.Node]string{
		0: "(0)",
		1: "(1 0)",
		2: "(2 1 0)",
		3: "(3 2 1 0)",
	}
	for v, want := range wants {
		if got := s.best(v).String(); got != want {
			t.Errorf("node %d best = %s, want %s", v, got, want)
		}
	}
}

func TestCliqueInitialConvergence(t *testing.T) {
	s := newSim(t, topology.Clique(6), 0, fastConfig(), 2)
	for v := topology.Node(1); v < 6; v++ {
		tab := s.speakers[v].Table(0)
		if tab.NextHop() != 0 {
			t.Errorf("node %d next hop = %d, want 0 (direct)", v, tab.NextHop())
		}
		if tab.Best().Len() != 2 {
			t.Errorf("node %d best = %v, want direct 2-hop path", v, tab.Best())
		}
	}
}

func TestOriginateWrongNode(t *testing.T) {
	s := newSim(t, topology.Chain(2), 0, fastConfig(), 1)
	if err := s.speakers[1].Originate(0); err == nil {
		t.Error("node 1 originated destination 0")
	}
}

func TestFigure1InitialState(t *testing.T) {
	s := newSim(t, topology.Figure1(), 0, fastConfig(), 3)
	// Figure 1(a): 4 uses the direct link; 5 and 6 forward through 4.
	if got := s.best(4).String(); got != "(4 0)" {
		t.Errorf("node 4 best = %s, want (4 0)", got)
	}
	if got := s.best(5).String(); got != "(5 4 0)" {
		t.Errorf("node 5 best = %s, want (5 4 0)", got)
	}
	if got := s.best(6).String(); got != "(6 4 0)" {
		t.Errorf("node 6 best = %s, want (6 4 0)", got)
	}
	// 5 keeps 6's path in its adj-RIB-in (the future ghost).
	if raw, ok := s.speakers[5].Table(0).Received(6); !ok || raw.String() != "(6 4 0)" {
		t.Errorf("node 5 adj-RIB-in from 6 = %v, %v", raw, ok)
	}
}

func TestFigure1TransientLoopAndResolution(t *testing.T) {
	s := newSim(t, topology.Figure1(), 0, fastConfig(), 3)
	failAt := s.failLink(t, 4, 0)

	// Final state must be loop-free shortest paths over the backup chain.
	if got := s.best(6).String(); got != "(6 3 2 1 0)" {
		t.Errorf("node 6 final best = %s, want (6 3 2 1 0)", got)
	}
	if got := s.best(5).String(); got != "(5 6 3 2 1 0)" {
		t.Errorf("node 5 final best = %s, want (5 6 3 2 1 0)", got)
	}
	if got := s.best(4).String(); got != "(4 6 3 2 1 0)" {
		t.Errorf("node 4 final best = %s, want (4 6 3 2 1 0)", got)
	}

	// Figure 1(b): immediately after the failure, 5 and 6 must have
	// pointed at each other — the transient 2-node loop. Scan the FIB
	// history for an instant where both held.
	loopSeen := false
	for _, r := range s.obs.fib {
		if r.at < failAt {
			continue
		}
		if s.obs.nextHopAt(5, r.at) == 6 && s.obs.nextHopAt(6, r.at) == 5 {
			loopSeen = true
			break
		}
	}
	if !loopSeen {
		t.Error("the canonical 5<->6 transient loop never formed")
	}
}

func TestTDownCliqueEndsUnreachable(t *testing.T) {
	s := newSim(t, topology.Clique(5), 0, fastConfig(), 4)
	s.failNode(t, 0)
	for v := topology.Node(1); v < 5; v++ {
		if s.speakers[v].Table(0).HasRoute() {
			t.Errorf("node %d still has a route after T_down: %v", v, s.best(v))
		}
	}
	// Footnote 2: the final update in T_down is a withdrawal.
	last := s.obs.sent[len(s.obs.sent)-1]
	if !last.update.Withdraw {
		t.Errorf("final T_down update = %v, want a withdrawal", last.update)
	}
}

func TestTDownPathExplorationHappens(t *testing.T) {
	// In a clique T_down, nodes must explore obsolete paths through each
	// other before giving up — the root cause of the transient loops.
	s := newSim(t, topology.Clique(5), 0, fastConfig(), 5)
	before := s.totals().BestChanges
	s.failNode(t, 0)
	after := s.totals().BestChanges
	// 4 surviving nodes, each must at least switch to a ghost path and
	// then to unreachable: > 2 changes each on average.
	if after-before < 8 {
		t.Errorf("only %d best changes during T_down; expected path exploration", after-before)
	}
}

func TestMRAISpacing(t *testing.T) {
	// Announcements from one node to one peer must be spaced by at least
	// JitterMin*MRAI; withdrawals are exempt (no WRATE).
	cfg := DefaultConfig()
	s := newSim(t, topology.Clique(6), 0, cfg, 6)
	s.failNode(t, 0)
	minGap := time.Duration(float64(cfg.MRAI) * cfg.JitterMin)
	last := make(map[[2]topology.Node]des.Time)
	seen := make(map[[2]topology.Node]bool)
	for _, r := range s.obs.sent {
		if r.update.Withdraw {
			continue
		}
		key := [2]topology.Node{r.from, r.to}
		if seen[key] {
			if gap := r.at - last[key]; gap < minGap-time.Millisecond {
				t.Fatalf("announcements %d->%d spaced %v apart, want >= %v", r.from, r.to, gap, minGap)
			}
		}
		last[key] = r.at
		seen[key] = true
	}
}

func TestWithdrawalsBypassMRAI(t *testing.T) {
	// Standard BGP: a withdrawal may follow an announcement immediately.
	s := newSim(t, topology.Figure1(), 0, fastConfig(), 7)
	s.failLink(t, 4, 0)
	bypassed := false
	lastSent := make(map[[2]topology.Node]des.Time)
	for _, r := range s.obs.sent {
		key := [2]topology.Node{r.from, r.to}
		if prev, ok := lastSent[key]; ok && r.update.Withdraw {
			if r.at-prev < DefaultMRAI/2 {
				bypassed = true
			}
		}
		lastSent[key] = r.at
	}
	if !bypassed {
		t.Error("no withdrawal was ever sent inside the MRAI window")
	}
}

func TestWRATEDelaysWithdrawals(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Enhancements.WRATE = true
	s := newSim(t, topology.Clique(6), 0, cfg, 8)
	s.failNode(t, 0)
	minGap := time.Duration(float64(cfg.MRAI) * cfg.JitterMin)
	last := make(map[[2]topology.Node]des.Time)
	seen := make(map[[2]topology.Node]bool)
	for _, r := range s.obs.sent {
		key := [2]topology.Node{r.from, r.to}
		if seen[key] {
			if gap := r.at - last[key]; gap < minGap-time.Millisecond {
				t.Fatalf("WRATE: updates %d->%d spaced %v apart, want >= %v (update %v)",
					r.from, r.to, gap, minGap, r.update)
			}
		}
		last[key] = r.at
		seen[key] = true
	}
}

func TestSSLDConvertsToWithdrawal(t *testing.T) {
	cfg := fastConfig()
	cfg.Enhancements.SSLD = true
	s := newSim(t, topology.Figure1(), 0, cfg, 9)
	s.failLink(t, 4, 0)
	if got := s.totals().SSLDConversions; got == 0 {
		t.Error("SSLD never converted an announcement to a withdrawal")
	}
	// SSLD must never deliver a path containing its receiver.
	for _, r := range s.obs.sent {
		if !r.update.Withdraw && r.update.Path.Contains(r.to) {
			t.Errorf("SSLD sent %v to %d, which the receiver must discard", r.update, r.to)
		}
	}
	// Final routes are unaffected.
	if got := s.best(5).String(); got != "(5 6 3 2 1 0)" {
		t.Errorf("node 5 final best = %s", got)
	}
}

// TestSSLDSenderASPathLoopDetection ports FRR's
// sender-as-path-loop-detection topotest: three routers, sessions r1-r2
// and r2-r3, where the neighbour originating the prefix prepends another
// router's AS to its announcement. Here r3 prepends r1. r2 still takes the
// path, but with SSLD it must not announce to r1 a path that contains r1:
// it withdraws the path it had announced instead, and counts one
// conversion. Standard BGP announces the looped path and converts nothing.
func TestSSLDSenderASPathLoopDetection(t *testing.T) {
	const r1, r2, r3 topology.Node = 0, 1, 2
	run := func(ssld bool) (*sim, des.Time) {
		g := topology.New(3)
		for _, e := range []topology.Edge{{A: r1, B: r2}, {A: r2, B: r3}} {
			if err := g.AddEdge(e.A, e.B); err != nil {
				t.Fatal(err)
			}
		}
		cfg := fastConfig()
		cfg.Enhancements.SSLD = ssld
		s := newSim(t, g, r3, cfg, 13)
		if got := s.best(r1).String(); got != "(0 1 2)" {
			t.Fatalf("r1 converged to %s, want (0 1 2)", got)
		}
		at := s.sched.Now() + time.Second
		if err := s.net.At(at, func() {
			s.speakers[r2].Deliver(r3, &Update{Dest: r3, Path: pathOf(r3, r1)})
		}); err != nil {
			t.Fatal(err)
		}
		if s.sched.RunLimit(5_000_000) >= 5_000_000 {
			t.Fatal("did not quiesce after the prepended announcement")
		}
		if got := s.best(r2).String(); got != "(1 2 0)" {
			t.Errorf("ssld=%v: r2 best %s, want the prepended path (1 2 0)", ssld, got)
		}
		return s, at
	}

	s, at := run(true)
	var toR1 []Update
	for _, r := range s.obs.sent {
		if r.at >= at && r.from == r2 && r.to == r1 {
			toR1 = append(toR1, r.update)
		}
	}
	if len(toR1) != 1 || !toR1[0].Withdraw {
		t.Errorf("SSLD: r2 sent r1 %v after the prepended announcement, want one withdrawal", toR1)
	}
	if got := s.speakers[r2].Stats().SSLDConversions; got != 1 {
		t.Errorf("SSLD: r2 counted %d conversions, want 1", got)
	}
	if got := s.best(r1); got != nil {
		t.Errorf("SSLD: r1 kept %s, want no route", got)
	}

	s, at = run(false)
	announced := false
	for _, r := range s.obs.sent {
		announced = announced || (r.at >= at && r.from == r2 && r.to == r1 && !r.update.Withdraw && r.update.Path.Contains(r1))
	}
	if !announced {
		t.Error("standard BGP: r2 never announced the looped path to r1; the fixture does not exercise SSLD")
	}
	if got := s.totals().SSLDConversions; got != 0 {
		t.Errorf("standard BGP counted %d SSLD conversions", got)
	}
}

func TestAssertionRemovesObsoletePaths(t *testing.T) {
	cfg := fastConfig()
	cfg.Enhancements.Assertion = true
	s := newSim(t, topology.Figure1(), 0, cfg, 10)
	s.failLink(t, 4, 0)
	if got := s.totals().AssertionInvalidations; got == 0 {
		t.Error("Assertion never invalidated a path")
	}
	if got := s.best(5).String(); got != "(5 6 3 2 1 0)" {
		t.Errorf("node 5 final best = %s", got)
	}
}

func TestAssertionCliqueTDownFastConvergence(t *testing.T) {
	// In a clique every node is directly connected to the origin, so
	// Assertion converges T_down almost immediately: the PeerDown plus
	// first withdrawals kill all ghost paths (§5: "all other nodes are
	// directly connected to node 0, and thus can achieve immediate
	// convergence").
	run := func(e Enhancements) des.Time {
		cfg := DefaultConfig()
		cfg.Enhancements = e
		s := newSim(t, topology.Clique(8), 0, cfg, 11)
		at := s.failNode(t, 0)
		return s.lastUpdateSent() - at
	}
	std := run(Enhancements{})
	asrt := run(Enhancements{Assertion: true})
	if asrt >= std {
		t.Errorf("Assertion T_down convergence %v not faster than standard %v", asrt, std)
	}
	if asrt > 10*time.Second {
		t.Errorf("Assertion clique T_down convergence = %v, want near-immediate", asrt)
	}
}

func TestGhostFlushingFlushes(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Enhancements.GhostFlushing = true
	s := newSim(t, topology.Clique(6), 0, cfg, 12)
	s.failNode(t, 0)
	if got := s.totals().GhostFlushes; got == 0 {
		t.Error("Ghost Flushing never flushed")
	}
}

func TestGhostFlushingSpeedsCliqueTDown(t *testing.T) {
	run := func(e Enhancements) des.Time {
		cfg := DefaultConfig()
		cfg.Enhancements = e
		s := newSim(t, topology.Clique(8), 0, cfg, 13)
		at := s.failNode(t, 0)
		return s.lastUpdateSent() - at
	}
	std := run(Enhancements{})
	gf := run(Enhancements{GhostFlushing: true})
	if gf >= std {
		t.Errorf("Ghost Flushing T_down convergence %v not faster than standard %v", gf, std)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() (Stats, des.Time) {
		s := newSim(t, topology.Clique(6), 0, DefaultConfig(), 42)
		s.failNode(t, 0)
		return s.totals(), s.lastUpdateSent()
	}
	s1, t1 := run()
	s2, t2 := run()
	if s1 != s2 || t1 != t2 {
		t.Errorf("same seed diverged:\n%+v @ %v\n%+v @ %v", s1, t1, s2, t2)
	}
}

func TestSeedMatters(t *testing.T) {
	run := func(seed int64) des.Time {
		s := newSim(t, topology.Clique(6), 0, DefaultConfig(), seed)
		s.failNode(t, 0)
		return s.lastUpdateSent()
	}
	if run(1) == run(2) {
		// Not impossible, but with jitter and processing randomness it is
		// astronomically unlikely.
		t.Error("different seeds produced identical convergence instants")
	}
}

func TestMalformedUpdateDropped(t *testing.T) {
	s := newSim(t, topology.Chain(2), 0, fastConfig(), 14)
	sp := s.speakers[1]
	before := sp.Stats().MalformedDropped
	tbl := sp.Table(0)
	best := tbl.Best().Clone()
	received, _ := tbl.Received(0)
	received = received.Clone()
	// A path not starting with the sender.
	sp.Deliver(0, &Update{Dest: 0, Path: pathOf(9, 0)})
	// A non-Update payload.
	sp.Deliver(0, "garbage")
	// An Update by value: routes travel as *Update only.
	sp.Deliver(0, Update{Dest: 0, Path: pathOf(0)})
	// A path that starts with the sender but repeats an AS.
	sp.Deliver(0, &Update{Dest: 0, Path: pathOf(0, 5, 0)})
	// A simple path that names a node past the graph.
	sp.Deliver(0, &Update{Dest: 0, Path: pathOf(0, 2)})
	s.sched.Run()
	if got := sp.Stats().MalformedDropped - before; got != 5 {
		t.Errorf("MalformedDropped = %d, want 5", got)
	}
	if got, _ := tbl.Received(0); !got.Equal(received) || !tbl.Best().Equal(best) {
		t.Errorf("table changed: received %v best %v, want %v and %v", got, tbl.Best(), received, best)
	}
}

// simpleOracle is the all-pairs scan the stamp check replaced, with the
// range check beside it: every id a node of an n-node graph, none twice.
func simpleOracle(p routing.Path, n int) bool {
	for i, a := range p {
		if a < 0 || int(a) >= n {
			return false
		}
		for _, b := range p[:i] {
			if a == b {
				return false
			}
		}
	}
	return true
}

// simpleCase replays data against one group's stamp check and the oracle
// and describes the first disagreement, or returns "". data[0] picks the
// node count, data[1] starts the generation within three checks of its
// wrap, and the rest is paths separated by 0xfe. A path byte maps onto
// every node, -1, n and MaxNode.
func simpleCase(data []byte) string {
	if len(data) < 2 {
		return ""
	}
	n := 1 + int(data[0]%16)
	g := &group{stamp: make([]uint32, n), gen: math.MaxUint32 - uint32(data[1]%4)}
	for i := range g.stamp {
		g.stamp[i] = uint32(i) % 3 // stale stamps from before the wrap
	}
	var p routing.Path
	check := func() string {
		if got, want := g.simple(p, n), simpleOracle(p, n); got != want {
			return fmt.Sprintf("n %d, generation %d: simple(%v) = %v, oracle %v", n, g.gen, p, got, want)
		}
		p = nil
		return ""
	}
	for _, b := range data[2:] {
		if b == 0xfe {
			if diff := check(); diff != "" {
				return diff
			}
			continue
		}
		switch v := int(b) % (n + 3); v {
		case n:
			p = append(p, topology.None)
		case n + 1:
			p = append(p, topology.Node(n))
		case n + 2:
			p = append(p, topology.MaxNode)
		default:
			p = append(p, topology.Node(v))
		}
	}
	return check()
}

func TestSimpleMatchesOracle(t *testing.T) {
	for _, data := range [][]byte{
		{3, 0, 0, 1, 2, 3},                   // every node of 4, over stale stamps
		{3, 1, 0, 1, 0},                      // a repeat
		{3, 1, 0, 4},                         // -1
		{3, 1, 1, 5, 0},                      // n
		{3, 1, 6},                            // MaxNode
		{3, 2, 1, 2, 0xfe, 1, 2, 0xfe, 2, 1}, // one path on both sides of the wrap
		{3, 3, 0xfe, 0xfe, 0xfe, 0xfe, 3, 2, 1, 0xfe, 1, 1},
	} {
		if diff := simpleCase(data); diff != "" {
			t.Errorf("case %v: %s", data, diff)
		}
	}
}

// TestSimpleAcrossWrap starts the generation at its last value: the next
// check wraps it, and a stamp left from an old generation 1 must not read
// as the node being on the path already.
func TestSimpleAcrossWrap(t *testing.T) {
	g := &group{stamp: []uint32{0, 1, 1, 0}, gen: math.MaxUint32}
	if !g.simple(pathOf(1, 2, 0), 4) {
		t.Fatal("a simple path is refused across the wrap")
	}
	if g.gen != 1 || !slices.Equal(g.stamp, []uint32{1, 1, 1, 0}) {
		t.Fatalf("after the wrap: generation %d, stamps %v; want 1, [1 1 1 0]", g.gen, g.stamp)
	}
	if g.simple(pathOf(3, 1, 3), 4) || !g.simple(pathOf(3, 1), 4) {
		t.Fatal("checks after the wrap disagree with the oracle")
	}
}

func FuzzSimpleMatchesOracle(f *testing.F) {
	f.Add([]byte{3, 0, 0, 1, 2, 3})
	f.Add([]byte{9, 3, 0, 1, 0xfe, 2, 2, 0xfe, 9, 10, 11, 0xfe, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		if diff := simpleCase(data); diff != "" {
			t.Fatal(diff)
		}
	})
}

func TestProcessingDelayIsSerial(t *testing.T) {
	// Two updates delivered back-to-back must be processed at least
	// ProcDelayMin apart: the second waits for the first.
	cfg := fastConfig()
	s := newSim(t, topology.Chain(3), 0, cfg, 15)
	sp := s.speakers[1]
	start := s.sched.Now()
	sp.Deliver(0, &Update{Dest: 0, Path: pathOf(0)})
	sp.Deliver(2, &Update{Dest: 0, Withdraw: true})
	busy := sp.busyUntil
	if busy-start < 2*cfg.ProcDelayMin {
		t.Errorf("two queued messages busy for %v, want >= %v", busy-start, 2*cfg.ProcDelayMin)
	}
	s.sched.Run()
}

func TestZeroMRAIDisablesTimer(t *testing.T) {
	cfg := fastConfig()
	cfg.MRAI = 0
	s := newSim(t, topology.Clique(5), 0, cfg, 16)
	at := s.failNode(t, 0)
	// Without MRAI, convergence is bounded by processing and propagation
	// only: well under a second per exploration round, a few seconds in
	// total for n=5.
	conv := s.lastUpdateSent() - at
	if conv > 30*time.Second {
		t.Errorf("MRAI-free convergence took %v", conv)
	}
}

func TestPeerDownCancelsTimers(t *testing.T) {
	s := newSim(t, topology.Chain(2), 0, fastConfig(), 17)
	s.failLink(t, 0, 1)
	if got := s.speakers[1].Peers(); len(got) != 0 {
		t.Errorf("node 1 peers after failure = %v", got)
	}
	if s.speakers[1].Table(0).HasRoute() {
		t.Error("node 1 kept a route through a dead session")
	}
}

func TestTableUnknownDest(t *testing.T) {
	s := newSim(t, topology.Chain(2), 0, fastConfig(), 18)
	if s.speakers[1].Table(99) != nil {
		t.Error("Table(unknown) != nil")
	}
}
