package routing

import (
	"slices"
	"testing"
	"testing/quick"

	"bgploop/internal/topology"
)

func newTestTable(self topology.Node) *Table {
	return NewTable(self, 0, ShortestPath{})
}

func TestOriginTable(t *testing.T) {
	tab := NewTable(0, 0, ShortestPath{})
	if !tab.IsOrigin() {
		t.Fatal("origin not recognised")
	}
	if !tab.Best().Equal(p(0)) {
		t.Errorf("origin best = %v, want (0)", tab.Best())
	}
	if tab.NextHop() != 0 {
		t.Errorf("origin next hop = %d, want self", tab.NextHop())
	}
	// Peer updates never change the origin's route.
	if tab.Update(1, p(1, 0)) {
		t.Error("origin best changed on peer update")
	}
}

func TestSelectionShortestThenLowestPeer(t *testing.T) {
	tab := newTestTable(5)
	if !tab.Update(4, p(4, 0)) {
		t.Error("first route should change best")
	}
	if !tab.Best().Equal(p(5, 4, 0)) {
		t.Errorf("best = %v, want (5 4 0)", tab.Best())
	}
	// A longer route through 6 should not displace it.
	if tab.Update(6, p(6, 3, 2, 1, 0)) {
		t.Error("longer route displaced shorter best")
	}
	// An equal-length route through a smaller peer ID wins.
	if !tab.Update(2, p(2, 0)) {
		t.Error("equal-length lower-peer route should win the tie-break")
	}
	if tab.NextHop() != 2 {
		t.Errorf("next hop = %d, want 2", tab.NextHop())
	}
}

func TestPoisonReverse(t *testing.T) {
	tab := newTestTable(4)
	// Paths containing self must never be selected (Figure 1a: node 4
	// discards (6 4 0) and (5 6 4 0)).
	if tab.Update(6, p(6, 4, 0)) {
		t.Error("looped path selected")
	}
	if tab.HasRoute() {
		t.Error("node has route through itself")
	}
	// The raw entry must still be remembered for Assertion.
	if raw, ok := tab.Received(6); !ok || !raw.Equal(p(6, 4, 0)) {
		t.Errorf("raw entry = %v, %v", raw, ok)
	}
	// A clean path is usable.
	if !tab.Update(6, p(6, 3, 0)) {
		t.Error("clean path should become best")
	}
}

func TestWithdrawFallsBackToAlternate(t *testing.T) {
	tab := newTestTable(5)
	tab.Update(4, p(4, 0))
	tab.Update(6, p(6, 4, 0))
	if tab.NextHop() != 4 {
		t.Fatalf("next hop = %d, want 4", tab.NextHop())
	}
	// Withdrawing the best forces the saved alternate — the paper's core
	// loop-forming behaviour: 5 switches to the obsolete (6 4 0).
	if !tab.Withdraw(4) {
		t.Error("withdraw of best should change best")
	}
	if !tab.Best().Equal(p(5, 6, 4, 0)) {
		t.Errorf("best after withdraw = %v, want (5 6 4 0)", tab.Best())
	}
	if !tab.Withdraw(6) {
		t.Error("withdrawing last route should change best")
	}
	if tab.HasRoute() {
		t.Error("route survives all withdrawals")
	}
	if tab.NextHop() != topology.None {
		t.Errorf("next hop = %d, want None", tab.NextHop())
	}
}

func TestWithdrawIdempotent(t *testing.T) {
	tab := newTestTable(5)
	tab.Update(4, p(4, 0))
	tab.Withdraw(4)
	if tab.Withdraw(4) {
		t.Error("second withdraw reported change")
	}
}

func TestRemovePeer(t *testing.T) {
	tab := newTestTable(5)
	tab.Update(4, p(4, 0))
	tab.Update(6, p(6, 1, 0))
	if !tab.RemovePeer(4) {
		t.Error("removing best peer should change best")
	}
	if _, ok := tab.Received(4); ok {
		t.Error("peer state survives RemovePeer")
	}
	if tab.RemovePeer(4) {
		t.Error("second RemovePeer reported change")
	}
	if tab.NextHop() != 6 {
		t.Errorf("next hop = %d, want 6", tab.NextHop())
	}
}

func TestUpdateSamePathNoChange(t *testing.T) {
	tab := newTestTable(5)
	tab.Update(4, p(4, 0))
	if tab.Update(4, p(4, 0)) {
		t.Error("re-announcing identical path reported change")
	}
}

func TestPeersWithRoutes(t *testing.T) {
	tab := newTestTable(5)
	tab.Update(6, p(6, 0))
	tab.Update(4, p(4, 0))
	tab.Update(3, nil)
	got := tab.PeersWithRoutes()
	if len(got) != 2 || got[0] != 4 || got[1] != 6 {
		t.Errorf("PeersWithRoutes = %v, want [4 6]", got)
	}
}

func TestInvalidate(t *testing.T) {
	tab := newTestTable(5)
	tab.Update(4, p(4, 0))
	tab.Update(6, p(6, 4, 2, 0))
	// Invalidate every path through node 4 — the Assertion reaction to a
	// withdrawal from 4.
	changed := tab.Invalidate(func(peer topology.Node, path Path) bool {
		return !path.Contains(4)
	})
	if !changed {
		t.Error("invalidation of best should report change")
	}
	if tab.HasRoute() {
		t.Error("route survived invalidation")
	}
	// Entries are cleared, not forgotten.
	if raw, ok := tab.Received(6); !ok || raw != nil {
		t.Errorf("invalidated entry = %v, %v; want nil, true", raw, ok)
	}
	// Invalidating again changes nothing.
	if tab.Invalidate(func(topology.Node, Path) bool { return false }) {
		t.Error("second invalidation reported change")
	}
}

func TestBestIsSelfPrefixed(t *testing.T) {
	tab := newTestTable(7)
	tab.Update(2, p(2, 1, 0))
	best := tab.Best()
	if best.First() != 7 {
		t.Errorf("best %v does not start with self", best)
	}
	if best.Origin() != 0 {
		t.Errorf("best %v does not end at origin", best)
	}
}

// TestUpdateSharesInput: a slot keeps the announced slice itself, not a
// copy, and the best path is that slice with self in front.
func TestUpdateSharesInput(t *testing.T) {
	tab := newTestTable(5)
	path := p(4, 0)
	tab.Update(4, path)
	raw, ok := tab.Received(4)
	if !ok || len(raw) != len(path) || &raw[0] != &path[0] {
		t.Fatalf("Received(4) = %v, %v: not the announced slice", raw, ok)
	}
	if !tab.Best()[1:].Equal(path) {
		t.Errorf("best %v, want (5) in front of %v", tab.Best(), path)
	}
}

// TestPropertyNeverSelectsLoopedPath feeds random route mixes and checks
// the poison-reverse invariant: the selected best never contains self
// twice (i.e. the neighbor-announced part never contains self).
func TestPropertyNeverSelectsLoopedPath(t *testing.T) {
	f := func(routes [][]uint8) bool {
		const self = topology.Node(3)
		tab := NewTable(self, 0, ShortestPath{})
		for i, r := range routes {
			peer := topology.Node(i%7) + 1
			path := make(Path, 0, len(r)+1)
			for _, n := range r {
				path = append(path, topology.Node(n%10))
			}
			path = append(path, 0) // make it end at the origin
			tab.Update(peer, path)
			best := tab.Best()
			if best == nil {
				continue
			}
			if best[0] != self {
				return false
			}
			// Self must appear exactly once (the prepended head).
			count := 0
			for _, v := range best {
				if v == self {
					count++
				}
			}
			if count != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestPropertySelectIsMinimal checks that Select returns a candidate no
// worse than every loop-free candidate under the policy.
func TestPropertySelectIsMinimal(t *testing.T) {
	f := func(lens []uint8) bool {
		const self = topology.Node(99)
		pol := ShortestPath{}
		var cands []Candidate
		for i, l := range lens {
			plen := int(l%6) + 1
			path := make(Path, plen)
			peer := topology.Node(i + 1)
			path[0] = peer
			for j := 1; j < plen; j++ {
				path[j] = topology.Node(1000 + i*10 + j)
			}
			cands = append(cands, Candidate{Peer: peer, Path: path})
		}
		best, ok := Select(pol, self, cands)
		if !ok {
			return len(cands) == 0
		}
		for _, c := range cands {
			if pol.Better(c, best) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestTableAccessors(t *testing.T) {
	tab := NewTable(5, 0, ShortestPath{})
	if tab.Self() != 5 || tab.Dest() != 0 {
		t.Errorf("Self/Dest = %d/%d", tab.Self(), tab.Dest())
	}
}

// TestTableInitKeepsToItsSlots: a table living by value takes its
// adj-RIB-in slots from the storage Init gives it, and a slot past that
// storage's capacity moves the adj-RIB-in rather than writing beyond it.
func TestTableInitKeepsToItsSlots(t *testing.T) {
	slab := make([]Candidate, 4)
	var tab Table
	tab.Init(5, 0, ShortestPath{}, slab[0:0:2], nil)
	if tab.Self() != 5 || tab.Dest() != 0 || tab.HasRoute() || tab.NextHop() != topology.None {
		t.Fatalf("fresh table: self %d dest %d route %v next hop %d", tab.Self(), tab.Dest(), tab.HasRoute(), tab.NextHop())
	}
	tab.Update(3, Path{3, 0})
	tab.Update(1, Path{1, 2, 0})
	if slab[0].Peer != 1 || slab[1].Peer != 3 {
		t.Fatalf("slots %v, want peers 1 and 3 in the given storage", slab[:2])
	}
	tab.Update(2, Path{2, 0})
	if slab[2].Peer != 0 || slab[2].Path != nil || slab[3].Peer != 0 {
		t.Fatalf("a third peer wrote past the table's storage: %v", slab)
	}
	if got := tab.PeersWithRoutes(); !slices.Equal(got, []topology.Node{1, 2, 3}) {
		t.Fatalf("peers with routes %v, want [1 2 3]", got)
	}
	if !tab.Best().Equal(Path{5, 2, 0}) {
		t.Fatalf("best %v, want (5 2 0)", tab.Best())
	}
	var origin Table
	origin.Init(4, 4, ShortestPath{}, nil, new(Arena))
	if !origin.Best().Equal(Path{4}) || origin.NextHop() != 4 {
		t.Fatalf("origin's best %v via %d, want (4) via itself", origin.Best(), origin.NextHop())
	}
}
