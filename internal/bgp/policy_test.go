package bgp

import (
	"testing"

	"bgploop/internal/routing"
	"bgploop/internal/topology"
)

// policySim builds a Gao-Rexford-configured simulation over an annotated
// Internet-like topology.
func policySim(t *testing.T, n int, seed int64) (*sim, *topology.Relationships, topology.Node) {
	t.Helper()
	g, err := topology.InternetLike(n, seed)
	if err != nil {
		t.Fatal(err)
	}
	rels := topology.InternetRelations(g)
	if err := rels.Validate(g); err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.PolicyFor = func(self topology.Node) routing.Policy {
		return routing.GaoRexford{Self: self, Rel: rels}
	}
	cfg.Export = GaoRexfordExport{Rel: rels}
	dest := topology.LowestDegreeNodes(g)[0]
	return newSim(t, g, dest, cfg, seed), rels, dest
}

func TestGaoRexfordConvergesAndReaches(t *testing.T) {
	s, _, dest := policySim(t, 24, 7)
	// Under Gao-Rexford a stub destination is reachable from everyone:
	// its provider learns a customer route and exports it upward.
	for _, v := range s.net.Graph().Nodes() {
		if v == dest {
			continue
		}
		if s.best(v) == nil {
			t.Errorf("node %d has no route to stub destination %d under Gao-Rexford", v, dest)
		}
	}
}

func TestGaoRexfordPathsAreValleyFree(t *testing.T) {
	s, rels, dest := policySim(t, 24, 8)
	for _, v := range s.net.Graph().Nodes() {
		if v == dest {
			continue
		}
		best := s.best(v)
		if best == nil {
			t.Errorf("node %d unreachable", v)
			continue
		}
		if !rels.ValleyFree(best) {
			t.Errorf("node %d selected non-valley-free path %v", v, best)
		}
	}
}

func TestGaoRexfordSteadyStateLoopFree(t *testing.T) {
	s, _, dest := policySim(t, 30, 9)
	g := s.net.Graph()
	for _, v := range g.Nodes() {
		pos := v
		for hops := 0; pos != dest; hops++ {
			if hops > g.NumNodes() {
				t.Fatalf("forwarding loop from node %d under Gao-Rexford", v)
			}
			tab := s.speakers[pos].Table(dest)
			if tab == nil || !tab.HasRoute() {
				t.Fatalf("node %d on path from %d has no route", pos, v)
			}
			pos = tab.NextHop()
		}
	}
}

func TestGaoRexfordSurvivesTLong(t *testing.T) {
	s, rels, dest := policySim(t, 24, 10)
	g := s.net.Graph()
	// Fail a non-bridge link incident to the destination if it has one;
	// otherwise any non-bridge link.
	var link topology.Edge
	found := false
	for _, e := range topology.NonBridgeIncidentEdges(g, dest) {
		link, found = e, true
		break
	}
	if !found {
		for _, e := range g.Edges() {
			if g.ConnectedWithout(e) {
				link, found = e, true
				break
			}
		}
	}
	if !found {
		t.Skip("no failable link in generated topology")
	}
	s.failLink(t, link.A, link.B)
	// Post-failure: still converged (quiesced), all selected paths
	// valley-free, forwarding loop-free. Note reachability may shrink
	// legitimately: policy can forbid the only physical detour.
	for _, v := range g.Nodes() {
		if v == dest {
			continue
		}
		best := s.best(v)
		if best == nil {
			continue
		}
		if !rels.ValleyFree(best) {
			t.Errorf("node %d post-failure path %v not valley-free", v, best)
		}
	}
}

func TestGaoRexfordPolicyRanking(t *testing.T) {
	rels := topology.NewRelationships()
	rels.SetProviderCustomer(1, 9) // 9 is 1's... wait: provider=1, customer=9
	rels.SetPeers(1, 2)
	rels.SetProviderCustomer(3, 1) // 3 is 1's provider
	pol := routing.GaoRexford{Self: 1, Rel: rels}

	customer := routing.Candidate{Peer: 9, Path: routing.Path{9, 8, 7, 0}} // long customer route
	peer := routing.Candidate{Peer: 2, Path: routing.Path{2, 0}}           // short peer route
	provider := routing.Candidate{Peer: 3, Path: routing.Path{3, 0}}       // short provider route

	if !pol.Better(customer, peer) {
		t.Error("customer route must beat shorter peer route")
	}
	if !pol.Better(peer, provider) {
		t.Error("peer route must beat provider route")
	}
	if !pol.Better(customer, provider) {
		t.Error("customer route must beat provider route")
	}
	// Same class: shortest path wins.
	c2 := routing.Candidate{Peer: 9, Path: routing.Path{9, 0}}
	rels.SetProviderCustomer(1, 5)
	c3 := routing.Candidate{Peer: 5, Path: routing.Path{5, 4, 0}}
	if !pol.Better(c2, c3) {
		t.Error("shorter customer route must beat longer customer route")
	}
}

func TestGaoRexfordExportRules(t *testing.T) {
	rels := topology.NewRelationships()
	// Node 1's neighbors: 9 customer, 2 peer, 3 provider.
	rels.SetProviderCustomer(1, 9)
	rels.SetPeers(1, 2)
	rels.SetProviderCustomer(3, 1)
	e := GaoRexfordExport{Rel: rels}

	tests := []struct {
		name            string
		learnedFrom, to topology.Node
		want            bool
	}{
		{"self-originated to provider", topology.None, 3, true},
		{"self-originated to peer", topology.None, 2, true},
		{"customer route to provider", 9, 3, true},
		{"customer route to peer", 9, 2, true},
		{"peer route to customer", 2, 9, true},
		{"peer route to provider", 2, 3, false},
		{"provider route to peer", 3, 2, false},
		{"provider route to customer", 3, 9, true},
	}
	for _, tt := range tests {
		if got := e.ShouldExport(1, tt.learnedFrom, tt.to); got != tt.want {
			t.Errorf("%s: ShouldExport = %v, want %v", tt.name, got, tt.want)
		}
	}
}
