package topology

import "testing"

func TestRelationshipsKind(t *testing.T) {
	r := NewRelationships()
	r.SetProviderCustomer(1, 5) // 1 provides transit to 5
	r.SetPeers(2, 3)

	if got := r.Kind(1, 5); got != RelCustomer {
		t.Errorf("Kind(1,5) = %v, want customer", got)
	}
	if got := r.Kind(5, 1); got != RelProvider {
		t.Errorf("Kind(5,1) = %v, want provider", got)
	}
	if got := r.Kind(2, 3); got != RelPeer {
		t.Errorf("Kind(2,3) = %v, want peer", got)
	}
	if got := r.Kind(3, 2); got != RelPeer {
		t.Errorf("Kind(3,2) = %v, want peer", got)
	}
	if got := r.Kind(7, 8); got != RelNone {
		t.Errorf("Kind(unannotated) = %v, want none", got)
	}
}

func TestRelationshipsKindOrderIndependent(t *testing.T) {
	// Setting provider->customer with provider having the larger ID must
	// still read back correctly.
	r := NewRelationships()
	r.SetProviderCustomer(9, 2)
	if got := r.Kind(9, 2); got != RelCustomer {
		t.Errorf("Kind(9,2) = %v, want customer", got)
	}
	if got := r.Kind(2, 9); got != RelProvider {
		t.Errorf("Kind(2,9) = %v, want provider", got)
	}
}

func TestRelStrings(t *testing.T) {
	for r, want := range map[Rel]string{
		RelNone: "none", RelCustomer: "customer", RelPeer: "peer", RelProvider: "provider",
	} {
		if r.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(r), r.String(), want)
		}
	}
}

func TestValidateDetectsMissing(t *testing.T) {
	g := Chain(3)
	r := NewRelationships()
	r.SetProviderCustomer(0, 1)
	if err := r.Validate(g); err == nil {
		t.Error("missing annotation accepted")
	}
	r.SetProviderCustomer(1, 2)
	if err := r.Validate(g); err != nil {
		t.Errorf("complete annotation rejected: %v", err)
	}
}

func TestValidateDetectsCycle(t *testing.T) {
	g := Ring(3)
	r := NewRelationships()
	r.SetProviderCustomer(0, 1)
	r.SetProviderCustomer(1, 2)
	r.SetProviderCustomer(2, 0) // cycle!
	if err := r.Validate(g); err == nil {
		t.Error("customer-provider cycle accepted")
	}
}

func TestValleyFree(t *testing.T) {
	// 0 (core) -- 1 (mid) -- 3 (stub); 0 -- 2 (mid); 1 -- 2 peers.
	r := NewRelationships()
	r.SetProviderCustomer(0, 1)
	r.SetProviderCustomer(0, 2)
	r.SetProviderCustomer(1, 3)
	r.SetPeers(1, 2)

	tests := []struct {
		path []Node
		want bool
	}{
		{[]Node{3, 1, 0}, true},     // up, up
		{[]Node{0, 1, 3}, true},     // down, down
		{[]Node{3, 1, 2}, true},     // up, peer
		{[]Node{3, 1, 2, 0}, false}, // up, peer, then up again: valley
		{[]Node{0, 1, 2}, false},    // down then peer: valley
		{[]Node{2, 0, 1, 3}, true},  // up, down, down
		{[]Node{3, 1}, true},        // single step up
		{[]Node{3}, true},           // trivial
		{[]Node{3, 9}, false},       // unannotated step
	}
	for _, tt := range tests {
		if got := r.ValleyFree(tt.path); got != tt.want {
			t.Errorf("ValleyFree(%v) = %v, want %v", tt.path, got, tt.want)
		}
	}
}

// TestGeneratedRelationsValid checks InternetRelations on generated
// Internet-like graphs: every link annotated and the hierarchy acyclic,
// the core a full peering mesh, every cluster head the provider of its
// members, and every stub's providers at lower IDs (its customers at
// higher ones).
func TestGeneratedRelationsValid(t *testing.T) {
	for _, n := range []int{4, 5, 7, 12, 29, 48, 75, 110, 300, 1000} {
		for seed := int64(1); seed <= 5; seed++ {
			g, err := InternetLike(n, seed)
			if err != nil {
				t.Fatal(err)
			}
			rels := InternetRelations(g)
			if err := rels.Validate(g); err != nil {
				t.Errorf("n=%d seed=%d: %v", n, seed, err)
			}
			if rels.Len() != g.NumEdges() {
				t.Errorf("n=%d seed=%d: %d annotations for %d edges", n, seed, rels.Len(), g.NumEdges())
			}
			nCore, providers, clusters := internetTiers(n)
			for a := Node(0); a < Node(nCore); a++ {
				for b := a + 1; b < Node(nCore); b++ {
					if !g.HasEdge(a, b) || rels.Kind(a, b) != RelPeer {
						t.Errorf("n=%d seed=%d: core link %d-%d is not a peering", n, seed, a, b)
					}
				}
			}
			for _, cl := range clusters {
				for m := cl.lo + 1; m < cl.hi; m++ {
					if rels.Kind(Node(cl.lo), Node(m)) != RelCustomer {
						t.Errorf("n=%d seed=%d: cluster head %d is not the provider of member %d", n, seed, cl.lo, m)
					}
				}
			}
			for v := Node(providers); v < Node(n); v++ {
				for _, u := range g.Neighbors(v) {
					want := RelCustomer
					if u < v {
						want = RelProvider
					}
					if got := rels.Kind(v, u); got != want {
						t.Errorf("n=%d seed=%d: stub %d sees neighbor %d as %v, want %v", n, seed, v, u, got, want)
					}
				}
			}
		}
	}
}
