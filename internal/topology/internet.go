package topology

import (
	"fmt"
	"math/rand"
)

// InternetLike generates an Internet-like AS topology of n >= 4 nodes, the
// stand-in for the paper's Internet-derived topologies (29/48/75/110
// nodes, extracted from real BGP routing tables with Premore's method,
// which are no longer obtainable). Equal n and seed give identical graphs.
//
// The generator reproduces the structural properties the paper's results
// depend on: a small densely-meshed tier-1 core; a mid tier of regional
// providers organised in densely-peered clusters (the sibling path
// diversity that transient loops are made of); and many low-degree stub
// ASes, from which the paper draws the destination. Dual-homed stubs use
// provider-diverse homing (providers in different clusters), so failing
// one stub link forces a whole provider cluster onto much longer paths —
// the same dynamics the B-Clique topology isolates. The paper itself
// notes (footnote 1) that power-law generators are unsuitable at these
// small sizes, so a structural/hierarchical generator is the appropriate
// substitute.
//
// The result is always connected. Node IDs are assigned tier by tier:
// core first, then mid tier, then stubs, so high IDs are predominantly
// low-degree stub ASes. A provider always has a lower ID than its
// customer, which is what lets InternetRelations recover every link's
// business relationship from the graph alone.
func InternetLike(n int, seed int64) (*Graph, error) {
	if n < 4 {
		return nil, fmt.Errorf("topology: internet-like graph needs >= 4 nodes, got %d", n)
	}
	const (
		// stubDualHomeProb is the probability that a stub AS connects to
		// two providers (in different clusters) instead of one.
		stubDualHomeProb = 0.35
		// stubChainProb is the probability that a single-homed stub buys
		// transit from an earlier stub instead of a mid-tier provider,
		// forming multi-level customer trees. Those trees matter for the
		// WRATE results: while a provider's withdrawal is rate-limited,
		// its whole customer subtree keeps injecting packets into the
		// looping region instead of dropping them locally.
		stubChainProb = 0.3
	)
	nCore, providers, clusters := internetTiers(n)

	rng := rand.New(rand.NewSource(seed ^ 0x42A57))
	g := New(n)
	g.SetName(fmt.Sprintf("internet-%d", n))

	// Tier 1: full mesh core (settlement-free tier-1 peerings).
	for a := 0; a < nCore; a++ {
		for b := a + 1; b < nCore; b++ {
			mustAddEdge(g, Node(a), Node(b))
		}
	}

	// Tier 2: regional provider clusters. Within a cluster every pair
	// is linked (a small regional mesh). Each cluster hangs off the core
	// through its first member, attached degree-preferentially (popular
	// tier-1s attract more customers), and gains one extra uplink from a
	// random member to a random earlier provider, so the cluster is not
	// single-exit.
	for _, cl := range clusters {
		for a := cl.lo; a < cl.hi; a++ {
			for b := a + 1; b < cl.hi; b++ {
				mustAddEdge(g, Node(a), Node(b))
			}
		}
		head := pickPreferential(g, rng, 0, nCore, Node(-1))
		mustAddEdge(g, Node(cl.lo), head)
		member := Node(cl.lo + rng.Intn(cl.hi-cl.lo))
		if cl.lo > nCore {
			up := Node(rng.Intn(cl.lo)) // any earlier core or mid AS
			if member != up && !g.HasEdge(member, up) {
				mustAddEdge(g, member, up)
			} else if alt := pickPreferential(g, rng, 0, nCore, Node(-1)); !g.HasEdge(member, alt) && member != alt {
				mustAddEdge(g, member, alt)
			}
		} else if alt := pickPreferential(g, rng, 0, nCore, Node(-1)); !g.HasEdge(member, alt) && member != alt {
			// The first cluster's extra uplink must go to the core.
			mustAddEdge(g, member, alt)
		}
	}

	// Tier 3: stub ASes attach to mid-tier providers (stubs buy transit
	// from regional providers, not tier-1 directly). The primary
	// provider is chosen degree-preferentially; a dual-homed stub adds a
	// provider from a different cluster, giving it the short-primary /
	// long-backup structure whose failure the T_long experiments probe.
	for v := providers; v < n; v++ {
		if v > providers && rng.Float64() < stubChainProb {
			// A deeper customer: single-homed under an earlier stub.
			parent := Node(providers + rng.Intn(v-providers))
			mustAddEdge(g, Node(v), parent)
			continue
		}
		primary := pickPreferential(g, rng, nCore, providers, Node(-1))
		mustAddEdge(g, Node(v), primary)
		if rng.Float64() < stubDualHomeProb && len(clusters) > 1 {
			secondary := pickPreferential(g, rng, nCore, providers, primary)
			if clusterOf(clusters, secondary) != clusterOf(clusters, primary) {
				mustAddEdge(g, Node(v), secondary)
			} else {
				// Resample uniformly outside the primary's cluster.
				pc := clusterOf(clusters, primary)
				var pool []Node
				for _, cl := range clusters {
					if cl == clusters[pc] {
						continue
					}
					for a := cl.lo; a < cl.hi; a++ {
						pool = append(pool, Node(a))
					}
				}
				if len(pool) > 0 {
					second := pool[rng.Intn(len(pool))]
					mustAddEdge(g, Node(v), second)
				}
			}
		}
	}
	return g, nil
}

// InternetRelations returns the business relationship of every link of
// g under the Internet-like model's tiers for g's node count: core links
// and links between two non-head members of one mid-tier cluster are
// peerings, and on every other link the lower ID is the provider (a
// cluster head resells transit to its members; without that,
// provider-learned routes could never reach them under Gao-Rexford
// export rules, since peers do not give each other transit). On a graph
// from InternetLike these are exactly the relationships the generator
// builds its tiers on; on any graph every link is annotated, and since
// providers always have the lower ID the customer-provider digraph is
// acyclic, satisfying the Gao-Rexford convergence precondition.
func InternetRelations(g *Graph) *Relationships {
	nCore, _, clusters := internetTiers(g.NumNodes())
	rels := NewRelationships()
	for _, e := range g.Edges() { // e.A < e.B
		c := clusterOf(clusters, e.A)
		switch {
		case int(e.B) < nCore,
			c >= 0 && c == clusterOf(clusters, e.B) && int(e.A) != clusters[c].lo:
			rels.SetPeers(e.A, e.B)
		default:
			rels.SetProviderCustomer(e.A, e.B)
		}
	}
	return rels
}

// internetTiers splits n ASes into the tier-1 core [0, nCore), the mid
// tier [nCore, providers) in consecutive clusters of three, and the
// stubs [providers, n). The core is n/12 clamped to [3, 8] ASes and the
// mid tier 30 % of all ASes.
func internetTiers(n int) (nCore, providers int, clusters []clusterRange) {
	nCore = min(max(n/12, 3), 8)
	if nCore >= n {
		nCore = n - 1
	}
	nMid := int(float64(n) * 0.3)
	if nCore+nMid >= n {
		nMid = n - nCore - 1
	}
	if nMid < 1 {
		nMid = 1
	}
	providers = nCore + nMid
	return nCore, providers, clusterRanges(nCore, providers, 3)
}

type clusterRange struct{ lo, hi int } // [lo, hi)

func clusterRanges(lo, hi, size int) []clusterRange {
	var out []clusterRange
	for a := lo; a < hi; a += size {
		b := a + size
		if b > hi {
			b = hi
		}
		out = append(out, clusterRange{lo: a, hi: b})
	}
	// Merge a trailing singleton into its predecessor so every cluster
	// has at least two members (when possible).
	if n := len(out); n >= 2 && out[n-1].hi-out[n-1].lo == 1 {
		out[n-2].hi = out[n-1].hi
		out = out[:n-1]
	}
	return out
}

func clusterOf(clusters []clusterRange, v Node) int {
	for i, cl := range clusters {
		if int(v) >= cl.lo && int(v) < cl.hi {
			return i
		}
	}
	return -1
}

// pickPreferential samples one node from lo..hi-1 proportionally to
// (degree + 1), excluding skip. It assumes hi > lo.
func pickPreferential(g *Graph, rng *rand.Rand, lo, hi int, skip Node) Node {
	total := 0
	for u := lo; u < hi; u++ {
		if Node(u) != skip {
			total += g.Degree(Node(u)) + 1
		}
	}
	if total <= 0 {
		return Node(lo)
	}
	pick := rng.Intn(total)
	for u := lo; u < hi; u++ {
		if Node(u) == skip {
			continue
		}
		pick -= g.Degree(Node(u)) + 1
		if pick < 0 {
			return Node(u)
		}
	}
	return Node(hi - 1)
}

// PaperInternetSizes are the Internet-derived topology sizes used in the
// paper's evaluation.
var PaperInternetSizes = []int{29, 48, 75, 110}
