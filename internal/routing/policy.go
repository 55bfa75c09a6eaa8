package routing

import "bgploop/internal/topology"

// Candidate is a route offered by a neighbor: the neighbor (peer) that
// advertised it and the path exactly as the peer announced it (so
// Path.First() == Peer).
type Candidate struct {
	Peer topology.Node
	Path Path
}

// Policy ranks candidate routes. Better reports whether a is strictly
// preferred over b. Implementations must define a strict weak ordering.
// Where it leaves two candidates tied (neither is Better), selection takes
// the one from the lowest peer ID — in Select's scan and in Table's
// incremental update alike — so a run is repeatable under any policy, not
// only under total orders like the built-in ones.
type Policy interface {
	Better(a, b Candidate) bool
}

// ShortestPath is the paper's routing policy: prefer the shortest AS path;
// break ties by the smaller next-hop (neighbor) node ID ("the smaller node
// ID is used for tie-breaking between equal length paths", §3).
type ShortestPath struct{}

// Better implements Policy.
func (ShortestPath) Better(a, b Candidate) bool {
	if a.Path.Len() != b.Path.Len() {
		return a.Path.Len() < b.Path.Len()
	}
	return a.Peer < b.Peer
}

var _ Policy = ShortestPath{}

// Select returns the best candidate under pol from cands, considering only
// loop-free candidates from the perspective of self (path-based poison
// reverse: any candidate whose path contains self is skipped). The second
// return value is false if no loop-free candidate exists. Among candidates
// the policy ties, the first in cands wins; Table keeps cands in peer order.
func Select(pol Policy, self topology.Node, cands []Candidate) (Candidate, bool) {
	var (
		best  Candidate
		found bool
	)
	for _, c := range cands {
		if len(c.Path) == 0 || c.Path.Contains(self) {
			continue
		}
		if !found || pol.Better(c, best) {
			best = c
			found = true
		}
	}
	return best, found
}
