package safety

import (
	"sort"

	"bgploop/internal/routing"
	"bgploop/internal/topology"
)

// Universe is the permitted-path universe of a scenario: for every node,
// the set of simple paths to the destination that policy and export
// filtering allow the node to hold. A path is represented from the
// holder's perspective, holder first and destination last, so a path
// P ∈ U(v) satisfies P.First() == v and P.Origin() == dest; the
// destination's universe is the trivial path (dest).
//
// Construction is a breadth-first closure from the destination: a path
// P held by v extends to neighbor u when u does not already appear in P
// (path-based poison reverse) and the export filter lets v advertise a
// route learned from P's next hop to u. Every suffix of a permitted
// path is itself permitted by construction, which the dispute-digraph
// builder relies on.
type Universe struct {
	// Paths[v] lists the permitted paths of node v, sorted by length
	// then lexicographically, so indices are canonical.
	Paths map[topology.Node][]routing.Path
	// Stats records size and truncation of the enumeration.
	Stats UniverseStats
}

// Index returns the canonical index of p within U(v), or -1.
func (u *Universe) Index(v topology.Node, p routing.Path) int {
	for i, q := range u.Paths[v] {
		if q.Equal(p) {
			return i
		}
	}
	return -1
}

// buildUniverse enumerates the permitted-path universe under maxPaths and
// maxPathsPerNode.
// The traversal is deterministic: the queue is FIFO, neighbors are
// visited in sorted order, and the final per-node path lists are sorted
// canonically.
func buildUniverse(in Input) *Universe {
	u := &Universe{Paths: make(map[topology.Node][]routing.Path)}

	trivial := routing.Path{in.Dest}
	u.Paths[in.Dest] = []routing.Path{trivial}
	u.Stats.Paths = 1

	queue := []routing.Path{trivial}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		v := p.First()
		// learnedFrom is the neighbor v itself learned the route from:
		// None when v originates (v == dest), else the second element.
		learnedFrom := topology.None
		if p.Len() > 1 {
			learnedFrom = p[1]
		}
		for _, nb := range in.Graph.Neighbors(v) {
			if p.Contains(nb) {
				continue // poison reverse: nb discards paths containing nb
			}
			if !in.shouldExport(v, learnedFrom, nb) {
				continue
			}
			np := p.Prepend(nb)
			if len(u.Paths[nb]) >= maxPathsPerNode {
				u.truncate("per-node path limit")
				continue
			}
			if u.Stats.Paths >= maxPaths {
				u.truncate("total path limit")
				continue
			}
			u.Paths[nb] = append(u.Paths[nb], np)
			u.Stats.Paths++
			queue = append(queue, np)
		}
	}

	for v := 0; v < in.Graph.NumNodes(); v++ {
		sortPaths(u.Paths[topology.Node(v)])
	}
	return u
}

func (u *Universe) truncate(at string) {
	u.Stats.Truncated = true
	if u.Stats.TruncatedAt == "" {
		u.Stats.TruncatedAt = at
	}
}

// sortPaths orders paths by length then lexicographically — a canonical
// deterministic order independent of discovery order.
func sortPaths(ps []routing.Path) {
	sort.Slice(ps, func(i, j int) bool {
		a, b := ps[i], ps[j]
		if len(a) != len(b) {
			return len(a) < len(b)
		}
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
}

// candidate converts a held path into the routing.Candidate its holder
// would have ranked: the advertising peer is the path's second element
// and the candidate path is the path as the peer announced it.
func candidate(p routing.Path) routing.Candidate {
	return routing.Candidate{Peer: p[1], Path: routing.Path(p[1:])}
}

// weaklyPrefers reports whether node v's policy ranks path w at least as
// high as path p (both held paths of v, i.e. starting with v): w is
// weakly preferred when p is not strictly better.
func weaklyPrefers(pol routing.Policy, w, p routing.Path) bool {
	return !pol.Better(candidate(p), candidate(w))
}
