package routing

import (
	"sort"

	"bgploop/internal/topology"
)

// oracleTable is the map-based Table the slot table replaced, kept as the
// reference the differential tests compare against: every Update clones its
// path, every mutation re-collects the candidates and runs Select over all
// of them. Under a policy that ties candidates its choice follows map
// iteration order; the comparisons use total orders only.
type oracleTable struct {
	self   topology.Node
	dest   topology.Node
	policy Policy

	raw map[topology.Node]Path // peer -> last received path (nil = withdrawn)

	best    Candidate
	hasBest bool
}

func newOracleTable(self, dest topology.Node, policy Policy) *oracleTable {
	return &oracleTable{self: self, dest: dest, policy: policy, raw: make(map[topology.Node]Path)}
}

func (t *oracleTable) isOrigin() bool { return t.self == t.dest }

func (t *oracleTable) Update(peer topology.Node, path Path) bool {
	t.raw[peer] = path.Clone()
	return t.recompute()
}

func (t *oracleTable) Withdraw(peer topology.Node) bool { return t.Update(peer, nil) }

func (t *oracleTable) RemovePeer(peer topology.Node) bool {
	if _, ok := t.raw[peer]; !ok {
		return false
	}
	delete(t.raw, peer)
	return t.recompute()
}

func (t *oracleTable) Received(peer topology.Node) (Path, bool) {
	p, ok := t.raw[peer]
	return p, ok
}

func (t *oracleTable) PeersWithRoutes() []topology.Node {
	var out []topology.Node
	for peer, p := range t.raw {
		if len(p) > 0 {
			out = append(out, peer)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func (t *oracleTable) Invalidate(keep func(peer topology.Node, path Path) bool) bool {
	dirty := false
	for peer, p := range t.raw {
		if len(p) == 0 {
			continue
		}
		if !keep(peer, p) {
			t.raw[peer] = nil
			dirty = true
		}
	}
	if !dirty {
		return false
	}
	return t.recompute()
}

func (t *oracleTable) Best() Path {
	if t.isOrigin() {
		return Path{t.self}
	}
	if !t.hasBest {
		return nil
	}
	return t.best.Path.Prepend(t.self)
}

func (t *oracleTable) NextHop() topology.Node {
	if t.isOrigin() {
		return t.self
	}
	if !t.hasBest {
		return topology.None
	}
	return t.best.Peer
}

func (t *oracleTable) HasRoute() bool { return t.isOrigin() || t.hasBest }

func (t *oracleTable) recompute() bool {
	if t.isOrigin() {
		return false
	}
	cands := make([]Candidate, 0, len(t.raw))
	for peer, p := range t.raw {
		if len(p) == 0 {
			continue
		}
		cands = append(cands, Candidate{Peer: peer, Path: p})
	}
	newBest, found := Select(t.policy, t.self, cands)
	if !found {
		changed := t.hasBest
		t.hasBest = false
		t.best = Candidate{}
		return changed
	}
	if t.hasBest && t.best.Peer == newBest.Peer && t.best.Path.Equal(newBest.Path) {
		return false
	}
	t.best = newBest
	t.hasBest = true
	return true
}
