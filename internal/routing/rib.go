package routing

import (
	"cmp"
	"slices"

	"bgploop/internal/topology"
)

// Table is a node's routing state for a single destination: the adj-RIB-in
// (the most recent path received from each neighbor, kept even when unused,
// exactly as BGP keeps "a copy of the most recent paths received from each
// of its neighbors") and the loc-RIB (the currently selected best path).
//
// The table stores the raw path exactly as the neighbor announced it even
// when that path contains self; poison reverse is applied at selection
// time. Retaining the raw path is required by the Assertion enhancement,
// which reasons about what each neighbor currently claims.
//
// Ownership. The table shares paths, it never copies them: an adj-RIB-in
// slot holds the very slice Update was given, so what Received and
// Invalidate hand out is the announced path. That is sound because every
// Path is immutable (see Path): the caller of Update may not write to the
// path afterwards, and the table never writes to it either. The loc-RIB
// path returned by Best is built once per best change, from the arena the
// table was given (see Arena), so a warm table on a warm arena allocates
// nothing.
type Table struct {
	self   topology.Node
	dest   topology.Node
	policy Policy

	// raw is the adj-RIB-in, one slot per peer heard from, sorted by peer
	// ID. A slot with an empty path is an explicit withdrawal.
	raw []Candidate

	// best is the self-prefixed loc-RIB path (nil = no route) and bestPeer
	// the neighbor it was learned from; best[1:] always equals bestPeer's
	// slot. The origin's best is the constant (self) via itself.
	best     Path
	bestPeer topology.Node
	arena    *Arena // where best is built; nil: on its own
}

// NewTable returns an empty table, with no arena, for the given node and
// destination. If self == dest the node originates the destination and its
// best path is permanently the one-element path (self).
func NewTable(self, dest topology.Node, policy Policy) *Table {
	t := new(Table)
	t.Init(self, dest, policy, nil, nil)
	return t
}

// Init makes t the empty table NewTable returns, for a table that lives by
// value inside its owner. Its adj-RIB-in takes its slots from raw's
// storage, which must have length zero; a slot past raw's capacity moves
// the adj-RIB-in to fresh storage, so a raw carved from a shared slab with
// a full slice expression never grows into its neighbour's. Its best paths
// are cut from arena, which the tables of a group may share.
func (t *Table) Init(self, dest topology.Node, policy Policy, raw []Candidate, arena *Arena) {
	*t = Table{self: self, dest: dest, policy: policy, raw: raw, bestPeer: topology.None, arena: arena}
	if t.IsOrigin() {
		t.best, t.bestPeer = arena.Prepend(nil, self), self
	}
}

// Self returns the owning node.
func (t *Table) Self() topology.Node { return t.self }

// Dest returns the destination (origin AS) this table routes toward.
func (t *Table) Dest() topology.Node { return t.dest }

// IsOrigin reports whether the owning node originates the destination.
func (t *Table) IsOrigin() bool { return t.self == t.dest }

// find returns the position of peer's slot in raw, or where it would be
// inserted, and whether it exists.
func (t *Table) find(peer topology.Node) (int, bool) {
	return slices.BinarySearchFunc(t.raw, peer, func(c Candidate, peer topology.Node) int {
		return cmp.Compare(c.Peer, peer)
	})
}

// Update records path as the latest announcement from peer (nil for an
// explicit withdrawal) and re-runs route selection. It reports whether the
// node's best path changed.
//
// Selection is incremental. The stored best is the first in peer order of
// the candidates no other candidate beats, so a new path from a peer that
// is not the best one can only displace it — one comparison decides — and
// otherwise leaves it alone whatever that peer held before. A new path
// from the best peer that equals the old one changes nothing; a different
// one forces a rescan, and whatever the rescan selects differs from the
// old best in peer or in path.
func (t *Table) Update(peer topology.Node, path Path) (changed bool) {
	i, ok := t.find(peer)
	if !ok {
		t.raw = slices.Insert(t.raw, i, Candidate{Peer: peer})
	}
	slot := &t.raw[i]
	wasBest := t.bestVia(peer)
	if wasBest && path.Equal(slot.Path) {
		return false
	}
	slot.Path = path
	switch {
	case wasBest:
		t.rescan()
		return true
	case t.IsOrigin(), len(path) == 0, path.Contains(t.self):
		// The origin's route is local and immutable; a withdrawal or a
		// path through self is no candidate.
		return false
	}
	if t.best != nil {
		cur := Candidate{Peer: t.bestPeer, Path: t.best[1:]}
		if peer < t.bestPeer {
			if t.policy.Better(cur, *slot) {
				return false
			}
		} else if !t.policy.Better(*slot, cur) {
			return false
		}
	}
	t.setBest(*slot)
	return true
}

// bestVia reports whether the current best path was learned from peer.
func (t *Table) bestVia(peer topology.Node) bool {
	return !t.IsOrigin() && t.best != nil && peer == t.bestPeer
}

// Withdraw records an explicit withdrawal from peer.
func (t *Table) Withdraw(peer topology.Node) (changed bool) {
	return t.Update(peer, nil)
}

// RemovePeer erases all state learned from peer (session teardown) and
// reports whether the best path changed. Unlike Withdraw it also forgets
// the peer's adj-RIB-in entry entirely.
func (t *Table) RemovePeer(peer topology.Node) (changed bool) {
	i, ok := t.find(peer)
	if !ok {
		return false
	}
	t.raw = slices.Delete(t.raw, i, i+1)
	if !t.bestVia(peer) {
		return false
	}
	t.rescan()
	return true
}

// Received returns the raw adj-RIB-in entry for peer and whether one
// exists. The path may be nil (explicit withdrawal) and may contain self;
// it is the slice the peer announced (see Table).
func (t *Table) Received(peer topology.Node) (Path, bool) {
	i, ok := t.find(peer)
	if !ok || len(t.raw[i].Path) == 0 {
		return nil, ok
	}
	return t.raw[i].Path, true
}

// PeersWithRoutes returns, in ascending order, the peers whose adj-RIB-in
// entry currently holds a non-nil path.
func (t *Table) PeersWithRoutes() []topology.Node {
	var out []topology.Node
	for _, c := range t.raw {
		if len(c.Path) > 0 {
			out = append(out, c.Peer)
		}
	}
	return out
}

// Invalidate clears (sets to nil) every adj-RIB-in entry for which keep
// returns false, visiting peers in ascending order, and reports whether
// the best path changed — which it did exactly when the best peer's entry
// was among those cleared. It is the primitive behind the Assertion
// enhancement's removal of obsolete paths.
func (t *Table) Invalidate(keep func(peer topology.Node, path Path) bool) (changed bool) {
	for i := range t.raw {
		slot := &t.raw[i]
		if len(slot.Path) == 0 || keep(slot.Peer, slot.Path) {
			continue
		}
		slot.Path = nil
		if t.bestVia(slot.Peer) {
			changed = true
		}
	}
	if changed {
		t.rescan()
	}
	return changed
}

// Best returns the node's current best path including itself (loc-RIB
// form, e.g. (5 6 4 0) for node 5), or nil if the destination is
// unreachable. The origin's best path is (self). The returned path is
// shared and immutable: it is built once per best change and the same
// slice goes to every caller until the next change.
func (t *Table) Best() Path { return t.best }

// NextHop returns the forwarding next hop: the selected neighbor, self for
// the origin, or topology.None when unreachable.
func (t *Table) NextHop() topology.Node { return t.bestPeer }

// HasRoute reports whether the node currently has a route (always true for
// the origin).
func (t *Table) HasRoute() bool { return t.best != nil }

// rescan re-runs route selection over the whole adj-RIB-in.
func (t *Table) rescan() {
	if c, found := Select(t.policy, t.self, t.raw); found {
		t.setBest(c)
		return
	}
	t.best, t.bestPeer = nil, topology.None
}

// setBest installs c as the loc-RIB entry, building its self-prefixed path.
func (t *Table) setBest(c Candidate) {
	t.best, t.bestPeer = t.arena.Prepend(c.Path, t.self), c.Peer
}
