// Package dataplane measures packet forwarding over the time-varying FIBs
// produced by the control-plane simulation.
//
// The paper's data plane is deliberately feedback-free: packet rates are
// low enough that queueing is negligible and forwarding never influences
// routing (§4.2). This package exploits that twice. The control plane
// records a timestamped FIB-change history (History), and packets are
// *replayed* against that history afterwards — an exact reconstruction of
// per-packet forwarding without simulating any hop as a DES event. And the
// history is piecewise constant: History.Epochs yields its static
// intervals, inside each of which the FIBs are one fixed functional graph
// and a packet's fate is a function of where it stands. So Replay works an
// epoch at a time and never packet by packet: the sources fall into a few
// classes that share a fate, only the ones upstream of a change are
// reclassified, the packets whose lookups the epoch holds are added in
// closed form, once per class and epoch, and a looping packet waits with
// every packet of its send instant on the cycle it circles until its TTL
// runs out or a member of the cycle changes (see Replay). The loop scan of
// package loopanalysis runs on the same iterator.
//
// Besides Epochs, a History answers only for the present (NextHop,
// LastChange). The differential oracles in the tests keep their own
// per-node record of every change and share nothing with the code they check.
package dataplane

import (
	"cmp"
	"fmt"
	"slices"

	"bgploop/internal/des"
	"bgploop/internal/topology"
)

// History is the timestamped FIB-change log for one destination across all
// nodes: every change, once, in (at, node) order. Before a node's first
// recorded change its next hop is topology.None (no route).
type History struct {
	// log is shared by every iterator Epochs returns: Record appends to it
	// or replaces it with an edited copy, never writes an element they see.
	log []change
	// Per node: cur is the latest next hop, prev the next hop before the
	// latest record instant, and last that instant (minTime before any).
	cur, prev []topology.Node
	last      []des.Time
}

// change is one entry of the log: node's next hop becomes hop at time at.
type change struct {
	at        des.Time
	node, hop topology.Node
}

// cmpChange orders the log by (at, node).
func cmpChange(a, b change) int {
	if c := cmp.Compare(a.at, b.at); c != 0 {
		return c
	}
	return cmp.Compare(a.node, b.node)
}

// NewHistory creates an empty history for a topology of numNodes nodes.
func NewHistory(numNodes int) *History {
	h := &History{cur: make([]topology.Node, numNodes), last: make([]des.Time, numNodes)}
	for v := range numNodes {
		h.cur[v], h.last[v] = topology.None, minTime
	}
	h.prev = slices.Clone(h.cur)
	return h
}

// NumNodes returns the number of nodes the history covers.
func (h *History) NumNodes() int { return len(h.cur) }

// Record notes a FIB change: node's next hop becomes nexthop at time now.
// Records must arrive in nondecreasing time order per node (the DES
// guarantees this). A record that leaves the next hop as it is adds
// nothing, and a same-instant record overwrites the node's earlier one:
// only the final state of an instant is ever observable by packets. A next
// hop other than topology.None must be a node of the history: Replay and
// the loop scan index by it unchecked.
func (h *History) Record(now des.Time, node, nexthop topology.Node) error {
	if node < 0 || int(node) >= len(h.cur) {
		return fmt.Errorf("dataplane: record for node %d out of range", node)
	}
	if nexthop != topology.None && (nexthop < 0 || int(nexthop) >= len(h.cur)) {
		return fmt.Errorf("dataplane: record for node %d: next hop %d out of range", node, nexthop)
	}
	if now < h.last[node] {
		return fmt.Errorf("dataplane: out-of-order record for node %d: %v after %v", node, now, h.last[node])
	}
	if nexthop == h.cur[node] {
		return nil // no observable change
	}
	if now > h.last[node] {
		h.prev[node], h.last[node] = h.cur[node], now
	}
	h.cur[node] = nexthop
	c := change{at: now, node: node, hop: nexthop}
	drop := nexthop == h.prev[node] // back where it was before the instant
	if n := len(h.log); !drop && (n == 0 || cmpChange(c, h.log[n-1]) > 0) {
		h.log = append(h.log, c) // every record the DES makes
		return nil
	}
	h.splice(c, drop)
	return nil
}

// splice puts c into the log in place of its node's entry at its instant,
// if there is one, or only removes that entry if drop. It edits a fresh
// copy, so that a log an iterator holds never changes under it.
func (h *History) splice(c change, drop bool) {
	i, found := slices.BinarySearchFunc(h.log, c, cmpChange)
	j := i
	if found {
		j++
	}
	var mid []change
	if !drop {
		mid = []change{c}
	}
	h.log = slices.Concat(h.log[:i], mid, h.log[j:])
}

// NextHop returns node's latest next hop.
func (h *History) NextHop(node topology.Node) topology.Node { return h.cur[node] }

// LastChange returns the instant of the history's latest change, and false
// if it has none.
func (h *History) LastChange() (des.Time, bool) {
	if len(h.log) == 0 {
		return 0, false
	}
	return h.log[len(h.log)-1].at, true
}

// TotalChanges returns the number of recorded FIB changes across all nodes.
func (h *History) TotalChanges() int { return len(h.log) }
