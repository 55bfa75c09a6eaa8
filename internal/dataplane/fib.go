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
// NextHop, ChangeTimes and Snapshot are the point queries: what the
// runtime guards read, and what the differential oracles in the tests are
// written in, so that they share nothing with the epoch code they check.
package dataplane

import (
	"fmt"
	"sort"

	"bgploop/internal/des"
	"bgploop/internal/topology"
)

// History is the timestamped FIB-change log for one destination across all
// nodes. Before a node's first recorded change its next hop is
// topology.None (no route).
type History struct {
	times [][]des.Time
	hops  [][]topology.Node
	// log is every record merged in (at, node) order, kept by Record and
	// shared by every iterator Epochs returns. Record only ever appends to
	// it or replaces it, never writes an element an iterator can see.
	log []change
}

// NewHistory creates an empty history for a topology of numNodes nodes.
func NewHistory(numNodes int) *History {
	return &History{
		times: make([][]des.Time, numNodes),
		hops:  make([][]topology.Node, numNodes),
	}
}

// NumNodes returns the number of nodes the history covers.
func (h *History) NumNodes() int { return len(h.times) }

// Record appends a FIB change: node's next hop becomes nexthop at time
// now. Records must arrive in nondecreasing time order per node (the DES
// guarantees this). Consecutive records with an unchanged next hop are
// coalesced; a same-instant record overwrites the previous one (only the
// final state of an instant is ever observable by packets). A next hop
// other than topology.None must be a node of the history: Replay and the
// loop scan index by it unchecked.
func (h *History) Record(now des.Time, node, nexthop topology.Node) error {
	if node < 0 || int(node) >= len(h.times) {
		return fmt.Errorf("dataplane: record for node %d out of range", node)
	}
	if nexthop != topology.None && (nexthop < 0 || int(nexthop) >= len(h.times)) {
		return fmt.Errorf("dataplane: record for node %d: next hop %d out of range", node, nexthop)
	}
	ts := h.times[node]
	if k := len(ts); k > 0 {
		if now < ts[k-1] {
			return fmt.Errorf("dataplane: out-of-order record for node %d: %v after %v", node, now, ts[k-1])
		}
		if now == ts[k-1] {
			h.hops[node][k-1] = nexthop
			h.coalesce(node)
			h.log = h.mergeLog()
			return nil
		}
		if h.hops[node][k-1] == nexthop {
			return nil // no observable change
		}
	} else if nexthop == topology.None {
		return nil // "no route" is already the implicit initial state
	}
	h.times[node] = append(h.times[node], now)
	h.hops[node] = append(h.hops[node], nexthop)
	h.logAppend(change{at: now, node: node, hop: nexthop})
	return nil
}

// coalesce drops the final record if it duplicates its predecessor (can
// happen after a same-instant overwrite).
func (h *History) coalesce(node topology.Node) {
	k := len(h.times[node])
	if k >= 2 && h.hops[node][k-1] == h.hops[node][k-2] {
		h.times[node] = h.times[node][:k-1]
		h.hops[node] = h.hops[node][:k-1]
	} else if k == 1 && h.hops[node][0] == topology.None {
		h.times[node] = h.times[node][:0]
		h.hops[node] = h.hops[node][:0]
	}
}

// NextHop returns node's forwarding next hop as of time t.
func (h *History) NextHop(node topology.Node, t des.Time) topology.Node {
	if node < 0 || int(node) >= len(h.times) {
		return topology.None
	}
	ts := h.times[node]
	// Index of the last record with time <= t.
	i := sort.Search(len(ts), func(i int) bool { return ts[i] > t }) - 1
	if i < 0 {
		return topology.None
	}
	return h.hops[node][i]
}

// Changes returns the number of recorded FIB changes for node.
func (h *History) Changes(node topology.Node) int {
	if node < 0 || int(node) >= len(h.times) {
		return 0
	}
	return len(h.times[node])
}

// ChangesSince returns the number of recorded FIB changes for node at or
// after time t.
func (h *History) ChangesSince(node topology.Node, t des.Time) int {
	if node < 0 || int(node) >= len(h.times) {
		return 0
	}
	ts := h.times[node]
	i := sort.Search(len(ts), func(i int) bool { return ts[i] >= t })
	return len(ts) - i
}

// TotalChanges returns the number of recorded FIB changes across all nodes.
func (h *History) TotalChanges() int {
	n := 0
	for _, ts := range h.times {
		n += len(ts)
	}
	return n
}

// ChangeTimes returns the sorted, de-duplicated instants at which any
// node's FIB changed: the start instants of the history's epochs.
func (h *History) ChangeTimes() []des.Time {
	var all []des.Time
	for _, ts := range h.times {
		all = append(all, ts...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	out := all[:0]
	for i, t := range all {
		if i == 0 || t != out[len(out)-1] {
			out = append(out, t)
		}
	}
	return out
}

// Snapshot fills next (len >= NumNodes) with every node's next hop at time
// t and returns it; a nil next allocates.
func (h *History) Snapshot(t des.Time, next []topology.Node) []topology.Node {
	if next == nil || len(next) < len(h.times) {
		next = make([]topology.Node, len(h.times))
	}
	for v := range h.times {
		next[v] = h.NextHop(topology.Node(v), t)
	}
	return next[:len(h.times)]
}
