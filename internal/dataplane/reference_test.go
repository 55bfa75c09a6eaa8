package dataplane

import (
	"fmt"
	"slices"
	"sort"

	"bgploop/internal/des"
	"bgploop/internal/topology"
)

// refHistory is History as it stood while it kept one log per node, kept
// verbatim but for the merged log it also maintained, as the reference:
// TestHistoryMatchesReference pins History to it, and walkReplay reads its
// point queries, so that the oracle shares nothing with the change log and
// the epoch code it checks.
type refHistory struct {
	times [][]des.Time
	hops  [][]topology.Node
}

func newRefHistory(numNodes int) *refHistory {
	return &refHistory{
		times: make([][]des.Time, numNodes),
		hops:  make([][]topology.Node, numNodes),
	}
}

// NumNodes returns the number of nodes the history covers.
func (h *refHistory) NumNodes() int { return len(h.times) }

// Record appends a FIB change: node's next hop becomes nexthop at time
// now. Records must arrive in nondecreasing time order per node.
// Consecutive records with an unchanged next hop are coalesced; a
// same-instant record overwrites the previous one.
func (h *refHistory) Record(now des.Time, node, nexthop topology.Node) error {
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
	return nil
}

// coalesce drops the final record if it duplicates its predecessor (can
// happen after a same-instant overwrite).
func (h *refHistory) coalesce(node topology.Node) {
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
func (h *refHistory) NextHop(node topology.Node, t des.Time) topology.Node {
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
func (h *refHistory) Changes(node topology.Node) int {
	if node < 0 || int(node) >= len(h.times) {
		return 0
	}
	return len(h.times[node])
}

// TotalChanges returns the number of recorded FIB changes across all nodes.
func (h *refHistory) TotalChanges() int {
	n := 0
	for _, ts := range h.times {
		n += len(ts)
	}
	return n
}

// ChangeTimes returns the sorted, de-duplicated instants at which any
// node's FIB changed: the start instants of the history's epochs.
func (h *refHistory) ChangeTimes() []des.Time {
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
func (h *refHistory) Snapshot(t des.Time, next []topology.Node) []topology.Node {
	if next == nil || len(next) < len(h.times) {
		next = make([]topology.Node, len(h.times))
	}
	for v := range h.times {
		next[v] = h.NextHop(topology.Node(v), t)
	}
	return next[:len(h.times)]
}

// mergeLog merges the per-node logs into one slice in (at, node) order:
// the change log a History of the same records keeps.
func (h *refHistory) mergeLog() []change {
	var log []change
	for v, ts := range h.times {
		for k, at := range ts {
			log = append(log, change{at: at, node: topology.Node(v), hop: h.hops[v][k]})
		}
	}
	slices.SortFunc(log, cmpChange)
	return log
}

// recorder is what the test helpers record into: a History, the reference
// or both.
type recorder interface {
	Record(now des.Time, node, nexthop topology.Node) error
}

// dual records every change into a History and into the reference, so that
// a test can run the code under test on the one and its oracle on the other.
type dual struct {
	*History
	ref *refHistory
}

func newDual(numNodes int) dual {
	return dual{NewHistory(numNodes), newRefHistory(numNodes)}
}

// Record records into both and panics if only one of them refuses: the
// callers make no record on which the two may differ.
func (d dual) Record(now des.Time, node, nexthop topology.Node) error {
	err := d.History.Record(now, node, nexthop)
	if refErr := d.ref.Record(now, node, nexthop); (err == nil) != (refErr == nil) {
		panic(fmt.Sprintf("Record(%v, %d, %d): error %v, reference error %v", now, node, nexthop, err, refErr))
	}
	return err
}
