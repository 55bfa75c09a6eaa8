package loopanalysis

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"bgploop/internal/des"
	"bgploop/internal/topology"
)

// nodeLog is the per-node view of a FIB history that the snapshot scan
// reads: each node's changes in time order, recorded beside the
// dataplane.History under test by the tests' own rules, which are the
// history's. No route is the initial state, a record that leaves the next
// hop as it is adds nothing, and the last record of an instant wins.
type nodeLog struct {
	times [][]des.Time
	hops  [][]topology.Node
}

func newNodeLog(numNodes int) *nodeLog {
	return &nodeLog{times: make([][]des.Time, numNodes), hops: make([][]topology.Node, numNodes)}
}

// record notes that v's next hop becomes hop at time at, no earlier than
// v's last record.
func (l *nodeLog) record(at des.Time, v, hop topology.Node) {
	ts, hs := l.times[v], l.hops[v]
	if k := len(ts); k > 0 && ts[k-1] == at {
		ts, hs = ts[:k-1], hs[:k-1] // the last record of an instant wins
	}
	if k := len(hs); k > 0 && hs[k-1] != hop || k == 0 && hop != topology.None {
		ts, hs = append(ts, at), append(hs, hop)
	}
	l.times[v], l.hops[v] = ts, hs
}

// changeTimes returns the sorted, de-duplicated instants at which any
// node's FIB changed.
func (l *nodeLog) changeTimes() []des.Time {
	var all []des.Time
	for _, ts := range l.times {
		all = append(all, ts...)
	}
	slices.Sort(all)
	return slices.Compact(all)
}

// snapshot fills next with every node's next hop at time t.
func (l *nodeLog) snapshot(t des.Time, next []topology.Node) {
	for v, ts := range l.times {
		i := sort.Search(len(ts), func(i int) bool { return ts[i] > t }) - 1
		next[v] = topology.None
		if i >= 0 {
			next[v] = l.hops[v][i]
		}
	}
}

// snapshotFindLoops is FindLoops as it stood before the incremental
// rewrite, kept verbatim as the differential oracle: at every change
// instant it takes a full snapshot of the FIBs, finds all cycles from
// scratch and diffs them against the open set by string key. It reads the
// per-node view of its own recorder, so it shares no logic with the
// history's change log or the epoch iterator the production scan runs on.
func snapshotFindLoops(h *nodeLog, horizon des.Time) []Loop {
	type active struct {
		loop  Loop
		alive bool
	}
	times := h.changeTimes()
	// Always evaluate the initial state too.
	grid := make([]des.Time, 0, len(times)+1)
	grid = append(grid, 0)
	for _, t := range times {
		if t != 0 && t <= horizon {
			grid = append(grid, t)
		}
	}

	open := make(map[string]*active)
	var out []Loop
	next := make([]topology.Node, len(h.times))

	for _, t := range grid {
		h.snapshot(t, next)
		cycles := findCycles(next)
		// Mark all open loops dead, then revive the ones still present.
		for _, a := range open {
			a.alive = false
		}
		for _, c := range cycles {
			k := loopKey(c)
			if a, ok := open[k]; ok {
				a.alive = true
				continue
			}
			open[k] = &active{
				loop:  Loop{Nodes: c, Start: t},
				alive: true,
			}
		}
		for k, a := range open {
			if a.alive {
				continue
			}
			a.loop.End = t
			a.loop.Resolved = true
			out = append(out, a.loop)
			delete(open, k)
		}
	}
	for _, a := range open {
		a.loop.End = horizon
		out = append(out, a.loop)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return loopKey(out[i].Nodes) < loopKey(out[j].Nodes)
	})
	return out
}

// findCycles returns every cycle of the functional graph next (next[v] is
// v's out-edge or topology.None), each rotated to start at its smallest
// node. Standard three-color iteration, O(n).
func findCycles(next []topology.Node) [][]topology.Node {
	const (
		white = 0 // unvisited
		gray  = 1 // on the current walk
		black = 2 // finished
	)
	state := make([]uint8, len(next))
	pos := make([]int, len(next)) // index of node within the current walk
	var cycles [][]topology.Node

	for s := range next {
		if state[s] != white {
			continue
		}
		var walk []topology.Node
		v := topology.Node(s)
		for {
			if v == topology.None || int(v) >= len(next) {
				break
			}
			if state[v] == black {
				break
			}
			if state[v] == gray {
				// Found a cycle: walk[pos[v]:] is the cycle body.
				cycle := append([]topology.Node(nil), walk[pos[v]:]...)
				cycles = append(cycles, canonical(cycle))
				break
			}
			state[v] = gray
			pos[v] = len(walk)
			walk = append(walk, v)
			v = next[v]
		}
		for _, u := range walk {
			state[u] = black
		}
	}
	return cycles
}

// canonical rotates the cycle so its smallest node comes first.
func canonical(cycle []topology.Node) []topology.Node {
	if len(cycle) == 0 {
		return cycle
	}
	min := 0
	for i, v := range cycle {
		if v < cycle[min] {
			min = i
		}
	}
	out := make([]topology.Node, 0, len(cycle))
	out = append(out, cycle[min:]...)
	out = append(out, cycle[:min]...)
	return out
}

// key returns the canonical identity of the cycle.
func loopKey(nodes []topology.Node) string {
	var b strings.Builder
	for _, v := range nodes {
		fmt.Fprintf(&b, "%d,", v)
	}
	return b.String()
}
