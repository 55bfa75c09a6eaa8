package loopanalysis

import (
	"fmt"
	"sort"
	"strings"

	"bgploop/internal/dataplane"
	"bgploop/internal/des"
	"bgploop/internal/topology"
)

// snapshotFindLoops is FindLoops as it stood before the incremental
// rewrite, kept verbatim as the differential oracle: at every change
// instant it takes a full History.Snapshot, finds all cycles from scratch
// and diffs them against the open set by string key. It uses only the
// history's point queries, so it shares no logic with the epoch iterator
// the production scan runs on.
func snapshotFindLoops(h *dataplane.History, horizon des.Time) []Loop {
	type active struct {
		loop  Loop
		alive bool
	}
	times := h.ChangeTimes()
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
	next := make([]topology.Node, h.NumNodes())

	for _, t := range grid {
		h.Snapshot(t, next)
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
