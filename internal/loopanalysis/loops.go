// Package loopanalysis extracts exact transient-loop statistics from a
// recorded FIB history and provides the paper's §3.2 analytic bounds.
//
// At every instant the FIBs of all nodes form a functional graph (each
// node has at most one out-edge, its next hop); a routing loop is exactly
// a cycle in that graph. The history changes only at recorded instants, and
// a cycle can only die or be born through a node that changed, so one pass
// over the history's epochs (dataplane.Epochs, the iterator the packet
// replay runs on too) that looks at the changed nodes alone yields every
// loop, its member nodes, and its precise lifetime — the per-loop
// statistics the paper lists as future work, and an independent validation
// of the TTL-exhaustion proxy used in its measurements.
package loopanalysis

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"bgploop/internal/dataplane"
	"bgploop/internal/des"
	"bgploop/internal/topology"
)

// Loop is one transient routing loop: a set of nodes that formed a
// forwarding cycle during [Start, End).
type Loop struct {
	// Nodes lists the cycle in forwarding order, rotated so the smallest
	// node ID comes first (canonical form).
	Nodes []topology.Node
	// Start is the instant the cycle appeared.
	Start des.Time
	// End is the instant the cycle broke. If the cycle persisted to the
	// end of the analysis horizon, End is the horizon and Resolved is
	// false.
	End des.Time
	// Resolved reports whether the loop was observed to break.
	Resolved bool
}

// Size returns the number of nodes in the loop.
func (l Loop) Size() int { return len(l.Nodes) }

// Duration returns the loop's lifetime.
func (l Loop) Duration() time.Duration { return l.End - l.Start }

// String renders the loop as "loop{1->2->1, 3s..5s}".
func (l Loop) String() string {
	var b strings.Builder
	b.WriteString("loop{")
	for _, v := range l.Nodes {
		fmt.Fprintf(&b, "%d->", v)
	}
	if len(l.Nodes) > 0 {
		fmt.Fprintf(&b, "%d", l.Nodes[0])
	}
	fmt.Fprintf(&b, ", %v..%v}", l.Start, l.End)
	return b.String()
}

// FindLoops scans the FIB history up to horizon and returns every routing
// loop interval, ordered by start time (ties by canonical node list). A
// cycle that breaks and later re-forms with the same membership yields two
// separate Loop entries.
//
// The scan is incremental over the history's epochs. A cycle of a
// functional graph is fixed by the next hops of its own members, so at a
// change instant the cycles that die are exactly the open ones through a
// changed node, and every cycle that is born runs through a changed node
// too: following next from each changed node finds them all, and nothing
// else need be looked at. The state evaluated first is that of instant 0
// (records at time <= 0 applied); then comes each change instant up to
// horizon. A loop still open at the end is reported unresolved, ending at
// horizon.
func FindLoops(h *dataplane.History, horizon des.Time) []Loop {
	s := scan{
		ep:     h.Epochs(),
		cycle:  make([]int, h.NumNodes()),
		walked: make([]int, h.NumNodes()),
	}
	for v := range s.cycle {
		s.cycle[v] = -1
	}
	for s.ep.Next() && s.ep.End <= 0 {
		// Skip to the epoch that holds instant 0.
	}
	for v := range s.cycle {
		s.open(topology.Node(v), 0)
	}
	for s.ep.Next() && s.ep.Start <= horizon {
		for _, v := range s.ep.Changed {
			s.close(v, s.ep.Start)
		}
		for _, v := range s.ep.Changed {
			s.open(v, s.ep.Start)
		}
	}
	out := s.out
	for _, l := range s.loops {
		if l.Nodes != nil {
			l.End = horizon
			out = append(out, l)
		}
	}
	// Keys are built for this sort only, and only where two loops share a
	// start instant.
	sort.Slice(out, func(i, j int) bool {
		if out[i].Start != out[j].Start {
			return out[i].Start < out[j].Start
		}
		return sortKey(out[i].Nodes) < sortKey(out[j].Nodes)
	})
	return out
}

// scan is the state of one FindLoops call, positioned on the epoch ep.
type scan struct {
	ep *dataplane.Epochs
	// cycle[v] indexes the open loop through v in loops, -1 if v is on
	// none. A closed loop leaves a zero Loop behind in loops.
	cycle []int
	loops []Loop
	// walked[v] is the number of the last walk that passed v; walks
	// counts them.
	walked []int
	walks  int
	out    []Loop
}

// close ends the open loop through v, if any, at time at.
func (s *scan) close(v topology.Node, at des.Time) {
	id := s.cycle[v]
	if id < 0 {
		return
	}
	l := s.loops[id]
	s.loops[id] = Loop{}
	for _, u := range l.Nodes {
		s.cycle[u] = -1
	}
	l.End, l.Resolved = at, true
	s.out = append(s.out, l)
}

// open follows next from v and, if the walk returns to v, records the
// cycle as a loop born at time at. The walk stops early at a node without
// a route, at a member of an open loop (whose every member is marked, so v
// is not one of them) and at a node it has passed before (it is circling a
// cycle that v only leads into).
func (s *scan) open(v topology.Node, at des.Time) {
	if s.cycle[v] >= 0 {
		return
	}
	next := s.ep.Hops
	s.walks++
	size, least := 1, v
	for u := next[v]; u != v; u = next[u] {
		if u == topology.None || s.cycle[u] >= 0 || s.walked[u] == s.walks {
			return
		}
		s.walked[u] = s.walks
		size++
		if u < least {
			least = u
		}
	}
	// Canonical form: forwarding order from the smallest id.
	nodes := make([]topology.Node, 0, size)
	for u := least; len(nodes) < size; u = next[u] {
		nodes = append(nodes, u)
		s.cycle[u] = len(s.loops)
	}
	s.loops = append(s.loops, Loop{Nodes: nodes, Start: at})
}

// sortKey renders a canonical node list as "5,6,": the order of loops born
// at the same instant is the string order of these keys ("10,2," sorts
// before "2,10,"), as it has been since they were map keys, and digests
// pin it.
func sortKey(nodes []topology.Node) string {
	var b []byte
	for _, v := range nodes {
		b = append(strconv.AppendInt(b, int64(v), 10), ',')
	}
	return string(b)
}

// Stats aggregates a set of loop intervals.
type Stats struct {
	Count       int
	MaxSize     int
	MaxDuration time.Duration
	// TotalLoopTime sums all loop durations (overlapping loops counted
	// separately).
	TotalLoopTime time.Duration
	// Span is the interval from the first loop's birth to the last
	// loop's resolution — comparable to the paper's "overall looping
	// duration" measured via TTL exhaustion.
	SpanStart, SpanEnd des.Time
}

// Span returns the overall extent of looping (zero when no loops).
func (s Stats) Span() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.SpanEnd - s.SpanStart
}

// Summarize computes Stats over loops.
func Summarize(loops []Loop) Stats {
	var s Stats
	for i, l := range loops {
		s.Count++
		if l.Size() > s.MaxSize {
			s.MaxSize = l.Size()
		}
		if l.Duration() > s.MaxDuration {
			s.MaxDuration = l.Duration()
		}
		s.TotalLoopTime += l.Duration()
		if i == 0 || l.Start < s.SpanStart {
			s.SpanStart = l.Start
		}
		if l.End > s.SpanEnd {
			s.SpanEnd = l.End
		}
	}
	return s
}

// WorstCaseResolution returns the paper's §3.2 bound: resolving a single
// m-node loop can take up to (m-1) x MRAI, because the resolving path
// update may be delayed by the MRAI timer at each of m-1 hops around the
// loop.
func WorstCaseResolution(size int, mrai time.Duration) time.Duration {
	if size < 2 {
		return 0
	}
	return time.Duration(size-1) * mrai
}
