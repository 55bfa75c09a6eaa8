package dataplane

import (
	"math"

	"bgploop/internal/des"
	"bgploop/internal/topology"
)

// The first epoch of a history starts at minTime and the last ends at
// maxTime, so every instant a packet can look a FIB up at lies in exactly
// one epoch.
const (
	minTime = des.Time(math.MinInt64)
	maxTime = des.Time(math.MaxInt64)
)

// Epochs iterates the static intervals of a History in time order, reading
// its change log front to back. No FIB changes inside the half-open epoch
// [Start, End), so throughout it the forwarding relation is one fixed
// functional graph, Hops. Both the packet replay and the loop scan are
// written against this iterator: whatever one sees, the other sees too.
type Epochs struct {
	// Start and End bound the current epoch. A lookup at time t falls in
	// it iff Start <= t < End; a record at time t is visible from the epoch
	// that starts at t.
	Start, End des.Time
	// Hops[v] is node v's next hop throughout the epoch (topology.None for
	// no route). Next updates it in place.
	Hops []topology.Node
	// Changed lists the nodes whose next hop changed at Start, ascending.
	// The log holds real changes only, so every node listed has a new next
	// hop. It is empty for the first epoch and reused by Next.
	Changed []topology.Node

	log []change // the history's log, ordered by (at, node); shared, read-only
	i   int      // first entry not yet applied to Hops
}

// Epochs returns an iterator positioned before the first epoch. Records
// made after the call are not seen. The iterators of one History share its
// log and only read it, so they may be created and run concurrently with
// each other, but not with Record.
func (h *History) Epochs() *Epochs {
	e := &Epochs{
		End:  minTime,
		Hops: make([]topology.Node, len(h.cur)),
		log:  h.log,
	}
	for v := range e.Hops {
		e.Hops[v] = topology.None
	}
	return e
}

// Next advances to the next epoch and reports whether there was one. The
// first epoch is [minTime, first change) with no routes at all; each later
// one starts at a change instant and has that instant's entries applied.
func (e *Epochs) Next() bool {
	if e.End == maxTime {
		return false
	}
	e.Start = e.End
	e.Changed = e.Changed[:0]
	for ; e.i < len(e.log) && e.log[e.i].at == e.Start; e.i++ {
		c := e.log[e.i]
		e.Hops[c.node] = c.hop
		e.Changed = append(e.Changed, c.node)
	}
	e.End = maxTime
	if e.i < len(e.log) {
		e.End = e.log[e.i].at
	}
	return true
}
