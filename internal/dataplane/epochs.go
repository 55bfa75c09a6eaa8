package dataplane

import (
	"cmp"
	"math"
	"slices"

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

// Epochs iterates the static intervals of a History in time order. No FIB
// changes inside the half-open epoch [Start, End), so throughout it the
// forwarding relation is one fixed functional graph, Hops. Both the packet
// replay and the loop scan are written against this iterator: whatever one
// of them sees of the history, the other sees too.
type Epochs struct {
	// Start and End bound the current epoch. A lookup at time t falls in
	// it iff Start <= t < End; a record at time t is visible from the epoch
	// that starts at t.
	Start, End des.Time
	// Hops[v] is node v's next hop throughout the epoch (topology.None for
	// no route). Next updates it in place.
	Hops []topology.Node
	// Changed lists the nodes whose next hop changed at Start, ascending.
	// Record coalesces no-op records, so every entry is a real change. It
	// is empty for the first epoch and reused by Next.
	Changed []topology.Node

	log []change // every record, ordered by (at, node); shared, read-only
	i   int      // first record not yet applied to Hops
}

// change is one record of the merged log.
type change struct {
	at        des.Time
	node, hop topology.Node
}

// Epochs returns an iterator positioned before the first epoch. Records
// made after the call are not seen. The iterators of one History share its
// merged log and only read it, so they may be created and run concurrently
// with each other, but not with Record.
func (h *History) Epochs() *Epochs {
	e := &Epochs{
		End:  minTime,
		Hops: make([]topology.Node, len(h.times)),
		log:  h.log,
	}
	for v := range e.Hops {
		e.Hops[v] = topology.None
	}
	return e
}

// logAppend adds a new record c to the merged log. A record the DES makes
// sorts after every earlier one and is appended, past the end any iterator
// reads. Any other record (the DES makes none) merges the log afresh.
func (h *History) logAppend(c change) {
	if n := len(h.log); n > 0 && cmpChange(c, h.log[n-1]) < 0 {
		h.log = h.mergeLog()
		return
	}
	h.log = append(h.log, c)
}

// mergeLog merges the per-node logs into a new slice, so that a log an
// iterator already holds never changes under it.
func (h *History) mergeLog() []change {
	log := make([]change, 0, h.TotalChanges())
	for v, ts := range h.times {
		for k, at := range ts {
			log = append(log, change{at: at, node: topology.Node(v), hop: h.hops[v][k]})
		}
	}
	slices.SortFunc(log, cmpChange)
	return log
}

// cmpChange orders the merged log by (at, node).
func cmpChange(a, b change) int {
	if c := cmp.Compare(a.at, b.at); c != 0 {
		return c
	}
	return cmp.Compare(a.node, b.node)
}

// Next advances to the next epoch and reports whether there was one. The
// first epoch is [minTime, first change) with no routes at all; each later
// one starts at a change instant and has that instant's records applied.
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
