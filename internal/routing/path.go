// Package routing implements the path-vector routing core: AS paths and
// their algebra, the per-destination RIB (adj-RIB-in and loc-RIB), and the
// route-selection policy used throughout the paper (shortest AS path with
// lowest-next-hop tie-breaking).
//
// The package is protocol-timing-agnostic: it knows nothing about MRAI
// timers, message delays, or enhancements. Those live in package bgp,
// which drives this core.
//
// Most updates a node receives change nothing — after a T_down each node
// walks through ever longer obsolete paths — so the RIB is built around
// the update that is rejected: the adj-RIB-in is a slice of per-peer slots
// that keep the announced path itself, and selection is incremental, so
// such an update overwrites one slot, makes one policy comparison and
// allocates nothing; the update that does change the best path takes the
// new one from an arena the tables of a group share. Paths are immutable
// and freely shared (see Path, Arena and Table).
package routing

import (
	"strconv"
	"strings"

	"bgploop/internal/topology"
)

// Path is an AS path as carried in a BGP update: the sequence of ASes a
// route traverses, most recent AS first and the origin AS last. For
// example the path "(5 6 4 0)" of the paper is Path{5, 6, 4, 0}.
//
// A nil Path means "no route". Paths are treated as immutable: operations
// return fresh slices and never alias their receiver's backing array in a
// mutable way. That is what lets one path be shared: the slice Table.Best
// returns is the same one the observer sees, every peer's update carries
// and the speaker remembers as advertised, and the receiver's adj-RIB-in
// slot keeps it as it came (see Table). Whoever holds a Path may keep it and
// may not write to it.
type Path []topology.Node

// Len returns the AS-path length (hop count metric).
func (p Path) Len() int { return len(p) }

// First returns the advertising AS (the path's next hop from the
// receiver's perspective), or topology.None for an empty path.
func (p Path) First() topology.Node {
	if len(p) == 0 {
		return topology.None
	}
	return p[0]
}

// Origin returns the destination-originating AS (last element), or
// topology.None for an empty path.
func (p Path) Origin() topology.Node {
	if len(p) == 0 {
		return topology.None
	}
	return p[len(p)-1]
}

// Contains reports whether v appears anywhere in the path. This is the
// path-based poison-reverse check of the paper: node v discards any path
// that contains v.
func (p Path) Contains(v topology.Node) bool {
	for _, a := range p {
		if a == v {
			return true
		}
	}
	return false
}

// Equal reports whether two paths are element-wise identical. Two nil
// paths are equal; a nil path differs from any non-empty path.
func (p Path) Equal(q Path) bool {
	if len(p) != len(q) {
		return false
	}
	for i := range p {
		if p[i] != q[i] {
			return false
		}
	}
	return true
}

// Prepend returns a new path with v prepended — the path a node announces
// after selecting p through a neighbor.
func (p Path) Prepend(v topology.Node) Path {
	out := make(Path, 0, len(p)+1)
	out = append(out, v)
	return append(out, p...)
}

// Arena builds prepended paths out of shared blocks of node ids, one
// allocation per block rather than per best change. Blocks start at
// arenaMin ids and double up to arenaMax; a longer path gets storage of its
// own. Every path is cut with cap == len, so an append to it moves and never
// writes into the next one, and nothing is reused: a block stays live while
// any path in it does. The zero Arena is ready to use; a nil *Arena
// allocates every path on its own, as Path.Prepend does.
type Arena struct {
	free []topology.Node // the unused tail of the current block
	next int             // the size of the next block
}

const (
	arenaMin = 64
	arenaMax = 1024
)

// Prepend returns p.Prepend(v), cut from the arena.
func (a *Arena) Prepend(p Path, v topology.Node) Path {
	n := len(p) + 1
	if a == nil || n > max(a.next, arenaMin) {
		return p.Prepend(v)
	}
	if n > len(a.free) {
		a.free = make([]topology.Node, max(a.next, arenaMin))
		a.next = min(2*len(a.free), arenaMax)
	}
	out := Path(a.free[:n:n])
	a.free = a.free[n:]
	out[0] = v
	copy(out[1:], p)
	return out
}

// Clone returns an independent copy of the path (nil stays nil).
func (p Path) Clone() Path {
	if p == nil {
		return nil
	}
	return append(Path(nil), p...)
}

// SuffixFrom returns the sub-path starting at the first occurrence of v
// and whether v occurs. For p = (5 6 4 0), p.SuffixFrom(4) = (4 0), true.
// This is the consistency probe used by the Assertion enhancement.
func (p Path) SuffixFrom(v topology.Node) (Path, bool) {
	for i, a := range p {
		if a == v {
			return p[i:], true
		}
	}
	return nil, false
}

// String renders the path in the paper's notation, e.g. "(5 6 4 0)".
// A nil path renders as "(-)".
func (p Path) String() string {
	if len(p) == 0 {
		return "(-)"
	}
	var b strings.Builder
	b.WriteByte('(')
	for i, a := range p {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(strconv.Itoa(int(a)))
	}
	b.WriteByte(')')
	return b.String()
}
