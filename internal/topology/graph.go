// Package topology models AS-level network topologies for BGP simulation.
//
// It provides the topology families used in the paper's evaluation —
// Clique, B-Clique (chain + clique), and "Internet-derived" graphs — plus
// general graph construction, queries (connectivity, bridges, shortest
// paths), and serialization. Nodes represent Autonomous Systems and edges
// represent BGP peering sessions.
package topology

import (
	"fmt"
	"math"
	"slices"
	"sort"
)

// Node identifies an Autonomous System in a topology. Node IDs are dense:
// a graph of n nodes uses IDs 0..n-1. They are 4 bytes wide, as BGP's AS
// numbers are (RFC 6793): paths, FIB records and loops are runs of ids,
// and most of a trial's bytes. The sign is kept for None.
type Node int32

// None is the sentinel "no node" value, used e.g. as a FIB next hop when a
// destination is unreachable.
const None Node = -1

// MaxNode is the largest id a Node holds.
const MaxNode = math.MaxInt32

// NodeOf converts an id read from outside the simulator (a spec, an edge
// list) to a Node. An id outside [0, MaxNode] is an error,
// never wrapped: Node(4294967296) would run as node 0.
func NodeOf(v int) (Node, error) {
	if v < 0 || v > MaxNode {
		return None, fmt.Errorf("topology: node id %d outside [0, %d]", v, MaxNode)
	}
	return Node(v), nil
}

// EdgeOf is NodeOf for both ends of a link, normalised.
func EdgeOf(a, b int) (Edge, error) {
	na, err := NodeOf(a)
	if err != nil {
		return Edge{}, err
	}
	nb, err := NodeOf(b)
	if err != nil {
		return Edge{}, err
	}
	return NormEdge(na, nb), nil
}

// Edge is an undirected adjacency between two ASes. Normalised edges have
// A < B; use NormEdge to normalise.
type Edge struct {
	A, B Node
}

// NormEdge returns the edge with endpoints ordered so that A < B.
func NormEdge(a, b Node) Edge {
	if a > b {
		a, b = b, a
	}
	return Edge{A: a, B: b}
}

// String renders the edge as "[a b]", matching the paper's link notation.
func (e Edge) String() string { return fmt.Sprintf("[%d %d]", e.A, e.B) }

// Graph is an undirected simple graph over nodes 0..n-1. Its sorted
// adjacency lists are its one edge set: an edge (a, b) is b in a's list
// and a in b's.
// The zero value is an empty graph with no nodes; use New.
type Graph struct {
	n      int
	adj    [][]Node // sorted adjacency lists
	nEdges int
	name   string
}

// New returns an edgeless graph with n nodes (IDs 0..n-1).
func New(n int) *Graph {
	if n < 0 {
		n = 0
	}
	return &Graph{n: n, adj: make([][]Node, n)}
}

// Name returns the human-readable label of the graph ("clique-15", ...).
func (g *Graph) Name() string {
	if g.name == "" {
		return fmt.Sprintf("graph-%d", g.n)
	}
	return g.name
}

// SetName sets the graph's label.
func (g *Graph) SetName(name string) { g.name = name }

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return g.n }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int { return g.nEdges }

// Nodes returns all node IDs in ascending order.
func (g *Graph) Nodes() []Node {
	out := make([]Node, g.n)
	for i := range out {
		out[i] = Node(i)
	}
	return out
}

// Valid reports whether v is a node of the graph.
func (g *Graph) Valid(v Node) bool { return v >= 0 && int(v) < g.n }

// AddEdge inserts the undirected edge (a, b). It returns an error for
// self-loops or out-of-range endpoints; adding an existing edge is a no-op.
func (g *Graph) AddEdge(a, b Node) error {
	if !g.Valid(a) || !g.Valid(b) {
		return fmt.Errorf("topology: edge %v out of range (n=%d)", NormEdge(a, b), g.n)
	}
	if a == b {
		return fmt.Errorf("topology: self-loop at node %d", a)
	}
	if g.HasEdge(a, b) {
		return nil
	}
	g.adj[a] = insertSorted(g.adj[a], b)
	g.adj[b] = insertSorted(g.adj[b], a)
	g.nEdges++
	return nil
}

// RemoveEdge deletes the undirected edge (a, b) if present and reports
// whether it existed.
func (g *Graph) RemoveEdge(a, b Node) bool {
	if !g.HasEdge(a, b) {
		return false
	}
	g.adj[a] = removeSorted(g.adj[a], b)
	g.adj[b] = removeSorted(g.adj[b], a)
	g.nEdges--
	return true
}

// HasEdge reports whether the undirected edge (a, b) exists: a binary
// search of a's list. An end outside the graph has no edges.
func (g *Graph) HasEdge(a, b Node) bool {
	if !g.Valid(a) || !g.Valid(b) {
		return false
	}
	_, ok := slices.BinarySearch(g.adj[a], b)
	return ok
}

// Neighbors returns the sorted neighbor list of v. The returned slice is a
// copy and safe to retain.
func (g *Graph) Neighbors(v Node) []Node {
	if !g.Valid(v) {
		return nil
	}
	out := make([]Node, len(g.adj[v]))
	copy(out, g.adj[v])
	return out
}

// Degree returns the number of neighbors of v.
func (g *Graph) Degree(v Node) int {
	if !g.Valid(v) {
		return 0
	}
	return len(g.adj[v])
}

// Edges returns all edges sorted by (A, B): the sorted adjacency lists in
// node order, each edge taken from its smaller endpoint.
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, g.nEdges)
	for v, nbrs := range g.adj {
		for _, u := range nbrs {
			if u > Node(v) {
				out = append(out, Edge{A: Node(v), B: u})
			}
		}
	}
	return out
}

// IncidentEdges returns the edges incident to v, sorted; nil if v is not
// a node of the graph.
func (g *Graph) IncidentEdges(v Node) []Edge {
	if !g.Valid(v) {
		return nil
	}
	nbrs := g.adj[v]
	out := make([]Edge, 0, len(nbrs))
	for _, u := range nbrs {
		out = append(out, NormEdge(v, u))
	}
	return out
}

// Clone returns a deep copy of the graph.
func (g *Graph) Clone() *Graph {
	c := New(g.n)
	c.name, c.nEdges = g.name, g.nEdges
	for v := range g.adj {
		c.adj[v] = append([]Node(nil), g.adj[v]...)
	}
	return c
}

// Connected reports whether the graph is connected (an empty graph and a
// single-node graph are connected).
func (g *Graph) Connected() bool { return g.ConnectedWithout(Edge{A: None, B: None}) }

// ConnectedWithout reports whether the graph remains connected after
// removing edge e (i.e. whether e is not a bridge).
func (g *Graph) ConnectedWithout(e Edge) bool {
	if g.n <= 1 {
		return true
	}
	return g.reachableFrom(0, NormEdge(e.A, e.B)) == g.n
}

// reachableFrom counts nodes reachable from start ignoring the edge skip.
func (g *Graph) reachableFrom(start Node, skip Edge) int {
	seen := make([]bool, g.n)
	seen[start] = true
	queue := []Node{start}
	count := 1
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range g.adj[v] {
			if NormEdge(v, u) == skip || seen[u] {
				continue
			}
			seen[u] = true
			count++
			queue = append(queue, u)
		}
	}
	return count
}

// ShortestPathLens returns BFS hop counts from src to every node; -1 marks
// unreachable nodes.
func (g *Graph) ShortestPathLens(src Node) []int {
	dist := make([]int, g.n)
	for i := range dist {
		dist[i] = -1
	}
	if !g.Valid(src) {
		return dist
	}
	dist[src] = 0
	queue := []Node{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for _, u := range g.adj[v] {
			if dist[u] == -1 {
				dist[u] = dist[v] + 1
				queue = append(queue, u)
			}
		}
	}
	return dist
}

// Bridges returns all bridge edges (edges whose removal disconnects the
// graph), sorted. It uses the standard DFS low-link algorithm.
func (g *Graph) Bridges() []Edge {
	disc := make([]int, g.n)
	low := make([]int, g.n)
	for i := range disc {
		disc[i] = -1
	}
	var out []Edge
	timer := 0

	// Iterative DFS to avoid recursion-depth limits on long chains.
	type frame struct {
		v, parent Node
		idx       int
	}
	for s := 0; s < g.n; s++ {
		if disc[s] != -1 {
			continue
		}
		stack := []frame{{v: Node(s), parent: None}}
		disc[s] = timer
		low[s] = timer
		timer++
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.idx < len(g.adj[f.v]) {
				u := g.adj[f.v][f.idx]
				f.idx++
				if u == f.parent {
					continue
				}
				if disc[u] != -1 {
					if disc[u] < low[f.v] {
						low[f.v] = disc[u]
					}
					continue
				}
				disc[u] = timer
				low[u] = timer
				timer++
				stack = append(stack, frame{v: u, parent: f.v})
				continue
			}
			stack = stack[:len(stack)-1]
			if len(stack) > 0 {
				p := &stack[len(stack)-1]
				if low[f.v] < low[p.v] {
					low[p.v] = low[f.v]
				}
				if low[f.v] > disc[p.v] {
					out = append(out, NormEdge(p.v, f.v))
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// Validate checks the adjacency lists: each strictly increasing, every
// entry another node of the graph, twice NumEdges entries in all, and
// every edge in both ends' lists. It is used by tests and the topology
// tools.
func (g *Graph) Validate() error {
	entries := 0
	for v, nbrs := range g.adj {
		for i, u := range nbrs {
			switch {
			case i > 0 && u <= nbrs[i-1]:
				return fmt.Errorf("topology: adjacency of %d not strictly increasing", v)
			case !g.Valid(u) || u == Node(v):
				return fmt.Errorf("topology: adjacency of %d holds %d (n=%d)", v, u, g.n)
			}
		}
		entries += len(nbrs)
	}
	if entries != 2*g.nEdges {
		return fmt.Errorf("topology: %d adjacency entries for %d edges", entries, g.nEdges)
	}
	// Every list is sorted now, so HasEdge's search can be trusted.
	for v, nbrs := range g.adj {
		for _, u := range nbrs {
			if !g.HasEdge(u, Node(v)) {
				return fmt.Errorf("topology: %d is in the adjacency of %d, not %d in that of %d", u, v, v, u)
			}
		}
	}
	return nil
}

func insertSorted(s []Node, v Node) []Node {
	if i, ok := slices.BinarySearch(s, v); !ok {
		return slices.Insert(s, i, v)
	}
	return s
}

func removeSorted(s []Node, v Node) []Node {
	if i, ok := slices.BinarySearch(s, v); ok {
		return append(s[:i], s[i+1:]...)
	}
	return s
}
