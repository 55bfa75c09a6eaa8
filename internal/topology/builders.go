package topology

import (
	"fmt"
	"strings"

	"bgploop/internal/invariant"
)

// Clique returns the full mesh on n nodes (Figure 3a of the paper), the
// standard basis topology for T_down convergence analysis.
func Clique(n int) *Graph {
	g := New(n)
	g.SetName(fmt.Sprintf("clique-%d", n))
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			mustAddEdge(g, Node(a), Node(b))
		}
	}
	return g
}

// BClique returns the Backup-Clique topology of size n (Figure 3b): 2n
// nodes where 0..n-1 form a chain, n..2n-1 form a clique, node 0 connects
// to node n, and node n-1 connects to node 2n-1. It models an edge network
// (node 0) with a direct link and a long backup path to a well-connected
// core. The T_long event of the paper fails the [0, n] link.
func BClique(n int) *Graph {
	g := New(2 * n)
	g.SetName(fmt.Sprintf("bclique-%d", n))
	for i := 0; i < n-1; i++ {
		mustAddEdge(g, Node(i), Node(i+1))
	}
	for a := n; a < 2*n; a++ {
		for b := a + 1; b < 2*n; b++ {
			mustAddEdge(g, Node(a), Node(b))
		}
	}
	if n >= 1 {
		mustAddEdge(g, 0, Node(n))
	}
	if n >= 2 {
		mustAddEdge(g, Node(n-1), Node(2*n-1))
	}
	return g
}

// BCliqueShortcut returns the link the paper fails to trigger a T_long
// event in a B-Clique of size n: the direct link between the edge AS 0 and
// the clique entry node n.
func BCliqueShortcut(n int) Edge { return NormEdge(0, Node(n)) }

// Chain returns the line topology 0-1-2-...-(n-1).
func Chain(n int) *Graph {
	g := New(n)
	g.SetName(fmt.Sprintf("chain-%d", n))
	for i := 0; i < n-1; i++ {
		mustAddEdge(g, Node(i), Node(i+1))
	}
	return g
}

// Ring returns the cycle topology on n nodes.
func Ring(n int) *Graph {
	g := New(n)
	g.SetName(fmt.Sprintf("ring-%d", n))
	for i := 0; i < n-1; i++ {
		mustAddEdge(g, Node(i), Node(i+1))
	}
	if n > 2 {
		mustAddEdge(g, Node(n-1), 0)
	}
	return g
}

// Star returns the hub-and-spoke topology: node 0 connected to 1..n-1.
func Star(n int) *Graph {
	g := New(n)
	g.SetName(fmt.Sprintf("star-%d", n))
	for i := 1; i < n; i++ {
		mustAddEdge(g, 0, Node(i))
	}
	return g
}

// Figure1 returns the 7-node example topology of Figure 1 in the paper.
// The destination is attached to node 0; node 4 reaches it directly over
// the link [4 0]; nodes 5 and 6 forward through 4; and the long backup
// path (6 3 2 1 0) exists through the chain 6-3-2-1-0. Failing [4 0]
// produces the paper's canonical transient 2-node loop between 5 and 6.
func Figure1() *Graph {
	g := New(7)
	g.SetName("figure1")
	edges := [][2]Node{
		{0, 1}, {1, 2}, {2, 3}, {3, 6},
		{0, 4}, {4, 5}, {4, 6}, {5, 6},
	}
	for _, e := range edges {
		mustAddEdge(g, e[0], e[1])
	}
	return g
}

// Figure1FailedLink returns the link whose failure triggers the transient
// loop in the Figure 1 scenario.
func Figure1FailedLink() Edge { return NormEdge(4, 0) }

// Figure2Loop returns a chain-of-cliques style topology that reproduces
// the §3.2 analysis setting: an m-node ring c1..cm around the destination
// with one distant backup path, so that a single failure forms an m-node
// loop whose resolution requires a path update to travel around the ring,
// delayed by up to MRAI at each hop.
//
// Layout for m >= 2: node 0 is the destination; nodes 1..m form the ring
// candidates; node m+1..m+k form a long chain from node 1 to the
// destination serving as the eventual backup. Specifically:
//
//	0 - 1            (the failing primary link)
//	i - i+1          for 1 <= i < m   (ring body)
//	m - 1            (ring closure)
//	1 - m+1 - ... - m+k - 0  (backup chain of length k+2)
func Figure2Loop(m, k int) *Graph {
	if m < 2 {
		m = 2
	}
	if k < 1 {
		k = 1
	}
	g := New(m + k + 1)
	g.SetName(fmt.Sprintf("figure2-m%d-k%d", m, k))
	mustAddEdge(g, 0, 1)
	for i := 1; i < m; i++ {
		mustAddEdge(g, Node(i), Node(i+1))
	}
	if m > 2 {
		mustAddEdge(g, Node(m), 1)
	}
	prev := Node(1)
	for j := 0; j < k; j++ {
		next := Node(m + 1 + j)
		mustAddEdge(g, prev, next)
		prev = next
	}
	mustAddEdge(g, prev, 0)
	return g
}

// mustAddEdge adds an edge that is valid by construction; builders control
// both endpoints so a failure here is a bug in the builder itself.
//
// Unreachability justification (robustness audit): AddEdge fails only for
// out-of-range endpoints or self-loops. Every caller is
// a deterministic topology builder in this file that computes endpoints
// from the graph size it just allocated, so no user input can reach this
// path — only an arithmetic bug in a builder. The builders' exported
// signatures intentionally return *Graph without an error (they are used
// in expression position throughout the scenario constructors); failing
// loudly at the exact broken edge is strictly more debuggable than
// threading an impossible error through every call site, and routing the
// panic through invariant.Unreachable gives trial recovery a stable,
// shrinkable failure signature. User-supplied edges go through
// Graph.AddEdge / ReadEdgeList, which return errors.
func mustAddEdge(g *Graph, a, b Node) {
	if err := g.AddEdge(a, b); err != nil {
		invariant.Unreachable("topology-must-add-edge", err.Error())
	}
}

// families is the one table of generated topology families: every name a
// scenario spec's topology.family or a CLI's -topo can say, apart from
// the spec-only "file" and "edges" forms. size is the family's size
// parameter (unused by figure1); seed drives the random families.
var families = []struct {
	name  string
	build func(size int, seed int64) (*Graph, error)
}{
	{"clique", func(n int, _ int64) (*Graph, error) { return Clique(n), nil }},
	{"bclique", func(n int, _ int64) (*Graph, error) { return BClique(n), nil }},
	{"chain", func(n int, _ int64) (*Graph, error) { return Chain(n), nil }},
	{"ring", func(n int, _ int64) (*Graph, error) { return Ring(n), nil }},
	{"star", func(n int, _ int64) (*Graph, error) { return Star(n), nil }},
	{"figure1", func(int, int64) (*Graph, error) { return Figure1(), nil }},
	{"figure2", func(n int, _ int64) (*Graph, error) { return Figure2Loop(n, n), nil }},
	{"internet", InternetLike},
	{"ba", func(n int, seed int64) (*Graph, error) { return BarabasiAlbert(n, 2, seed) }},
	{"waxman", func(n int, seed int64) (*Graph, error) { return Waxman(n, 0.9, 0.25, seed) }},
}

// Families lists the generated family names, in table order.
func Families() []string {
	names := make([]string, len(families))
	for i, f := range families {
		names[i] = f.name
	}
	return names
}

// Generate builds the named family's graph.
func Generate(family string, size int, seed int64) (*Graph, error) {
	for _, f := range families {
		if f.name == family {
			return f.build(size, seed)
		}
	}
	return nil, fmt.Errorf("topology: unknown family %q (known: %s)", family, strings.Join(Families(), ", "))
}
