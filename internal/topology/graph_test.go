package topology

import (
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestAddRemoveEdge(t *testing.T) {
	g := New(4)
	if err := g.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	if !g.HasEdge(0, 1) || !g.HasEdge(1, 0) {
		t.Error("edge 0-1 should exist in both directions")
	}
	if g.NumEdges() != 1 {
		t.Errorf("NumEdges = %d, want 1", g.NumEdges())
	}
	// Duplicate add is a no-op.
	if err := g.AddEdge(1, 0); err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 1 {
		t.Errorf("NumEdges after dup add = %d, want 1", g.NumEdges())
	}
	if !g.RemoveEdge(1, 0) {
		t.Error("RemoveEdge existing should report true")
	}
	if g.RemoveEdge(0, 1) {
		t.Error("RemoveEdge missing should report false")
	}
	if g.HasEdge(0, 1) {
		t.Error("edge survived removal")
	}
}

func TestNodeOfAndEdgeOf(t *testing.T) {
	for _, v := range []int{0, 1, MaxNode} {
		if n, err := NodeOf(v); err != nil || int(n) != v {
			t.Errorf("NodeOf(%d) = %d, %v", v, n, err)
		}
	}
	for _, v := range []int{-1, -2, MaxNode + 1, 1 << 32, 1<<32 + 1} {
		if n, err := NodeOf(v); err == nil {
			t.Errorf("NodeOf(%d) = %d, want an error", v, n)
		}
		if e, err := EdgeOf(1, v); err == nil {
			t.Errorf("EdgeOf(1, %d) = %v, want an error", v, e)
		}
	}
	if e, err := EdgeOf(MaxNode, 3); err != nil || e != (Edge{A: 3, B: MaxNode}) {
		t.Errorf("EdgeOf(MaxNode, 3) = %v, %v", e, err)
	}
}

func TestAddEdgeErrors(t *testing.T) {
	g := New(3)
	if err := g.AddEdge(0, 0); err == nil {
		t.Error("self-loop accepted")
	}
	if err := g.AddEdge(0, 3); err == nil {
		t.Error("out-of-range node accepted")
	}
	if err := g.AddEdge(-1, 1); err == nil {
		t.Error("negative node accepted")
	}
}

func TestNeighborsSortedAndCopied(t *testing.T) {
	g := New(5)
	for _, b := range []Node{4, 2, 3, 1} {
		if err := g.AddEdge(0, b); err != nil {
			t.Fatal(err)
		}
	}
	nbrs := g.Neighbors(0)
	want := []Node{1, 2, 3, 4}
	for i := range want {
		if nbrs[i] != want[i] {
			t.Fatalf("Neighbors(0) = %v, want %v", nbrs, want)
		}
	}
	nbrs[0] = 99
	if g.Neighbors(0)[0] != 1 {
		t.Error("Neighbors returned internal slice, not a copy")
	}
}

func TestCloneIndependence(t *testing.T) {
	g := Clique(4)
	c := g.Clone()
	c.RemoveEdge(0, 1)
	if !g.HasEdge(0, 1) {
		t.Error("removing edge in clone affected original")
	}
	if err := c.Validate(); err != nil {
		t.Errorf("clone invalid: %v", err)
	}
}

func TestConnectivity(t *testing.T) {
	tests := []struct {
		name string
		g    *Graph
		want bool
	}{
		{"clique", Clique(5), true},
		{"chain", Chain(5), true},
		{"empty-2", New(2), false},
		{"single", New(1), true},
		{"zero", New(0), true},
	}
	for _, tt := range tests {
		if got := tt.g.Connected(); got != tt.want {
			t.Errorf("%s: Connected = %v, want %v", tt.name, got, tt.want)
		}
	}
}

func TestConnectedWithout(t *testing.T) {
	g := Ring(5)
	// Removing any ring edge keeps it connected.
	for _, e := range g.Edges() {
		if !g.ConnectedWithout(e) {
			t.Errorf("ring should survive removal of %v", e)
		}
	}
	c := Chain(5)
	for _, e := range c.Edges() {
		if c.ConnectedWithout(e) {
			t.Errorf("chain should be cut by removal of %v", e)
		}
	}
}

func TestShortestPathLens(t *testing.T) {
	g := Chain(5)
	d := g.ShortestPathLens(0)
	for i := 0; i < 5; i++ {
		if d[i] != i {
			t.Errorf("dist(0,%d) = %d, want %d", i, d[i], i)
		}
	}
	g2 := New(3)
	if err := g2.AddEdge(0, 1); err != nil {
		t.Fatal(err)
	}
	d2 := g2.ShortestPathLens(0)
	if d2[2] != -1 {
		t.Errorf("unreachable node dist = %d, want -1", d2[2])
	}
}

func TestBridges(t *testing.T) {
	// Chain: every edge is a bridge.
	c := Chain(6)
	if got := len(c.Bridges()); got != 5 {
		t.Errorf("chain-6 bridges = %d, want 5", got)
	}
	// Ring: no bridges.
	r := Ring(6)
	if got := len(r.Bridges()); got != 0 {
		t.Errorf("ring-6 bridges = %d, want 0", got)
	}
	// B-Clique: the chain edges are bridges; the clique and the two
	// attachment edges form a cycle through the chain... actually the
	// chain plus both attachment links forms one big cycle, so nothing
	// is a bridge.
	b := BClique(4)
	if got := len(b.Bridges()); got != 0 {
		t.Errorf("bclique-4 bridges = %d, want 0", got)
	}
}

func TestBridgesMatchConnectedWithout(t *testing.T) {
	// Cross-validate the DFS bridge finder against the BFS definition on
	// random graphs.
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := 5 + rng.Intn(15)
		g := Chain(n) // start connected
		extra := rng.Intn(2 * n)
		for i := 0; i < extra; i++ {
			a, b := Node(rng.Intn(n)), Node(rng.Intn(n))
			if a != b {
				if err := g.AddEdge(a, b); err != nil {
					t.Fatal(err)
				}
			}
		}
		bridges := make(map[Edge]bool)
		for _, e := range g.Bridges() {
			bridges[e] = true
		}
		for _, e := range g.Edges() {
			if got, want := bridges[e], !g.ConnectedWithout(e); got != want {
				t.Fatalf("trial %d: edge %v bridge=%v but ConnectedWithout=%v", trial, e, got, !want)
			}
		}
	}
}

func TestPropertyInsertRemoveSorted(t *testing.T) {
	f := func(vals []uint8) bool {
		var s []Node
		for _, v := range vals {
			s = insertSorted(s, Node(v))
		}
		for i := 1; i < len(s); i++ {
			if s[i] <= s[i-1] {
				return false
			}
		}
		for _, v := range vals {
			s = removeSorted(s, Node(v))
		}
		return len(s) == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestValidate(t *testing.T) {
	g := Clique(6)
	if err := g.Validate(); err != nil {
		t.Errorf("clique invalid: %v", err)
	}
	g.RemoveEdge(0, 1)
	if err := g.Validate(); err != nil {
		t.Errorf("clique after removal invalid: %v", err)
	}
}

// TestValidateRejectsCorruptLists corrupts the adjacency lists or the edge
// count of a Chain(4), 0-1-2-3, one way at a time.
func TestValidateRejectsCorruptLists(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(g *Graph)
		want    string
	}{
		{"unsorted", func(g *Graph) { g.adj[1] = []Node{2, 0} }, "not strictly increasing"},
		{"duplicate", func(g *Graph) { g.adj[1] = []Node{0, 0, 2} }, "not strictly increasing"},
		// 3 moves from 2's list to 0's: the entry count still matches.
		{"asymmetric", func(g *Graph) { g.adj[0], g.adj[2] = []Node{1, 3}, []Node{1} }, "not 0 in that of 3"},
		{"beyond n", func(g *Graph) { g.adj[3] = []Node{2, 4} }, "holds 4"},
		{"negative", func(g *Graph) { g.adj[0] = []Node{-1, 1} }, "holds -1"},
		{"self-loop", func(g *Graph) { g.adj[1] = []Node{0, 1, 2} }, "holds 1"},
		{"count", func(g *Graph) { g.nEdges++ }, "6 adjacency entries for 4 edges"},
	} {
		g := Chain(4)
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: Chain(4) invalid before the corruption: %v", tc.name, err)
		}
		tc.corrupt(g)
		if err := g.Validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

// TestInvalidNodeQueries: a node id outside the graph has no neighbours,
// no incident edges and no edges, and asking does not panic.
func TestInvalidNodeQueries(t *testing.T) {
	g := Clique(4)
	for _, v := range []Node{None, -2, 4, 7, MaxNode} {
		if g.Neighbors(v) != nil || g.Degree(v) != 0 || g.IncidentEdges(v) != nil {
			t.Errorf("node %d: Neighbors %v, Degree %d, IncidentEdges %v", v, g.Neighbors(v), g.Degree(v), g.IncidentEdges(v))
		}
		if g.HasEdge(0, v) || g.HasEdge(v, 0) || g.HasEdge(v, v) {
			t.Errorf("node %d has an edge", v)
		}
		if g.RemoveEdge(v, 1) {
			t.Errorf("RemoveEdge(%d, 1) removed an edge", v)
		}
	}
	if g.NumEdges() != 6 {
		t.Errorf("NumEdges = %d, want 6", g.NumEdges())
	}
}

func TestEdgesSorted(t *testing.T) {
	g := Clique(5)
	edges := g.Edges()
	for i := 1; i < len(edges); i++ {
		a, b := edges[i-1], edges[i]
		if a.A > b.A || (a.A == b.A && a.B >= b.B) {
			t.Fatalf("Edges not sorted at %d: %v then %v", i, a, b)
		}
	}
}

// edgesBySort is the map dump Edges once was: every edge of the set,
// sorted by (A, B).
func edgesBySort(set map[Edge]bool) []Edge {
	out := make([]Edge, 0, len(set))
	for e := range set {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].A != out[j].A {
			return out[i].A < out[j].A
		}
		return out[i].B < out[j].B
	})
	return out
}

// TestEdgesMatchesMapSort: walking the adjacency lists yields exactly the
// sorted edge set, on every family and as edges are removed. The set is
// read off the generated graph with HasEdge on every pair and then kept
// apart from it, losing each edge the graph loses.
func TestEdgesMatchesMapSort(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, family := range Families() {
		for _, size := range []int{4, 9, 30} {
			g, err := Generate(family, size, int64(size))
			if err != nil {
				t.Fatalf("%s(%d): %v", family, size, err)
			}
			set := map[Edge]bool{}
			for a := Node(0); int(a) < g.NumNodes(); a++ {
				for b := a + 1; int(b) < g.NumNodes(); b++ {
					if g.HasEdge(a, b) {
						set[Edge{A: a, B: b}] = true
					}
				}
			}
			for len(set) > 0 {
				if got, want := g.Edges(), edgesBySort(set); !reflect.DeepEqual(got, want) || g.NumEdges() != len(set) {
					t.Fatalf("%s(%d) with %d edges: Edges %v, sorted edge set %v", family, size, g.NumEdges(), got, want)
				}
				e := edgesBySort(set)[rng.Intn(len(set))]
				delete(set, e)
				if !g.RemoveEdge(e.B, e.A) {
					t.Fatalf("%s(%d): RemoveEdge%v found no edge", family, size, e)
				}
			}
			if got := g.Edges(); len(got) != 0 {
				t.Fatalf("%s(%d): edgeless graph has edges %v", family, size, got)
			}
		}
	}
}

func TestNormEdge(t *testing.T) {
	if NormEdge(5, 2) != (Edge{A: 2, B: 5}) {
		t.Error("NormEdge did not order endpoints")
	}
	if NormEdge(2, 5) != NormEdge(5, 2) {
		t.Error("NormEdge not symmetric")
	}
}
