package topology

import (
	"fmt"
	"maps"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// edgeSetGraph is the reference the adjacency lists answer to: a set of
// normalised edges, with no order to keep and nothing to mirror.
type edgeSetGraph struct {
	n     int
	edges map[Edge]bool
}

func (r *edgeSetGraph) valid(v Node) bool { return v >= 0 && int(v) < r.n }

// add reports whether AddEdge must succeed, and records the edge if so.
func (r *edgeSetGraph) add(a, b Node) bool {
	if !r.valid(a) || !r.valid(b) || a == b {
		return false
	}
	r.edges[NormEdge(a, b)] = true
	return true
}

func (r *edgeSetGraph) remove(a, b Node) bool {
	e := NormEdge(a, b)
	had := r.edges[e]
	delete(r.edges, e)
	return had
}

func (r *edgeSetGraph) neighbors(v Node) []Node {
	if !r.valid(v) {
		return nil
	}
	out := []Node{}
	for e := range r.edges {
		if e.A == v {
			out = append(out, e.B)
		} else if e.B == v {
			out = append(out, e.A)
		}
	}
	slices.Sort(out)
	return out
}

// fuzzNode maps a byte onto ids in and around a graph of n nodes: every
// node, a few ids past the end, negatives and MaxNode.
func fuzzNode(b byte, n int) Node {
	if b == 0xff {
		return MaxNode
	}
	return Node(int(b)%(n+6) - 2)
}

// graphDiff replays data as a graph of data[0]%12 nodes and a run of
// three-byte ops (AddEdge, AddEdge, RemoveEdge, Clone) against
// edgeSetGraph, and describes the first difference, or returns "". After
// every op it compares every query on every id fuzzNode can produce; a
// Clone carries on with the copy and, at the end, the original must still
// hold the edges it had when copied.
func graphDiff(data []byte) string {
	if len(data) == 0 {
		return ""
	}
	n := int(data[0] % 12)
	g, ref := New(n), &edgeSetGraph{n: n, edges: map[Edge]bool{}}
	var orig *Graph
	var origEdges map[Edge]bool
	ids := []Node{MaxNode}
	for b := 0; b < n+6; b++ {
		ids = append(ids, fuzzNode(byte(b), n))
	}
	for i := 1; i+2 < len(data); i += 3 {
		a, b := fuzzNode(data[i+1], n), fuzzNode(data[i+2], n)
		var op string
		switch data[i] % 4 {
		case 0, 1:
			op = fmt.Sprintf("AddEdge(%d, %d)", a, b)
			if err := g.AddEdge(a, b); (err == nil) != ref.add(a, b) {
				return fmt.Sprintf("op %d %s: error %v", i/3, op, err)
			}
		case 2:
			op = fmt.Sprintf("RemoveEdge(%d, %d)", a, b)
			if got, want := g.RemoveEdge(a, b), ref.remove(a, b); got != want {
				return fmt.Sprintf("op %d %s = %v, want %v", i/3, op, got, want)
			}
		case 3:
			op = "Clone"
			orig, origEdges = g, maps.Clone(ref.edges)
			g = g.Clone()
		}
		if diff := sameGraph(g, ref, ids); diff != "" {
			return fmt.Sprintf("after op %d %s: %s", i/3, op, diff)
		}
	}
	if orig != nil {
		if diff := sameGraph(orig, &edgeSetGraph{n: n, edges: origEdges}, ids); diff != "" {
			return "the graph last cloned: " + diff
		}
	}
	return ""
}

func sameGraph(g *Graph, ref *edgeSetGraph, ids []Node) string {
	if err := g.Validate(); err != nil {
		return err.Error()
	}
	if g.NumEdges() != len(ref.edges) {
		return fmt.Sprintf("NumEdges = %d, want %d", g.NumEdges(), len(ref.edges))
	}
	if got, want := g.Edges(), edgesBySort(ref.edges); !reflect.DeepEqual(got, want) {
		return fmt.Sprintf("Edges = %v, want %v", got, want)
	}
	for _, a := range ids {
		if got, want := g.Neighbors(a), ref.neighbors(a); !reflect.DeepEqual(got, want) {
			return fmt.Sprintf("Neighbors(%d) = %v, want %v", a, got, want)
		}
		for _, b := range ids {
			if got, want := g.HasEdge(a, b), ref.edges[NormEdge(a, b)]; got != want {
				return fmt.Sprintf("HasEdge(%d, %d) = %v, want %v", a, b, got, want)
			}
		}
	}
	return ""
}

// TestGraphMatchesEdgeSet replays random op streams; FuzzGraphMatchesEdgeSet
// lets the fuzzer pick them.
func TestGraphMatchesEdgeSet(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 300; i++ {
		data := make([]byte, 1+rng.Intn(150))
		rng.Read(data)
		if diff := graphDiff(data); diff != "" {
			t.Fatalf("case %d (%x): %s", i, data, diff)
		}
	}
}

func FuzzGraphMatchesEdgeSet(f *testing.F) {
	f.Add([]byte{})
	// Four nodes: add 0-1 twice (once reversed), a self-loop, 0-4 past the
	// end, clone, remove 1-0, remove it again.
	f.Add([]byte{4, 0, 2, 3, 1, 3, 2, 0, 4, 4, 0, 2, 6, 3, 0, 0, 2, 3, 2, 2, 3, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 301 {
			data = data[:301] // a hundred ops fill and empty a 12-node graph
		}
		if diff := graphDiff(data); diff != "" {
			t.Fatal(diff)
		}
	})
}
