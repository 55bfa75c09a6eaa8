package experiment

import (
	"fmt"
	"math/rand"
	"testing"

	"bgploop/internal/des"
	"bgploop/internal/topology"
)

// drawTLongPerEdgeBFS is drawTLong as it was before it took the bridge set
// from one low-link pass: topology.NonBridgeIncidentEdges per node, i.e. a
// breadth-first search per incident edge. Kept as the oracle.
func drawTLongPerEdgeBFS(g *topology.Graph, seed int64) (topology.Node, topology.Edge, error) {
	type choice struct {
		dest topology.Node
		link topology.Edge
	}
	var (
		choices   []choice
		minDegree = -1
	)
	for _, dest := range g.Nodes() {
		edges := topology.NonBridgeIncidentEdges(g, dest)
		if len(edges) == 0 {
			continue
		}
		d := g.Degree(dest)
		if minDegree == -1 || d < minDegree {
			minDegree = d
			choices = choices[:0]
		}
		if d == minDegree {
			for _, e := range edges {
				choices = append(choices, choice{dest: dest, link: e})
			}
		}
	}
	if len(choices) == 0 {
		return 0, topology.Edge{}, fmt.Errorf("experiment: no failable T_long link in %s", g.Name())
	}
	pick := des.NewRNG(seed).Stream(fmt.Sprintf("experiment/tlong/%d", g.NumNodes()))
	c := choices[pick.Intn(len(choices))]
	return c.dest, c.link, nil
}

// TestDrawTLongMatchesPerEdgeBFS checks that the bridge-set draw picks the
// same (destination, link) — or fails with the same error — as the per-edge
// search on every generated family and on seeded random graphs that
// include trees, graphs with bridges and pendant nodes, and disconnected
// graphs.
func TestDrawTLongMatchesPerEdgeBFS(t *testing.T) {
	var graphs []*topology.Graph
	for _, family := range topology.Families() {
		for _, size := range []int{4, 9, 30} {
			g, err := topology.Generate(family, size, int64(size))
			if err != nil {
				t.Fatalf("%s(%d): %v", family, size, err)
			}
			graphs = append(graphs, g)
		}
	}
	rng := rand.New(rand.NewSource(20043))
	for i := 0; i < 200; i++ {
		n := 1 + rng.Intn(24)
		g := topology.New(n)
		g.SetName(fmt.Sprintf("random-%d", i))
		// A random spanning tree first (skipped for every fifth graph,
		// which is then most likely disconnected), then extra edges: none
		// for every fourth graph, which stays a tree.
		if i%5 != 0 {
			for v := 1; v < n; v++ {
				_ = g.AddEdge(topology.Node(v), topology.Node(rng.Intn(v)))
			}
		}
		if i%4 != 0 {
			for k := rng.Intn(n + 1); k > 0; k-- {
				_ = g.AddEdge(topology.Node(rng.Intn(n)), topology.Node(rng.Intn(n))) // self-loops and repeats are refused
			}
		}
		graphs = append(graphs, g)
	}

	drawn, refused, disconnected := 0, 0, 0
	for _, g := range graphs {
		if !g.Connected() {
			disconnected++
		}
		for seed := int64(1); seed <= 3; seed++ {
			dest, link, err := drawTLong(g, seed)
			wantDest, wantLink, wantErr := drawTLongPerEdgeBFS(g, seed)
			if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
				t.Fatalf("%s seed %d: error %v, per-edge search %v", g.Name(), seed, err, wantErr)
			}
			if dest != wantDest || link != wantLink {
				t.Fatalf("%s seed %d: drew dest %d link %v, per-edge search dest %d link %v",
					g.Name(), seed, dest, link, wantDest, wantLink)
			}
			if err != nil {
				refused++
			} else {
				drawn++
			}
		}
	}
	t.Logf("%d graphs (%d disconnected): %d draws agreed, %d refusals agreed", len(graphs), disconnected, drawn, refused)
	if drawn == 0 || refused == 0 || disconnected == 0 {
		t.Error("the graphs no longer cover a draw, a refusal and a disconnected graph")
	}
}
