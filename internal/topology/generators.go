package topology

import (
	"fmt"
	"math"
	"math/rand"
)

// BarabasiAlbert generates a preferential-attachment graph: m0 = m fully
// meshed seed nodes, then each new node attaches to m distinct existing
// nodes with probability proportional to their degree.
//
// The paper's footnote 1 observes that degree-based (power-law) generators
// are unsuitable for the small topology sizes it studies; this generator
// exists so that claim can be tested directly (see the topology-model
// ablation), not as the default substrate.
func BarabasiAlbert(n, m int, seed int64) (*Graph, error) {
	if m < 1 {
		return nil, fmt.Errorf("topology: barabasi-albert needs m >= 1, got %d", m)
	}
	if n <= m {
		return nil, fmt.Errorf("topology: barabasi-albert needs n > m (got n=%d, m=%d)", n, m)
	}
	rng := rand.New(rand.NewSource(seed ^ 0x9A17))
	g := New(n)
	g.SetName(fmt.Sprintf("ba-%d-m%d", n, m))
	for a := 0; a < m; a++ {
		for b := a + 1; b < m; b++ {
			mustAddEdge(g, Node(a), Node(b))
		}
	}
	if m == 1 {
		// Degenerate seed: a single node; first attachment is forced.
		mustAddEdge(g, 1, 0)
	}
	start := m
	if m == 1 {
		start = 2
	}
	for v := start; v < n; v++ {
		// v's edges so far are exactly the targets it has chosen.
		for g.Degree(Node(v)) < m {
			u := pickPreferential(g, rng, 0, v, Node(-1))
			if g.HasEdge(Node(v), u) {
				// Resample uniformly to guarantee progress on small
				// graphs with concentrated degree mass.
				u = Node(rng.Intn(v))
			}
			if g.HasEdge(Node(v), u) {
				continue
			}
			mustAddEdge(g, Node(v), u)
		}
	}
	return g, nil
}

// Waxman generates the classic Waxman random geometric graph: n nodes
// placed uniformly in the unit square, each pair connected with
// probability alpha * exp(-dist / (beta * sqrt(2))). If the sampled graph
// is disconnected, nearest-component edges are added to connect it
// (flagged in the name with "+").
func Waxman(n int, alpha, beta float64, seed int64) (*Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("topology: waxman needs n >= 2, got %d", n)
	}
	if alpha <= 0 || alpha > 1 || beta <= 0 {
		return nil, fmt.Errorf("topology: waxman needs 0 < alpha <= 1 and beta > 0 (got %g, %g)", alpha, beta)
	}
	rng := rand.New(rand.NewSource(seed ^ 0x3A77))
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := range xs {
		xs[i] = rng.Float64()
		ys[i] = rng.Float64()
	}
	dist := func(a, b int) float64 {
		dx, dy := xs[a]-xs[b], ys[a]-ys[b]
		return math.Sqrt(dx*dx + dy*dy)
	}
	g := New(n)
	g.SetName(fmt.Sprintf("waxman-%d", n))
	maxDist := math.Sqrt2
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			p := alpha * math.Exp(-dist(a, b)/(beta*maxDist))
			if rng.Float64() < p {
				mustAddEdge(g, Node(a), Node(b))
			}
		}
	}
	// Stitch components together by joining each non-root component to
	// its geometrically nearest node in the root component.
	patched := false
	for {
		hops := g.ShortestPathLens(0) // -1 off node 0's component
		var far Node = None
		for _, v := range g.Nodes() {
			if hops[v] == -1 {
				far = v
				break
			}
		}
		if far == None {
			break
		}
		best, bestD := None, math.Inf(1)
		for _, v := range g.Nodes() {
			if hops[v] == -1 {
				continue
			}
			if d := dist(int(far), int(v)); d < bestD {
				best, bestD = v, d
			}
		}
		mustAddEdge(g, far, best)
		patched = true
	}
	if patched {
		g.SetName(g.Name() + "+")
	}
	return g, nil
}
