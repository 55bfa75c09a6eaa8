package topology

// Stats summarises the structural properties of a graph. It backs the
// topogen tool and the topology sections of EXPERIMENTS.md.
type Stats struct {
	Nodes     int
	Edges     int
	MinDegree int
	MaxDegree int
	AvgDegree float64
	Diameter  int // -1 if disconnected
	Connected bool
	Bridges   int
}

// Summarize computes Stats for g.
func Summarize(g *Graph) Stats {
	s := Stats{
		Nodes:     g.NumNodes(),
		Edges:     g.NumEdges(),
		Connected: g.Connected(),
		Diameter:  Diameter(g),
		Bridges:   len(g.Bridges()),
	}
	if s.Nodes == 0 {
		return s
	}
	s.MinDegree = g.Degree(0)
	for _, v := range g.Nodes() {
		d := g.Degree(v)
		if d < s.MinDegree {
			s.MinDegree = d
		}
		if d > s.MaxDegree {
			s.MaxDegree = d
		}
	}
	s.AvgDegree = 2 * float64(s.Edges) / float64(s.Nodes)
	return s
}

// Diameter returns the longest shortest-path length in hops, or -1 if the
// graph is disconnected or empty.
func Diameter(g *Graph) int {
	if g.NumNodes() == 0 {
		return -1
	}
	max := 0
	for _, v := range g.Nodes() {
		for _, d := range g.ShortestPathLens(v) {
			if d == -1 {
				return -1
			}
			if d > max {
				max = d
			}
		}
	}
	return max
}

// DegreeHistogram returns a map from degree to the number of nodes having
// that degree.
func DegreeHistogram(g *Graph) map[int]int {
	h := make(map[int]int)
	for _, v := range g.Nodes() {
		h[g.Degree(v)]++
	}
	return h
}

// LowestDegreeNodes returns the nodes whose degree equals the graph's
// minimum degree, in ascending ID order. The paper chooses the destination
// AS "randomly ... among the nodes with the lowest degrees".
func LowestDegreeNodes(g *Graph) []Node {
	if g.NumNodes() == 0 {
		return nil
	}
	min := g.Degree(0)
	for _, v := range g.Nodes() {
		if d := g.Degree(v); d < min {
			min = d
		}
	}
	var out []Node
	for _, v := range g.Nodes() {
		if g.Degree(v) == min {
			out = append(out, v)
		}
	}
	return out
}

// NonBridgeIncidentEdges returns the edges incident to v whose removal
// keeps the graph connected — the candidate links for a T_long failure.
func NonBridgeIncidentEdges(g *Graph, v Node) []Edge {
	var out []Edge
	for _, e := range g.IncidentEdges(v) {
		if g.ConnectedWithout(e) {
			out = append(out, e)
		}
	}
	return out
}
