package topology

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"testing/quick"
)

func TestClique(t *testing.T) {
	for _, n := range []int{2, 5, 10} {
		g := Clique(n)
		if g.NumNodes() != n {
			t.Errorf("clique-%d nodes = %d", n, g.NumNodes())
		}
		if want := n * (n - 1) / 2; g.NumEdges() != want {
			t.Errorf("clique-%d edges = %d, want %d", n, g.NumEdges(), want)
		}
		for _, v := range g.Nodes() {
			if g.Degree(v) != n-1 {
				t.Errorf("clique-%d degree(%d) = %d, want %d", n, v, g.Degree(v), n-1)
			}
		}
		if err := g.Validate(); err != nil {
			t.Error(err)
		}
	}
}

func TestBCliqueStructure(t *testing.T) {
	n := 5
	g := BClique(n)
	if g.NumNodes() != 2*n {
		t.Fatalf("bclique-%d nodes = %d, want %d", n, g.NumNodes(), 2*n)
	}
	// Chain part.
	for i := 0; i < n-1; i++ {
		if !g.HasEdge(Node(i), Node(i+1)) {
			t.Errorf("missing chain edge %d-%d", i, i+1)
		}
	}
	// Clique part.
	for a := n; a < 2*n; a++ {
		for b := a + 1; b < 2*n; b++ {
			if !g.HasEdge(Node(a), Node(b)) {
				t.Errorf("missing clique edge %d-%d", a, b)
			}
		}
	}
	// Attachment links from Figure 3b.
	if !g.HasEdge(0, Node(n)) {
		t.Error("missing edge [0 n]")
	}
	if !g.HasEdge(Node(n-1), Node(2*n-1)) {
		t.Error("missing edge [n-1 2n-1]")
	}
	if want := (n - 1) + n*(n-1)/2 + 2; g.NumEdges() != want {
		t.Errorf("edges = %d, want %d", g.NumEdges(), want)
	}
	// The shortcut failure must not disconnect the graph (T_long, not
	// T_down): the chain + far attachment is the backup path.
	if !g.ConnectedWithout(BCliqueShortcut(n)) {
		t.Error("failing the [0 n] shortcut disconnected the B-Clique")
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
}

func TestFigure1(t *testing.T) {
	g := Figure1()
	if g.NumNodes() != 7 || g.NumEdges() != 8 {
		t.Fatalf("figure1 = %d nodes %d edges, want 7/8", g.NumNodes(), g.NumEdges())
	}
	// Node 4's direct route and the long backup path must both exist.
	if !g.HasEdge(4, 0) {
		t.Error("missing primary link [4 0]")
	}
	for _, e := range [][2]Node{{6, 3}, {3, 2}, {2, 1}, {1, 0}} {
		if !g.HasEdge(e[0], e[1]) {
			t.Errorf("missing backup-path edge %d-%d", e[0], e[1])
		}
	}
	// Failing [4 0] must keep the graph connected: the loop scenario is a
	// T_long event.
	if !g.ConnectedWithout(Figure1FailedLink()) {
		t.Error("figure1 disconnected by failing [4 0]")
	}
	// With [4 0] up, node 5 is 2 hops from 0 (via 4); with it down, 4
	// hops (via 6 3 2 1 0 is 5 hops from 6... from 5: 5-6-3-2-1-0).
	d := g.ShortestPathLens(0)
	if d[5] != 2 {
		t.Errorf("dist(0,5) = %d, want 2", d[5])
	}
}

func TestFigure2Loop(t *testing.T) {
	g := Figure2Loop(4, 3)
	if !g.Connected() {
		t.Fatal("figure2 graph disconnected")
	}
	if !g.ConnectedWithout(NormEdge(0, 1)) {
		t.Error("failing the primary link [0 1] must leave the backup chain")
	}
	if err := g.Validate(); err != nil {
		t.Error(err)
	}
}

func TestChainRingStar(t *testing.T) {
	if g := Chain(4); g.NumEdges() != 3 || !g.Connected() {
		t.Error("chain-4 malformed")
	}
	if g := Ring(4); g.NumEdges() != 4 || len(g.Bridges()) != 0 {
		t.Error("ring-4 malformed")
	}
	if g := Star(5); g.NumEdges() != 4 || g.Degree(0) != 4 {
		t.Error("star-5 malformed")
	}
}

// TestGenerateFamilies: every name in the family table builds a
// connected graph, by the same constructor its name promises, and an
// unknown name is refused.
func TestGenerateFamilies(t *testing.T) {
	for _, family := range Families() {
		g, err := Generate(family, 8, 1)
		if err != nil {
			t.Errorf("%s: %v", family, err)
			continue
		}
		if g.NumNodes() == 0 || !g.Connected() {
			t.Errorf("%s: %d nodes, connected = %v", family, g.NumNodes(), g.Connected())
		}
	}
	if g, _ := Generate("bclique", 8, 1); g.Name() != BClique(8).Name() || g.NumEdges() != BClique(8).NumEdges() {
		t.Errorf("bclique built %s", g.Name())
	}
	if g, _ := Generate("figure2", 3, 1); g.Name() != Figure2Loop(3, 3).Name() {
		t.Errorf("figure2 built %s", g.Name())
	}
	if _, err := Generate("moebius", 8, 1); err == nil {
		t.Error("unknown family accepted")
	}
}

func TestInternetLikeProperties(t *testing.T) {
	for _, n := range PaperInternetSizes {
		g, err := InternetLike(n, 7)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if g.NumNodes() != n {
			t.Errorf("n=%d: nodes = %d", n, g.NumNodes())
		}
		if !g.Connected() {
			t.Errorf("n=%d: disconnected", n)
		}
		s := Summarize(g)
		if s.MinDegree < 1 {
			t.Errorf("n=%d: min degree %d", n, s.MinDegree)
		}
		// The degree distribution must be skewed: the busiest AS should
		// have several times the degree of a stub.
		if s.MaxDegree < 3*s.MinDegree {
			t.Errorf("n=%d: degree distribution not skewed (min=%d max=%d)", n, s.MinDegree, s.MaxDegree)
		}
		// There must be a healthy population of low-degree stubs to draw
		// destinations from.
		if len(LowestDegreeNodes(g)) < 2 {
			t.Errorf("n=%d: too few lowest-degree nodes", n)
		}
		if err := g.Validate(); err != nil {
			t.Errorf("n=%d: %v", n, err)
		}
	}
}

func TestInternetLikeDeterministic(t *testing.T) {
	a, err := InternetLike(48, 123)
	if err != nil {
		t.Fatal(err)
	}
	b, err := InternetLike(48, 123)
	if err != nil {
		t.Fatal(err)
	}
	ea, eb := a.Edges(), b.Edges()
	if len(ea) != len(eb) {
		t.Fatalf("edge counts differ: %d vs %d", len(ea), len(eb))
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("edge %d differs: %v vs %v", i, ea[i], eb[i])
		}
	}
	c, err := InternetLike(48, 124)
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Edges()) == len(ea) {
		same := true
		for i, e := range c.Edges() {
			if e != ea[i] {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical graphs")
		}
	}
}

func TestInternetLikeTooSmall(t *testing.T) {
	if _, err := InternetLike(3, 1); err == nil {
		t.Error("n=3 accepted")
	}
}

func TestPropertyInternetAlwaysConnected(t *testing.T) {
	f := func(n uint8, seed int64) bool {
		size := 4 + int(n)%120
		g, err := InternetLike(size, seed)
		if err != nil {
			return false
		}
		return g.Connected() && g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	orig, err := InternetLike(29, 5)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteEdgeList(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := ReadEdgeList(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name() != orig.Name() {
		t.Errorf("name = %q, want %q", back.Name(), orig.Name())
	}
	if back.NumNodes() != orig.NumNodes() || back.NumEdges() != orig.NumEdges() {
		t.Fatalf("shape mismatch after round trip")
	}
	for i, e := range back.Edges() {
		if orig.Edges()[i] != e {
			t.Fatalf("edge %d = %v, want %v", i, e, orig.Edges()[i])
		}
	}
}

func TestReadEdgeListErrors(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"no header", "0 1\n"},
		{"bad count", "nodes x\n"},
		{"bad edge", "nodes 3\n0 x\n"},
		{"edge out of range", "nodes 2\n0 5\n"},
		{"empty", ""},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := ReadEdgeList(bytes.NewBufferString(tt.in)); err == nil {
				t.Errorf("input %q accepted", tt.in)
			}
		})
	}
}

// TestReadEdgeListRefusesOutOfRangeIDs: an endpoint no Node holds is an
// error naming its line, never an id wrapped into the graph (1 <-> 2^32
// would otherwise read as the edge 0-1).
func TestReadEdgeListRefusesOutOfRangeIDs(t *testing.T) {
	for _, id := range []int{1 << 31, 1 << 32, -2, -1} {
		for _, in := range []string{fmt.Sprintf("nodes 3\n1 %d\n", id), fmt.Sprintf("nodes 3\n%d 1\n", id)} {
			_, err := ReadEdgeList(strings.NewReader(in))
			if err == nil || !strings.Contains(err.Error(), "line 2: topology: node id") {
				t.Errorf("input %q: got error %v, want a line-2 id error", in, err)
			}
		}
	}
	for _, n := range []int{-1, 1<<31 + 1} {
		if _, err := ReadEdgeList(strings.NewReader(fmt.Sprintf("nodes %d\n", n))); err == nil {
			t.Errorf("node count %d accepted", n)
		}
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize(Clique(6))
	if !s.Connected || s.Diameter != 1 || s.MinDegree != 5 || s.MaxDegree != 5 {
		t.Errorf("clique-6 stats wrong: %+v", s)
	}
	if s.AvgDegree != 5 {
		t.Errorf("clique-6 avg degree = %v, want 5", s.AvgDegree)
	}
	s2 := Summarize(New(3))
	if s2.Connected || s2.Diameter != -1 {
		t.Errorf("edgeless stats wrong: %+v", s2)
	}
}

func TestLowestDegreeNodes(t *testing.T) {
	g := Star(5)
	lows := LowestDegreeNodes(g)
	if len(lows) != 4 {
		t.Fatalf("star-5 lowest-degree count = %d, want 4", len(lows))
	}
	for _, v := range lows {
		if v == 0 {
			t.Error("hub reported as lowest degree")
		}
	}
}

func TestNonBridgeIncidentEdges(t *testing.T) {
	g := BClique(4)
	// Node 0 has two incident edges (chain 0-1 and shortcut 0-4); both lie
	// on the single big cycle so both survive removal.
	got := NonBridgeIncidentEdges(g, 0)
	if len(got) != 2 {
		t.Errorf("bclique node 0 non-bridge edges = %v, want 2 edges", got)
	}
	c := Chain(4)
	if got := NonBridgeIncidentEdges(c, 1); len(got) != 0 {
		t.Errorf("chain node 1 non-bridge edges = %v, want none", got)
	}
}

func TestDegreeHistogram(t *testing.T) {
	h := DegreeHistogram(Star(5))
	if h[4] != 1 || h[1] != 4 {
		t.Errorf("star-5 histogram = %v", h)
	}
}
