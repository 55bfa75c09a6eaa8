package safety

import (
	"encoding/json"
	"strings"
	"testing"

	"bgploop/internal/bgp"
	"bgploop/internal/routing"
	"bgploop/internal/topology"
)

// gadgetPolicy reproduces Griffin's BAD GADGET ranking for tests: the
// two-hop path through `next` beats the direct path, everything else
// ranks last (mirrors the experiment package's BadGadget fixture).
type gadgetPolicy struct {
	next topology.Node
}

func (p gadgetPolicy) rank(c routing.Candidate) int {
	switch {
	case c.Peer == p.next && c.Path.Len() == 2:
		return 0
	case c.Path.Len() == 1:
		return 1
	default:
		return 2
	}
}

func (p gadgetPolicy) Better(a, b routing.Candidate) bool {
	ar, br := p.rank(a), p.rank(b)
	if ar != br {
		return ar < br
	}
	if a.Path.Len() != b.Path.Len() {
		return a.Path.Len() < b.Path.Len()
	}
	return a.Peer < b.Peer
}

func badGadgetInput() Input {
	next := []topology.Node{0, 2, 3, 1}
	return Input{
		Graph: topology.Clique(4),
		Dest:  0,
		PolicyFor: func(self topology.Node) routing.Policy {
			if self == 0 {
				return routing.ShortestPath{}
			}
			return gadgetPolicy{next: next[self]}
		},
	}
}

// likeShortestPath ranks exactly like ShortestPath but is a distinct
// type, forcing the exhaustive dispute-digraph analysis.
type likeShortestPath struct{}

func (likeShortestPath) Better(a, b routing.Candidate) bool {
	if a.Path.Len() != b.Path.Len() {
		return a.Path.Len() < b.Path.Len()
	}
	return a.Peer < b.Peer
}

func TestShortestPathFastPath(t *testing.T) {
	rep, err := Analyze(Input{Graph: topology.Clique(30), Dest: 0})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != Safe {
		t.Fatalf("verdict = %v, want SAFE (%s)", rep.Verdict, rep.Reason)
	}
	if rep.Proof != "increasing-ranking" {
		t.Errorf("proof = %q, want increasing-ranking", rep.Proof)
	}
	if rep.Universe != nil {
		t.Error("fast path must not enumerate the universe")
	}
}

func TestBadGadgetUnsafe(t *testing.T) {
	rep, err := Analyze(badGadgetInput())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != Unsafe {
		t.Fatalf("verdict = %v, want UNSAFE (%s)", rep.Verdict, rep.Reason)
	}
	if rep.Wheel == nil || len(rep.Wheel.Pivots) == 0 {
		t.Fatal("UNSAFE verdict must carry a wheel witness")
	}
	if err := rep.Wheel.Verify(badGadgetInput()); err != nil {
		t.Fatalf("wheel witness failed verification: %v", err)
	}
	rendered := rep.Wheel.String()
	if !strings.Contains(rendered, "dispute wheel") {
		t.Errorf("rendered witness %q lacks the dispute-wheel header", rendered)
	}
	// The canonical gadget wheel pivots on the three ring nodes.
	seen := map[topology.Node]bool{}
	for _, p := range rep.Wheel.Pivots {
		seen[p.Node] = true
	}
	for _, want := range []topology.Node{1, 2, 3} {
		if !seen[want] {
			t.Errorf("wheel pivots %v missing ring node %d", rep.Wheel.Pivots, want)
		}
	}
}

func TestExhaustiveSafeTriangle(t *testing.T) {
	g := topology.New(3)
	for _, e := range [][2]topology.Node{{0, 1}, {1, 2}, {0, 2}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := Analyze(Input{Graph: g, Dest: 0, Policy: likeShortestPath{}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != Safe {
		t.Fatalf("verdict = %v, want SAFE (%s)", rep.Verdict, rep.Reason)
	}
	if rep.Proof != "acyclic-dispute-digraph" {
		t.Errorf("proof = %q, want acyclic-dispute-digraph", rep.Proof)
	}
	if rep.Universe == nil || rep.Universe.Truncated {
		t.Fatalf("expected a complete universe, got %+v", rep.Universe)
	}
}

func TestTruncationYieldsUnknown(t *testing.T) {
	in := Input{
		Graph:  topology.Clique(8), // 1,957 simple paths per node, above maxPathsPerNode
		Dest:   0,
		Policy: likeShortestPath{},
	}
	rep, err := Analyze(in)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != Unknown {
		t.Fatalf("verdict = %v, want UNKNOWN (%s)", rep.Verdict, rep.Reason)
	}
	if rep.Universe == nil || !rep.Universe.Truncated {
		t.Fatal("UNKNOWN verdict must report the truncated universe")
	}
}

func TestGaoRexfordFastPath(t *testing.T) {
	// 0 is 1's and 2's provider; 1 and 2 peer with each other; 3 is a
	// customer of both 1 and 2. Acyclic hierarchy ⇒ SAFE.
	g := topology.New(4)
	for _, e := range [][2]topology.Node{{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 3}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	rel := topology.NewRelationships()
	rel.SetProviderCustomer(0, 1)
	rel.SetProviderCustomer(0, 2)
	rel.SetPeers(1, 2)
	rel.SetProviderCustomer(1, 3)
	rel.SetProviderCustomer(2, 3)
	in := Input{
		Graph: g,
		Dest:  3,
		PolicyFor: func(self topology.Node) routing.Policy {
			return routing.GaoRexford{Self: self, Rel: rel}
		},
		Export: bgp.GaoRexfordExport{Rel: rel},
	}
	rep, err := Analyze(in)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != Safe {
		t.Fatalf("verdict = %v, want SAFE (%s)", rep.Verdict, rep.Reason)
	}
	if rep.Proof != "gao-rexford" {
		t.Errorf("proof = %q, want gao-rexford", rep.Proof)
	}
}

// repeatsAS reports whether some AS appears twice on p.
func repeatsAS(p routing.Path) bool {
	for i, a := range p {
		if p[:i].Contains(a) {
			return true
		}
	}
	return false
}

func TestUniverseSuffixClosed(t *testing.T) {
	in := Input{Graph: topology.Clique(5), Dest: 0, Policy: likeShortestPath{}}
	u := buildUniverse(in)
	if u.Stats.Truncated {
		t.Fatalf("clique-5 universe should be complete: %+v", u.Stats)
	}
	for _, v := range in.Graph.Nodes() {
		for _, p := range u.Paths[v] {
			if p.First() != v || p.Origin() != in.Dest {
				t.Fatalf("malformed universe path %s at node %d", p, v)
			}
			if repeatsAS(p) {
				t.Fatalf("non-simple universe path %s", p)
			}
			for j := 1; j < len(p); j++ {
				suf := routing.Path(p[j:])
				if u.Index(p[j], suf) < 0 {
					t.Fatalf("universe not suffix-closed: %s at %d lacks suffix %s", p, v, suf)
				}
			}
		}
	}
	// Clique-5 from any non-dest node: simple paths to 0 over {1,2,3,4}:
	// 1 + 3 + 3·2 + 3·2·1 = 16 per node.
	for _, v := range in.Graph.Nodes() {
		if v == in.Dest {
			continue
		}
		if got := len(u.Paths[v]); got != 16 {
			t.Errorf("|U(%d)| = %d, want 16", v, got)
		}
	}
}

func TestCandidatesCliqueShortestPath(t *testing.T) {
	rep, err := Analyze(Input{
		Graph:      topology.Clique(4),
		Dest:       0,
		Candidates: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Every ordered pair of non-destination nodes is a candidate: u can
	// fall back through v while v ranks a (stale) path through u.
	if rep.CandidateStats.Pairs != 6 {
		t.Fatalf("pairs = %d, want 6: %+v", rep.CandidateStats.Pairs, rep.Candidates)
	}
	for _, c := range rep.Candidates {
		if !c.Mutual || !c.SSLDEliminates {
			t.Errorf("clique candidate %s should be mutual and SSLD-eliminable", c)
		}
		if !c.AssertionEliminates {
			t.Errorf("clique candidate %s should have a deeper conflict for Assertion", c)
		}
		if c.Suppressed {
			t.Errorf("candidate %s suppressed without active enhancements", c)
		}
		if !c.Conflict.Contains(c.Node) {
			t.Errorf("conflict path %s does not contain node %d", c.Conflict, c.Node)
		}
		if c.Fallback.First() != c.Node || c.Fallback[1] != c.NextHop {
			t.Errorf("fallback %s does not run %d->%d", c.Fallback, c.Node, c.NextHop)
		}
	}
}

func TestCandidatesChainIsEmpty(t *testing.T) {
	g := topology.New(3)
	for _, e := range [][2]topology.Node{{0, 1}, {1, 2}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := Analyze(Input{Graph: g, Dest: 0, Candidates: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.CandidateStats.Pairs != 0 {
		t.Fatalf("chain candidates = %+v, want none", rep.Candidates)
	}
}

func TestCandidateSuppression(t *testing.T) {
	rep, err := Analyze(Input{
		Graph:        topology.Clique(4),
		Dest:         0,
		Enhancements: bgp.Enhancements{SSLD: true},
		Candidates:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.CandidateStats.Suppressed != rep.CandidateStats.SSLDEliminable {
		t.Errorf("suppressed = %d, want all %d SSLD-eliminable candidates",
			rep.CandidateStats.Suppressed, rep.CandidateStats.SSLDEliminable)
	}
}

func TestMatchLoop(t *testing.T) {
	fw, err := NewForwarding(Input{Graph: topology.Clique(4), Dest: 0})
	if err != nil {
		t.Fatal(err)
	}
	if ok, why := fw.MatchLoop([]topology.Node{1, 2}); !ok {
		t.Errorf("clique 1<->2 loop should match: %s", why)
	}
	if ok, why := fw.MatchLoop([]topology.Node{1, 2, 3}); !ok {
		t.Errorf("clique 1->2->3 loop should match: %s", why)
	}
	// A chain has no permitted arc 2->... other than toward 0.
	g := topology.New(3)
	for _, e := range [][2]topology.Node{{0, 1}, {1, 2}} {
		if err := g.AddEdge(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	cfw, err := NewForwarding(Input{Graph: g, Dest: 0})
	if err != nil {
		t.Fatal(err)
	}
	if ok, _ := cfw.MatchLoop([]topology.Node{1, 2}); ok {
		t.Error("chain 1<->2 loop must not match (1 has no permitted path via 2)")
	}
}

// TestVerdictJSONRoundTrip pins the report's JSON form: the verdict is
// its keyword, the wheel its pivots, and marshalling is deterministic.
// Nothing reads a report back; bgpverify -json is its consumer.
func TestVerdictJSONRoundTrip(t *testing.T) {
	rep, err := Analyze(badGadgetInput())
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back struct {
		Verdict string `json:"verdict"`
		Wheel   *struct {
			Pivots []json.RawMessage `json:"pivots"`
		} `json:"wheel"`
	}
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Verdict != "UNSAFE" {
		t.Errorf("marshalled verdict = %q, want UNSAFE", back.Verdict)
	}
	if back.Wheel == nil || len(back.Wheel.Pivots) != len(rep.Wheel.Pivots) {
		t.Errorf("marshalled wheel = %+v, want %d pivots", back.Wheel, len(rep.Wheel.Pivots))
	}
	data2, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Error("report JSON is not byte-identical across marshals")
	}
}

func TestAnalyzeDeterministic(t *testing.T) {
	a, err := Analyze(badGadgetInput())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Analyze(badGadgetInput())
	if err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if string(ja) != string(jb) {
		t.Errorf("verdict not deterministic:\n%s\n%s", ja, jb)
	}
}

func TestAnalyzeRejectsBadInput(t *testing.T) {
	if _, err := Analyze(Input{}); err == nil {
		t.Error("nil graph must be rejected")
	}
	if _, err := Analyze(Input{Graph: topology.Clique(3), Dest: 9}); err == nil {
		t.Error("out-of-range destination must be rejected")
	}
}
