// Package safety statically analyses a BGP scenario configuration —
// topology, per-node route-selection policies, export filters, and
// enhancements — and certifies its convergence behaviour without running
// the discrete-event simulator.
//
// The analysis follows the Stable Paths Problem framework of Griffin,
// Shepherd and Wilfong: it computes the permitted-path universe of every
// node for the scenario's destination, builds the dispute digraph over
// (node, permitted-path) states, and searches it for cycles. A cycle
// corresponds exactly to a dispute wheel; the absence of any dispute
// wheel guarantees that the protocol converges from every starting state
// ("no dispute wheel ⇒ safe"). Three verdicts are possible:
//
//   - SAFE: no dispute wheel can exist. Either a ranking-structure
//     theorem applies (shortest-path ranking, or Gao-Rexford with an
//     acyclic provider hierarchy), or the complete permitted-path
//     universe was enumerated and its dispute digraph is acyclic.
//     SAFE scenarios are guaranteed to converge; the dynamic
//     OscillationProbe can never fire on them.
//   - UNSAFE: a concrete dispute wheel was found and verified against
//     the path universe. The wheel is reported as a witness. UNSAFE
//     means convergence is not guaranteed (BAD-GADGET-style
//     configurations may oscillate forever); it does not by itself
//     prove divergence from every start.
//   - UNKNOWN: the universe had to be truncated (maxPaths,
//     maxPathsPerNode) before the analysis could certify either way.
//
// Independently of the convergence verdict, the package enumerates
// transient-loop candidates: ordered (node, fallback-path) pairs whose
// next hop ranks a path through the node itself — the paper's structural
// mechanism for MRAI-governed micro-loops — and reports which candidates
// the SSLD and Assertion enhancements provably eliminate.
//
// The package deliberately imports no simulation machinery (no des,
// netsim, or dataplane): verdicts are pure functions of the
// configuration.
package safety

import (
	"errors"
	"fmt"

	"bgploop/internal/bgp"
	"bgploop/internal/routing"
	"bgploop/internal/topology"
)

// Verdict is the result of the static convergence analysis.
type Verdict int

const (
	// Unknown means the analysis could not certify the scenario either
	// way (the permitted-path universe was truncated).
	Unknown Verdict = iota
	// Safe means no dispute wheel exists: convergence is guaranteed.
	Safe
	// Unsafe means a concrete dispute wheel was found: convergence is
	// not guaranteed.
	Unsafe
)

// String returns the verdict keyword used throughout CLI output.
func (v Verdict) String() string {
	switch v {
	case Safe:
		return "SAFE"
	case Unsafe:
		return "UNSAFE"
	default:
		return "UNKNOWN"
	}
}

// MarshalJSON encodes the verdict as its keyword string.
func (v Verdict) MarshalJSON() ([]byte, error) {
	return []byte(`"` + v.String() + `"`), nil
}

// The exhaustive universe enumeration is bounded so the analysis always
// terminates quickly. Hitting a bound truncates the universe: UNSAFE
// verdicts (found wheels) remain sound, but SAFE can no longer be
// certified and the verdict degrades to UNKNOWN. Paths are simple, so
// their length needs no bound of its own.
const (
	// maxPathsPerNode caps the permitted paths kept per node.
	maxPathsPerNode = 512
	// maxPaths caps the total permitted paths across all nodes.
	maxPaths = 8192
)

// Input is a resolved scenario configuration for analysis. It is built
// from the same ingredients as an experiment.Scenario but carries no
// timing parameters: the verdict depends only on topology, destination,
// ranking, and export filtering; the enhancement flags refine the
// transient-loop candidate report.
type Input struct {
	// Graph is the (pre-failure) AS topology.
	Graph *topology.Graph
	// Dest is the destination AS under analysis.
	Dest topology.Node
	// Policy ranks candidates at every node; nil means
	// routing.ShortestPath.
	Policy routing.Policy
	// PolicyFor, when non-nil, supplies per-node policies and overrides
	// Policy (mirrors bgp.Config.PolicyFor).
	PolicyFor func(self topology.Node) routing.Policy
	// Export, when non-nil, filters which routes may be advertised to
	// which peers. Nil exports everything.
	Export bgp.ExportPolicy
	// Enhancements marks which convergence enhancements the scenario
	// runs; used to annotate transient-loop candidates.
	Enhancements bgp.Enhancements
	// Candidates requests transient-loop candidate enumeration in
	// addition to the convergence verdict.
	Candidates bool
}

// policyAt resolves the ranking policy of node v.
func (in Input) policyAt(v topology.Node) routing.Policy {
	if in.PolicyFor != nil {
		if p := in.PolicyFor(v); p != nil {
			return p
		}
	}
	if in.Policy != nil {
		return in.Policy
	}
	return routing.ShortestPath{}
}

// shouldExport applies the export filter (nil exports everything).
func (in Input) shouldExport(self, learnedFrom, to topology.Node) bool {
	if in.Export == nil {
		return true
	}
	return in.Export.ShouldExport(self, learnedFrom, to)
}

// Report is the full result of a static analysis.
type Report struct {
	// Verdict is the convergence certification.
	Verdict Verdict `json:"verdict"`
	// Proof names the argument behind the verdict:
	// "increasing-ranking", "gao-rexford", "acyclic-dispute-digraph",
	// "dispute-wheel", or "truncated-universe".
	Proof string `json:"proof"`
	// Reason is a one-line human-readable explanation.
	Reason string `json:"reason"`
	// Nodes and Edges describe the analysed topology.
	Nodes int `json:"nodes"`
	Edges int `json:"edges"`
	// Universe summarises the exhaustive enumeration when it ran
	// (absent when a ranking-structure theorem short-circuited it).
	Universe *UniverseStats `json:"universe,omitempty"`
	// Wheel is the dispute-wheel witness for UNSAFE verdicts.
	Wheel *Wheel `json:"wheel,omitempty"`
	// Candidates lists the transient-loop candidates when requested.
	Candidates []Candidate `json:"candidates,omitempty"`
	// CandidateStats summarises the candidate enumeration (zero value
	// when candidates were not requested).
	CandidateStats CandidateStats `json:"candidateStats"`
}

// UniverseStats summarises an exhaustive permitted-path enumeration.
type UniverseStats struct {
	// Paths is the total number of permitted paths across all nodes.
	Paths int `json:"paths"`
	// States and Arcs size the dispute digraph that was searched.
	States int `json:"states"`
	Arcs   int `json:"arcs"`
	// Truncated marks an incomplete enumeration; TruncatedAt says
	// which limit was hit.
	Truncated   bool   `json:"truncated,omitempty"`
	TruncatedAt string `json:"truncatedAt,omitempty"`
}

// Analyze runs the full static analysis.
//
// It first tries ranking-structure fast paths that certify SAFE without
// enumerating paths (shortest-path ranking at every node; Gao-Rexford
// ranking plus export with an acyclic customer-provider hierarchy) —
// this is what lets large cliques verify in microseconds. Otherwise it
// enumerates the bounded permitted-path universe, builds the
// dispute digraph, and searches for a wheel.
func Analyze(in Input) (*Report, error) {
	if in.Graph == nil {
		return nil, errors.New("safety: nil topology")
	}
	if !in.Graph.Valid(in.Dest) {
		return nil, fmt.Errorf("safety: destination %d not in topology", in.Dest)
	}
	r := &Report{
		Nodes: in.Graph.NumNodes(),
		Edges: in.Graph.NumEdges(),
	}

	switch {
	case in.allShortestPath():
		r.Verdict = Safe
		r.Proof = "increasing-ranking"
		r.Reason = "every node ranks by hop count: along any dispute wheel the rim lengths would have to sum to zero, so no wheel can exist"
	case in.allGaoRexford():
		r.Verdict = Safe
		r.Proof = "gao-rexford"
		r.Reason = "Gao-Rexford ranking and export over an acyclic customer-provider hierarchy admit no dispute wheel"
	default:
		u := buildUniverse(in)
		r.Universe = &u.Stats
		wheel, cycle := findWheel(in, u)
		switch {
		case wheel != nil:
			if err := wheel.Verify(in); err != nil {
				// Defensive: a found cycle must always convert to a
				// verifiable wheel. Degrade to UNKNOWN with the raw
				// cycle rather than report an unverified witness.
				r.Verdict = Unknown
				r.Proof = "unverified-wheel"
				r.Reason = fmt.Sprintf("dispute cycle found (%s) but witness verification failed: %v", cycle, err)
				return r, nil
			}
			r.Verdict = Unsafe
			r.Proof = "dispute-wheel"
			r.Reason = fmt.Sprintf("dispute wheel over %d pivot(s): convergence is not guaranteed", len(wheel.Pivots))
			r.Wheel = wheel
		case u.Stats.Truncated:
			r.Verdict = Unknown
			r.Proof = "truncated-universe"
			r.Reason = fmt.Sprintf("permitted-path universe truncated (%s) before the dispute digraph could be certified acyclic", u.Stats.TruncatedAt)
		default:
			r.Verdict = Safe
			r.Proof = "acyclic-dispute-digraph"
			r.Reason = fmt.Sprintf("complete dispute digraph (%d states, %d arcs) is acyclic: no dispute wheel exists", u.Stats.States, u.Stats.Arcs)
		}
	}

	if in.Candidates {
		fw, err := NewForwarding(in)
		if err != nil {
			return nil, err
		}
		r.Candidates = fw.EnumerateCandidates()
		r.CandidateStats = summarize(r.Candidates)
	}
	return r, nil
}

// allShortestPath reports whether every node provably ranks by
// routing.ShortestPath. Hop-count ranking is strictly increasing along
// any rim path, so summing the dispute-wheel inequalities λ(Q_i) ≤
// λ(R_i·Q_{i+1}) around the wheel forces Σ|R_i| ≤ 0 — impossible for
// nonempty rims. The peer-ID tie-break cannot resurrect a wheel (ties
// only arise between equal-length paths) and export filters only shrink
// the permitted universe, so any export policy keeps the verdict SAFE.
func (in Input) allShortestPath() bool {
	if in.PolicyFor == nil {
		if in.Policy == nil {
			return true
		}
		_, ok := in.Policy.(routing.ShortestPath)
		return ok
	}
	for _, v := range in.Graph.Nodes() {
		p := in.PolicyFor(v)
		if p == nil {
			p = in.Policy
		}
		if p == nil {
			continue // resolves to ShortestPath
		}
		if _, ok := p.(routing.ShortestPath); !ok {
			return false
		}
	}
	return true
}

// allGaoRexford reports whether every node ranks by routing.GaoRexford
// over one shared relationship annotation, the export policy is the
// matching GaoRexfordExport, and the customer→provider digraph is
// acyclic — the classic sufficient condition for inter-domain stability
// (Gao & Rexford 2001).
func (in Input) allGaoRexford() bool {
	var rel *topology.Relationships
	for _, v := range in.Graph.Nodes() {
		p := in.policyAt(v)
		gr, ok := p.(routing.GaoRexford)
		if !ok || gr.Rel == nil || gr.Self != v {
			return false
		}
		if rel == nil {
			rel = gr.Rel
		} else if rel != gr.Rel {
			return false
		}
	}
	if rel == nil {
		return false
	}
	exp, ok := in.Export.(bgp.GaoRexfordExport)
	if !ok || exp.Rel != rel {
		return false
	}
	return rel.Acyclic(in.Graph)
}
