package experiment

import (
	"errors"
	"fmt"
	"strings"

	"bgploop/internal/bgp"
	"bgploop/internal/core/sortedmap"
	"bgploop/internal/routing"
	"bgploop/internal/topology"
)

// The names of the routing policies a scenario can select
// (Scenario.NamedPolicy, the ScenarioSpec "policy" field).
const (
	// PolicyShortestPath is the paper's model, the default when no name
	// is given: every node ranks by path length and exports everything.
	PolicyShortestPath = "shortestPath"
	// PolicyBadGadget installs Griffin's BAD GADGET per-node ranking, the
	// repo's reference UNSAFE configuration; see BadGadget.
	PolicyBadGadget = "badGadget"
	// PolicyGaoRexford installs Gao-Rexford routing over the
	// relationships topology.InternetRelations assigns to the graph:
	// customer routes before peer routes before provider routes, and
	// valley-free export.
	PolicyGaoRexford = "gaoRexford"
)

// namedPolicy is one entry of the policy table. check refuses a graph and
// destination the policy is not defined on; hooks builds the per-node
// ranking and the export filter from the graph alone (nil keeps the
// shortest-path defaults).
type namedPolicy struct {
	check func(g *topology.Graph, dest topology.Node) error
	hooks func(g *topology.Graph) (func(topology.Node) routing.Policy, bgp.ExportPolicy)
}

// policies is the one table of named routing policies. A name fully
// determines its hooks given the graph, so the cache key hashes the
// name in place of the hooks, and a scenario travels as a spec
// (forensic bundles, bgpd, dist workers) by its name alone.
var policies = map[string]namedPolicy{
	PolicyShortestPath: {},
	PolicyBadGadget: {
		// The gadget's ring ranking is defined only on the canonical
		// 4-node layout with the destination at the hub.
		check: func(g *topology.Graph, dest topology.Node) error {
			if n := g.NumNodes(); n != 4 {
				return fmt.Errorf("needs a 4-node topology, got %d nodes", n)
			}
			if dest != 0 {
				return fmt.Errorf("needs dest 0, got %d", dest)
			}
			return nil
		},
		hooks: func(*topology.Graph) (func(topology.Node) routing.Policy, bgp.ExportPolicy) {
			next := []topology.Node{0, 2, 3, 1}
			return func(self topology.Node) routing.Policy {
				if self == 0 {
					return routing.ShortestPath{}
				}
				return badGadgetPolicy{next: next[self]}
			}, nil
		},
	},
	PolicyGaoRexford: {
		check: func(g *topology.Graph, _ topology.Node) error {
			if n := g.NumNodes(); n < 4 {
				return fmt.Errorf("needs at least 4 nodes, got %d", n)
			}
			return nil
		},
		// One Relationships shared by every node's ranking and by the
		// export filter, as the analyzer's gao-rexford proof requires.
		hooks: func(g *topology.Graph) (func(topology.Node) routing.Policy, bgp.ExportPolicy) {
			rels := topology.InternetRelations(g)
			return func(self topology.Node) routing.Policy {
				return routing.GaoRexford{Self: self, Rel: rels}
			}, bgp.GaoRexfordExport{Rel: rels}
		},
	},
}

// policy looks the scenario's named policy up and checks it against the
// graph and destination. A name comes with its hooks, so a scenario that
// also sets its own PolicyFor or Export is refused.
func (s Scenario) policy() (namedPolicy, error) {
	name := s.NamedPolicy
	if name == "" {
		return namedPolicy{}, nil
	}
	p, ok := policies[name]
	switch {
	case !ok:
		return p, fmt.Errorf("experiment: unknown policy %q (want %s)", name, strings.Join(sortedmap.Keys(policies), ", "))
	case s.BGP.PolicyFor != nil || s.BGP.Export != nil:
		return p, fmt.Errorf("experiment: policy %q and a PolicyFor or Export hook of the scenario's own", name)
	case s.Graph == nil:
		return p, errors.New("experiment: nil topology")
	}
	if p.check != nil {
		if err := p.check(s.Graph, s.Dest); err != nil {
			return p, fmt.Errorf("experiment: policy %q %w", name, err)
		}
	}
	return p, nil
}

// withPolicy returns s with its named policy's hooks installed in BGP.
// Scenario.lowered and SafetyInput call it; no other code turns a name
// into hooks.
func (s Scenario) withPolicy() (Scenario, error) {
	p, err := s.policy()
	if err == nil && p.hooks != nil {
		s.BGP.PolicyFor, s.BGP.Export = p.hooks(s.Graph)
	}
	return s, err
}

// policyKey is the (policy, export) pair CacheKey hashes. The
// shortest-path default keeps "shortest-path" and "everything", a named
// policy contributes its name, and ok is false for what a key cannot see:
// a PolicyFor or Export hook set by hand (the tests' fault-injection
// seam), a custom Policy, or a name that does not apply to the scenario.
func (s Scenario) policyKey() (policy, export string, ok bool) {
	switch s.BGP.Policy.(type) {
	case nil, routing.ShortestPath:
	default:
		return "", "", false
	}
	if s.BGP.PolicyFor != nil || s.BGP.Export != nil {
		return "", "", false
	}
	p, err := s.policy()
	switch {
	case err != nil:
		return "", "", false
	case p.hooks == nil:
		return "shortest-path", "everything", true
	}
	return s.NamedPolicy, s.NamedPolicy, true
}

// badGadgetPolicy is node i's policy in Griffin's BAD GADGET: the
// two-hop path through the next ring node is preferred over the direct
// path, and every other path ranks below both. On a K4 with hub 0 this
// ranking admits no stable routing — the protocol oscillates forever.
type badGadgetPolicy struct {
	next topology.Node
}

func (p badGadgetPolicy) rank(c routing.Candidate) int {
	switch {
	case c.Peer == p.next && c.Path.Len() == 2:
		return 0
	case c.Path.Len() == 1:
		return 1
	default:
		return 2
	}
}

func (p badGadgetPolicy) Better(a, b routing.Candidate) bool {
	ar, br := p.rank(a), p.rank(b)
	if ar != br {
		return ar < br
	}
	if a.Path.Len() != b.Path.Len() {
		return a.Path.Len() < b.Path.Len()
	}
	return a.Peer < b.Peer
}

// BadGadget builds Griffin's canonical no-solution policy dispute:
// destination 0 at the hub of a K4, ring nodes 1-2-3 each preferring the
// clockwise neighbor's two-hop path over their direct path. The
// configuration contains a dispute wheel (pivots 1→2→3) and admits no
// stable routing: dynamically the run oscillates until maxEvents, and
// statically Preflight classifies it UNSAFE. MRAI 0 keeps the dispute
// wheel spinning at full speed.
//
// The scenario names its policy (PolicyBadGadget), so it is cacheable
// and expressible as a ScenarioSpec file via "policy": "badGadget". It is
// the repo's reference UNSAFE fixture for tests, for `bgpverify -gadget`,
// and for bgpd's strict-preflight refusal path.
func BadGadget(maxEvents uint64) Scenario {
	cfg := bgp.DefaultConfig()
	cfg.MRAI = 0
	s := TDownScenario(topology.Clique(4), 0, cfg, 1)
	s.MaxEvents = maxEvents
	s.NamedPolicy = PolicyBadGadget
	return s
}
