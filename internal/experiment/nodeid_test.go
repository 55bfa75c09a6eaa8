package experiment

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"bgploop/internal/bgp"
	"bgploop/internal/invariant"
)

// outOfRangeIDs are ids no topology.Node holds: each wraps onto another
// id when narrowed to int32 (2^32 onto node 0), so each must be refused
// with an error where a spec, a bundle or a guard config hands it in.
var outOfRangeIDs = []int{1 << 31, 1 << 32, -2}

// TestSpecRefusesOutOfRangeNodeIDs feeds every node-id field of a scenario
// spec an id outside [0, MaxNode], and -1 wherever None is not legal.
func TestSpecRefusesOutOfRangeNodeIDs(t *testing.T) {
	const (
		clique = `{"topology": {"family": "clique", "size": 4}, "dest": 3, "seed": 1, `
		ring   = `{"topology": {"family": "ring", "size": 5}, "dest": 3, "seed": 1, `
		plan   = `"faultPlan": {"phases": [{"name": "p", "measure": true, "role": "main", "actions": [%s]}]}}`
	)
	sites := []struct {
		name, spec, want string
		noneLegal        bool // -1 names something (the destination draw)
	}{
		{"action link", clique + fmt.Sprintf(plan, `{"op": "linkDown", "link": [%d, 1]}`), "outside [0, 2147483647]", false},
		{"action node", clique + fmt.Sprintf(plan, `{"op": "nodeDown", "node": %d}`), "outside [0, 2147483647]", false},
		{"action links", clique + fmt.Sprintf(plan, `{"op": "groupDown", "links": [[0, 1], [%d, 2]]}`), "outside [0, 2147483647]", false},
		{"edges", `{"topology": {"family": "edges", "size": 3, "edges": [[0, 1], [1, 2], [%d, 2]]}, "event": "tdown"}`, "outside [0, 2147483647]", false},
		{"dest", `{"topology": {"family": "clique", "size": 4}, "event": "tdown", "dest": %d}`, "outside [0, 2147483647]", true},
		{"failLink", ring + `"event": "tlong", "failLink": [%d, 1]}`, "outside [0, 2147483647]", false},
		{"corruptFIBNode", clique + `"event": "tdown", "guard": {"cadence": "full", "corruptFIBNode": %d}}`, "not in topology", false},
	}
	for _, site := range sites {
		ids := outOfRangeIDs
		if !site.noneLegal {
			ids = append(ids, -1)
		}
		for _, id := range ids {
			raw := fmt.Sprintf(site.spec, id)
			_, err := LoadScenario(strings.NewReader(raw))
			if err == nil || !strings.Contains(err.Error(), site.want) {
				t.Errorf("%s = %d: got error %v, want one containing %q", site.name, id, err, site.want)
			}
		}
		// The same spec with an id in range loads: the error above is the id's.
		if _, err := LoadScenario(strings.NewReader(fmt.Sprintf(site.spec, 0))); err != nil {
			t.Errorf("%s = 0: %v", site.name, err)
		}
	}
}

// TestSpecRefusesNodeIDsPastTheGraph feeds the link fields ids a Node
// holds but the graph does not: n+3, where HasEdge's search of the
// adjacency lists must not index past them.
func TestSpecRefusesNodeIDsPastTheGraph(t *testing.T) {
	const plan = `{"topology": {"family": "clique", "size": 4}, "dest": 3, "seed": 1, "faultPlan": {"phases": [{"name": "p", "measure": true, "role": "main", "actions": [%s]}]}}`
	for _, site := range []struct{ name, spec string }{
		{"failLink", `{"topology": {"family": "ring", "size": 5}, "dest": 3, "seed": 1, "event": "tlong", "failLink": [0, 8]}`},
		{"action link", fmt.Sprintf(plan, `{"op": "linkDown", "link": [7, 1]}`)},
		{"action links", fmt.Sprintf(plan, `{"op": "groupDown", "links": [[0, 1], [7, 2]]}`)},
	} {
		if _, err := LoadScenario(strings.NewReader(site.spec)); err == nil || !strings.Contains(err.Error(), "not in topology") {
			t.Errorf("%s: got error %v, want one containing %q", site.name, err, "not in topology")
		}
	}
}

// TestScenarioRefusesOutOfRangeCorruptFIBNode holds Validate and the guard
// engine's builder, which read the corruption target straight from a
// Scenario, to the same range.
func TestScenarioRefusesOutOfRangeCorruptFIBNode(t *testing.T) {
	for _, id := range append(outOfRangeIDs, -1) {
		s := CliqueTDown(4, bgp.DefaultConfig(), 1)
		s.Dest = 3
		s.Guard = invariant.Config{Cadence: invariant.CadenceFull, CorruptFIBNode: &id}
		if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "not in topology") {
			t.Errorf("Validate with CorruptFIBNode %d: %v", id, err)
		}
		if _, err := buildGuardEngine(s, nil, nil, nil); err == nil {
			t.Errorf("buildGuardEngine with CorruptFIBNode %d: no error", id)
		}
	}
}

// TestShrinkRefusesOutOfRangeNodeIDs: a bundle naming an id no Node holds
// is refused, and the edge pass compares links without narrowing them, so
// such an id pins no real link.
func TestShrinkRefusesOutOfRangeNodeIDs(t *testing.T) {
	for _, id := range append(outOfRangeIDs, -1) {
		raw := fmt.Sprintf(`{"topology": {"family": "ring", "size": 5}, "event": "tlong", "failLink": [%d, 1], "seed": 1}`, id)
		b := &invariant.Bundle{Signature: "x", Scenario: json.RawMessage(raw)}
		if _, _, err := ShrinkFailure(b, 10); err == nil || !strings.Contains(err.Error(), "outside [0, 2147483647]") {
			t.Errorf("ShrinkFailure with failLink [%d, 1]: %v", id, err)
		}
	}
	spec := shrinkFixture(t)
	spec.FaultPlan, spec.Event, spec.FailLink = nil, "tdown", &[2]int{1 << 32, 1}
	dropped := false
	for _, c := range shrinkRemoveEdge(spec) {
		dropped = dropped || c.Topology.Edges[0] != [2]int{0, 1}
	}
	if !dropped {
		t.Error("link [4294967296, 1] pinned [0, 1]: no candidate drops it")
	}
}
