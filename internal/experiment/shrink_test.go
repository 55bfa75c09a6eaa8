package experiment

import (
	"encoding/json"
	"reflect"
	"testing"

	"bgploop/internal/invariant"
)

// shrinkFixture is a 7-node spec that names nodes and links every way a
// spec can outside its topology: dest, the guard's corruption target, and
// fault-plan actions with a link, a node and a group. Nodes 0 and 6 and
// the links [0,1], [0,6], [1,6], [5,6] are named nowhere.
func shrinkFixture(t *testing.T) ScenarioSpec {
	t.Helper()
	const raw = `{
		"topology": {"family": "edges", "size": 7,
			"edges": [[0,1],[1,2],[2,3],[3,4],[4,5],[5,6],[0,6],[1,3],[2,4],[3,5],[1,6]]},
		"dest": 2, "seed": 1,
		"guard": {"cadence": "full", "corruptFIBNode": 1},
		"faultPlan": {"phases": [{"name": "p", "measure": true, "role": "main", "actions": [
			{"op": "linkDown", "link": [2, 3]},
			{"op": "nodeDown", "node": 5, "atSeconds": 1},
			{"op": "groupDown", "links": [[1, 3], [2, 4]], "atSeconds": 2},
			{"op": "undegrade", "links": [[3, 4]], "atSeconds": 3}]}]}}`
	var spec ScenarioSpec
	if err := json.Unmarshal([]byte(raw), &spec); err != nil {
		t.Fatal(err)
	}
	if _, err := spec.Scenario(); err != nil {
		t.Fatal(err)
	}
	return spec
}

func TestShrinkRemoveNodePinsAndRelabels(t *testing.T) {
	spec := shrinkFixture(t)
	before := cloneSpec(spec)
	cands := shrinkRemoveNode(spec)
	if !reflect.DeepEqual(spec, before) {
		t.Fatal("shrinkRemoveNode edited the spec it was given")
	}
	// Only the two unnamed nodes may go; removing 0 shifts every id down.
	if len(cands) != 2 {
		t.Fatalf("%d candidates, want 2 (nodes 0 and 6)", len(cands))
	}
	c := cands[0]
	if c.Topology.Size != 6 || len(c.Topology.Edges) != 9 {
		t.Errorf("after removing node 0: %d nodes, %d links, want 6 and 9", c.Topology.Size, len(c.Topology.Edges))
	}
	acts := c.FaultPlan.Phases[0].Actions
	if *c.Dest != 1 || *c.Guard.CorruptFIBNode != 0 ||
		*acts[0].Link != [2]int{1, 2} || *acts[1].Node != 4 ||
		!reflect.DeepEqual(acts[2].Links, [][2]int{{0, 2}, {1, 3}}) ||
		!reflect.DeepEqual(acts[3].Links, [][2]int{{2, 3}}) {
		t.Errorf("removing node 0 relabelled to dest=%d corrupt=%d actions=%+v", *c.Dest, *c.Guard.CorruptFIBNode, acts)
	}
	// Removing the highest id moves nothing.
	c = cands[1]
	if c.Topology.Size != 6 || *c.Dest != 2 || *c.FaultPlan.Phases[0].Actions[1].Node != 5 {
		t.Errorf("removing node 6 relabelled: dest=%d actions=%+v", *c.Dest, c.FaultPlan.Phases[0].Actions)
	}
	// An omitted dest means AS 0, which then stays.
	spec.Dest = nil
	spec.Guard = &invariant.Config{}
	for _, c := range shrinkRemoveNode(spec) {
		if c.Topology.Size != 6 || len(c.Topology.Edges) != 8 {
			t.Errorf("with the default dest, a candidate kept %d links: node 0 was removed", len(c.Topology.Edges))
		}
	}
}

func TestShrinkRemoveEdgePins(t *testing.T) {
	spec := shrinkFixture(t)
	named := map[[2]int]bool{{2, 3}: true, {1, 3}: true, {2, 4}: true, {3, 4}: true}
	cands := shrinkRemoveEdge(spec)
	if want := len(spec.Topology.Edges) - len(named); len(cands) != want {
		t.Fatalf("%d candidates, want %d", len(cands), want)
	}
	for _, c := range cands {
		kept := map[[2]int]bool{}
		for _, e := range c.Topology.Edges {
			kept[e] = true
		}
		for e := range named {
			if !kept[e] {
				t.Errorf("candidate dropped %v, which the fault plan names", e)
			}
		}
	}
	// A tlong link is named too.
	spec.FaultPlan, spec.Event, spec.FailLink = nil, "tlong", &[2]int{0, 1}
	for _, c := range shrinkRemoveEdge(spec) {
		if c.Topology.Edges[0] != [2]int{0, 1} {
			t.Errorf("candidate dropped the failLink: %v", c.Topology.Edges)
		}
	}
}
