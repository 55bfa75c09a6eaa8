package experiment

import (
	"bytes"
	"encoding/json"
	"fmt"
	"testing"

	"bgploop/internal/faultplan"
)

// FuzzScenarioSpecJSON throws arbitrary JSON at the scenario-file loader:
// no input may panic, and any spec that loads into a valid Scenario must
// survive the NewScenarioSpec round trip (re-materialising into an
// equally valid Scenario), and every node id it reads must be a node of
// its topology, never an id wrapped onto one. Oversized generated
// topologies and the file-reading family are skipped — the target fuzzes
// the codec, not the generators.
func FuzzScenarioSpecJSON(f *testing.F) {
	f.Add([]byte(`{"topology": {"family": "clique", "size": 4}, "event": "tdown", "seed": 2}`))
	f.Add([]byte(`{"topology": {"family": "bclique", "size": 3}, "event": "tlong", "mraiSeconds": 5}`))
	f.Add([]byte(`{"topology": {"family": "edges", "size": 3, "edges": [[0,1],[1,2],[2,0]]},
		"event": "tdown", "dest": 1, "guard": {"cadence": "full"}}`))
	f.Add([]byte(`{"topology": {"family": "ring", "size": 5}, "seed": 3,
		"faultPlan": {"phases": [{"name": "cut", "delaySeconds": 1, "measure": true, "role": "main",
		"actions": [{"op": "linkDown", "link": [1, 2]}]}]}}`))
	f.Add([]byte(`{"topology": {"family": "clique", "size": 4}, "event": "tdown",
		"mraiSeconds": -1, "enhancements": {"ssldImmediate": true}, "damping": true,
		"packetIntervalSeconds": 0.5, "ttl": 16, "linkDelaySeconds": 0.001, "settleDelaySeconds": 2}`))
	f.Add([]byte(`{"topology": {"family": "clique", "size": 4}, "event": "tdown",
		"policy": "badGadget", "mraiSeconds": -1, "maxEvents": 20000}`))
	f.Add([]byte(`{"topology": {"family": "chain", "size": -1}}`))
	f.Add([]byte(`{"topology"`))

	f.Fuzz(func(t *testing.T, data []byte) {
		// Bound the work: building huge generated topologies is the
		// generators' business, not the codec's.
		var probe struct {
			Topology struct {
				Family string
				Size   int
			}
		}
		if json.Unmarshal(data, &probe) == nil {
			if probe.Topology.Size > 32 || probe.Topology.Family == "file" {
				t.Skip()
			}
		}
		s, err := LoadScenario(bytes.NewReader(data))
		if err != nil {
			return
		}
		checkIDsInTopology(t, data, s.Graph.NumNodes())
		spec, err := NewScenarioSpec(s)
		if err != nil {
			// Loaded scenarios use only spec-representable configuration.
			t.Fatalf("loaded scenario is not spec-representable: %v", err)
		}
		if _, err := spec.Scenario(); err != nil {
			t.Fatalf("round-tripped spec does not materialise: %v", err)
		}
	})
}

// checkIDsInTopology fails if a spec that loaded reads a node id outside
// [0, n): the destination (-1 is the draw), the guard's corruption target,
// the tlong link, the fault plan's targets and the edge list.
func checkIDsInTopology(t *testing.T, data []byte, n int) {
	t.Helper()
	var spec ScenarioSpec
	if err := json.NewDecoder(bytes.NewReader(data)).Decode(&spec); err != nil {
		t.Fatalf("loaded spec does not decode again: %v", err)
	}
	check := func(id *int) {
		if (*id < 0 || *id >= n) && !(id == spec.Dest && *id == -1) {
			t.Fatalf("loaded spec reads node %d of a %d-node topology", *id, n)
		}
	}
	link := func(l *[2]int) { check(&l[0]); check(&l[1]) }
	if spec.Event != "tlong" || spec.FaultPlan != nil {
		spec.FailLink = nil // not read: the event fails no link
	}
	spec.visitRefs(check, link)
	for i := range spec.Topology.Edges {
		link(&spec.Topology.Edges[i])
	}
}

// planShape canonicalizes the structure of a plan for round-trip
// comparison: phase names and flags, action ops and targets, and the
// impairment's exact probability fields. Durations are deliberately
// excluded — the spec stores seconds as float64, and the double-rounded
// seconds→nanoseconds conversion may wobble by a nanosecond on
// adversarial inputs, which is a formatting artifact rather than a codec
// bug.
func planShape(p *faultplan.Plan) string {
	var b bytes.Buffer
	for _, ph := range p.Phases {
		fmt.Fprintf(&b, "phase %q measure=%v role=%q\n", ph.Name, ph.Measure, ph.Role)
		for _, a := range ph.Actions {
			fmt.Fprintf(&b, "  %v link=%v node=%v links=%v cycles=%d", a.Op, a.Link, a.Node, a.Links, a.Cycles)
			if a.Impairment != nil {
				fmt.Fprintf(&b, " imp={loss=%v dup=%v reorder=%v retries=%d}",
					a.Impairment.Loss, a.Impairment.Duplicate, a.Impairment.ReorderProb, a.Impairment.MaxRetries)
			}
			fmt.Fprintln(&b)
		}
	}
	return b.String()
}

// FuzzImpairmentPlan throws arbitrary JSON at the fault-plan codec with
// the degrade/undegrade vocabulary in scope: no input may panic, and any
// spec that materialises into a Plan must survive the NewFaultPlanSpec
// round trip with its structure — ops, targets, impairment parameters —
// intact. This is the completeness guarantee CacheKey rests on: the key
// hashes the *rendered* plan spec, so a degrade field the renderer
// dropped would alias behaviourally distinct scenarios.
func FuzzImpairmentPlan(f *testing.F) {
	f.Add([]byte(`{"phases": [{"name": "degrade", "delaySeconds": 1, "measure": true, "role": "main",
		"actions": [{"op": "degrade", "link": [0, 1], "impairment": {"loss": 0.3, "rtoInitialSeconds": 0.2}}]}]}`))
	f.Add([]byte(`{"phases": [{"name": "storm", "actions": [
		{"op": "degrade", "links": [[0, 1], [0, 2]], "impairment": {"loss": 0.7, "duplicate": 0.01, "maxRetries": 4}},
		{"op": "undegrade", "links": [[0, 1], [0, 2]], "atSeconds": 20}]}]}`))
	f.Add([]byte(`{"phases": [{"actions": [{"op": "undegrade", "link": [2, 3]}]}]}`))
	f.Add([]byte(`{"phases": [{"actions": [{"op": "degrade", "link": [0, 1]}]}]}`))
	f.Add([]byte(`{"phases": [{"actions": [{"op": "degrade", "link": [0, 1],
		"impairment": {"reorderProb": 0.1, "reorderWindowSeconds": 0.004, "jitterSeconds": 0.001}}]}]}`))
	f.Add([]byte(`{"phases": [{"actions": [{"op": "flapLink", "link": [1, 2], "cycles": 3, "periodSeconds": 0.5}]}]}`))
	f.Add([]byte(`{"phases"`))

	f.Fuzz(func(t *testing.T, data []byte) {
		dec := json.NewDecoder(bytes.NewReader(data))
		dec.DisallowUnknownFields()
		var spec FaultPlanSpec
		if dec.Decode(&spec) != nil {
			return
		}
		plan, err := spec.Plan()
		if err != nil {
			return
		}
		rendered := NewFaultPlanSpec(plan)
		again, err := rendered.Plan()
		if err != nil {
			t.Fatalf("rendered spec does not materialise: %v", err)
		}
		if got, want := planShape(again), planShape(plan); got != want {
			t.Fatalf("round trip changed the plan structure:\n--- original\n%s--- round-tripped\n%s", want, got)
		}
		// No byte-level fixed-point assertion: seconds→nanoseconds uses a
		// truncating float conversion, so adversarial durations (1.5e-8 s
		// = 15 ns renders, re-parses as 14 ns) legitimately drift by one
		// nanosecond per pass. CacheKey needs rendering to be *injective*
		// and field-complete, which the shape check covers; it does not
		// need parse∘render to be the identity.
	})
}
