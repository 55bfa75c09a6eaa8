package experiment

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"bgploop/internal/bgp"
	"bgploop/internal/faultplan"
	"bgploop/internal/safety"
	"bgploop/internal/topology"
	"bgploop/internal/transport"
)

func TestLoadScenarioBasic(t *testing.T) {
	spec := `{
		"topology": {"family": "clique", "size": 8},
		"event": "tdown",
		"mraiSeconds": 10,
		"enhancements": {"ghostflush": true},
		"seed": 7
	}`
	s, err := LoadScenario(strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	if s.Graph.NumNodes() != 8 || s.Event != TDown || s.Dest != 0 {
		t.Errorf("scenario = %+v", s)
	}
	if s.BGP.MRAI != 10*time.Second {
		t.Errorf("MRAI = %v", s.BGP.MRAI)
	}
	if !s.BGP.Enhancements.GhostFlushing {
		t.Error("ghostflush not enabled")
	}
	if s.Seed != 7 {
		t.Errorf("seed = %d", s.Seed)
	}
	// And it actually runs.
	if _, err := Run(s); err != nil {
		t.Fatal(err)
	}
}

func TestLoadScenarioTLongDefaults(t *testing.T) {
	spec := `{
		"topology": {"family": "bclique", "size": 5},
		"event": "tlong"
	}`
	s, err := LoadScenario(strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	if s.FailLink != topology.BCliqueShortcut(5) {
		t.Errorf("FailLink = %v, want the paper's [0 5] shortcut", s.FailLink)
	}

	fig1 := `{"topology": {"family": "figure1"}, "event": "tlong"}`
	s1, err := LoadScenario(strings.NewReader(fig1))
	if err != nil {
		t.Fatal(err)
	}
	if s1.FailLink != topology.Figure1FailedLink() {
		t.Errorf("figure1 FailLink = %v", s1.FailLink)
	}
}

// TestLoadScenarioFamilyDefaults: "dest": -1 picks the family default —
// AS 0 on a fixed family, the paper's draw on the internet family — and a
// tlong event without failLink picks the family's default link. An
// omitted dest stays AS 0 everywhere.
func TestLoadScenarioFamilyDefaults(t *testing.T) {
	load := func(spec string) Scenario {
		t.Helper()
		s, err := LoadScenario(strings.NewReader(spec))
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		return s
	}
	for _, tt := range []struct {
		spec string
		dest topology.Node
		link topology.Edge
	}{
		{`{"topology": {"family": "clique", "size": 5}, "event": "tdown", "dest": -1}`, 0, topology.Edge{}},
		{`{"topology": {"family": "ring", "size": 6}, "event": "tlong", "dest": -1}`, 0, topology.NormEdge(0, 1)},
		{`{"topology": {"family": "ring", "size": 6}, "event": "tlong"}`, 0, topology.NormEdge(0, 1)},
		{`{"topology": {"family": "figure2", "size": 3}, "event": "tlong"}`, 0, topology.NormEdge(0, 1)},
		{`{"topology": {"family": "edges", "size": 3, "edges": [[0,1],[1,2],[2,0]]}, "event": "tdown", "dest": -1}`, 0, topology.Edge{}},
		{`{"topology": {"family": "internet", "size": 29, "seed": 3}, "event": "tdown", "seed": 3}`, 0, topology.Edge{}},
	} {
		if s := load(tt.spec); s.Dest != tt.dest || s.FailLink != tt.link {
			t.Errorf("%s: dest/link = %d/%v, want %d/%v", tt.spec, s.Dest, s.FailLink, tt.dest, tt.link)
		}
	}

	// The internet draw is the generators' draw for the same seed, and a
	// different seed on the same graph draws afresh.
	cfg := bgp.DefaultConfig()
	for seed := int64(3); seed <= 5; seed++ {
		for event, gen := range map[string]Generator{
			"tdown": InternetTDown(29, cfg, 3),
			"tlong": InternetTLong(29, cfg, 3),
		} {
			want, err := gen(int(seed - 3))
			if err != nil {
				t.Fatal(err)
			}
			got := load(fmt.Sprintf(`{"topology": {"family": "internet", "size": 29, "seed": 3},
				"event": %q, "dest": -1, "seed": %d}`, event, seed))
			if got.Dest != want.Dest || got.FailLink != want.FailLink || got.CacheKey() != want.CacheKey() {
				t.Errorf("internet %s seed %d: spec drew dest %d link %v, generator %d %v",
					event, seed, got.Dest, got.FailLink, want.Dest, want.FailLink)
			}

			// NewScenarioSpec spells the drawn destination (and link) out,
			// so the rendered spec is the same scenario with no draw left.
			back, err := NewScenarioSpec(got)
			if err != nil {
				t.Fatal(err)
			}
			if *back.Dest != int(want.Dest) {
				t.Errorf("rendered dest = %d, want the drawn %d", *back.Dest, want.Dest)
			}
			again, err := back.Scenario()
			if err != nil {
				t.Fatal(err)
			}
			if again.Dest != want.Dest || again.FailLink != want.FailLink {
				t.Errorf("round trip moved dest/link to %d/%v", again.Dest, again.FailLink)
			}
		}
	}

	// An explicit failLink overrides the drawn link, not the drawn dest.
	s := load(`{"topology": {"family": "internet", "size": 29, "seed": 3}, "event": "tlong", "dest": -1, "seed": 3}`)
	other := topology.Edge{}
	for _, e := range s.Graph.Edges() {
		if e != s.FailLink && s.Graph.ConnectedWithout(e) {
			other = e
			break
		}
	}
	o := load(fmt.Sprintf(`{"topology": {"family": "internet", "size": 29, "seed": 3}, "event": "tlong",
		"dest": -1, "failLink": [%d, %d], "seed": 3}`, other.A, other.B))
	if o.Dest != s.Dest || o.FailLink != other {
		t.Errorf("explicit failLink: dest/link = %d/%v, want %d/%v", o.Dest, o.FailLink, s.Dest, other)
	}
}

// TestFlagScenarioMatchesSpec: for every (family, event) the CLIs'
// -topo/-event flags can say, FlagScenario builds the scenario the
// equivalent hand-written spec file does (same content address) or both
// refuse; on the internet family that scenario is trial 0 of the paper's
// generators.
func TestFlagScenarioMatchesSpec(t *testing.T) {
	const seed = 3
	cfg := bgp.DefaultConfig()
	cfg.MRAI = 10 * time.Second
	cfg.Enhancements.WRATE = true
	generators := map[string]Generator{
		"tdown": InternetTDown(12, cfg, seed),
		"tlong": InternetTLong(12, cfg, seed),
	}
	accepted := 0
	for _, family := range topology.Families() {
		for _, event := range []string{"tdown", "tlong"} {
			dest := ""
			if family == "internet" {
				dest = `"dest": -1, `
			}
			spec := fmt.Sprintf(`{"topology": {"family": %q, "size": 12, "seed": %d}, "event": %q, %s
				"mraiSeconds": 10, "enhancements": {"wrate": true}, "seed": %d}`, family, seed, event, dest, seed)
			want, specErr := LoadScenario(strings.NewReader(spec))
			got, flagErr := FlagScenario(family, 12, event, 10*time.Second, "wrate", seed)
			if (specErr == nil) != (flagErr == nil) {
				t.Errorf("%s %s: spec err %v, flag err %v", family, event, specErr, flagErr)
				continue
			}
			if specErr != nil {
				continue
			}
			accepted++
			if got.CacheKey() == "" || got.CacheKey() != want.CacheKey() {
				t.Errorf("%s %s: flag key %q, spec key %q", family, event, got.CacheKey(), want.CacheKey())
			}
			if family == "internet" {
				trial0, err := generators[event](0)
				if err != nil {
					t.Fatal(err)
				}
				if got.CacheKey() != trial0.CacheKey() {
					t.Errorf("internet %s: flag scenario is not the generator's trial 0", event)
				}
			}
		}
	}
	// Every family takes tdown; tlong only where a default link exists.
	if want := len(topology.Families()) + len([]string{"bclique", "ring", "figure1", "figure2", "internet"}); accepted != want {
		t.Errorf("%d (family, event) pairs accepted, want %d", accepted, want)
	}

	// -mrai reaches the scenario to the nanosecond, which a float-seconds
	// spec field cannot promise.
	s, err := FlagScenario("ring", 6, "tlong", 1001*time.Millisecond, "standard", 1)
	if err != nil {
		t.Fatal(err)
	}
	if s.BGP.MRAI != 1001*time.Millisecond {
		t.Errorf("MRAI = %v, want 1.001s exactly", s.BGP.MRAI)
	}
	if s, err = FlagScenario("clique", 4, "tdown", 0, "standard", 1); err != nil || s.BGP.MRAI != 0 {
		t.Errorf("-mrai 0: MRAI = %v, err %v; want an explicit zero", s.BGP.MRAI, err)
	}
}

func TestLoadScenarioExplicitLinkAndDest(t *testing.T) {
	spec := `{
		"topology": {"family": "ring", "size": 6},
		"event": "tlong",
		"dest": 2,
		"failLink": [2, 3],
		"damping": true,
		"flapCycles": 1,
		"restoreDelaySeconds": 1.5
	}`
	s, err := LoadScenario(strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	if s.Dest != 2 || s.FailLink != topology.NormEdge(2, 3) {
		t.Errorf("dest/link = %d/%v", s.Dest, s.FailLink)
	}
	if !s.BGP.Damping {
		t.Error("damping not enabled")
	}
	if s.FlapCycles != 1 || s.RestoreDelay != 1500*time.Millisecond {
		t.Errorf("flap/restore = %d/%v", s.FlapCycles, s.RestoreDelay)
	}
}

func TestLoadScenarioTopologyFamilies(t *testing.T) {
	for _, family := range []string{"clique", "bclique", "chain", "ring", "star", "figure1", "figure2", "internet", "ba", "waxman"} {
		ts := TopologySpec{Family: family, Size: 8, Seed: 1}
		g, err := ts.Build()
		if err != nil {
			t.Errorf("%s: %v", family, err)
			continue
		}
		if g.NumNodes() == 0 {
			t.Errorf("%s: empty", family)
		}
	}
}

func TestLoadScenarioFromTopologyFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.topo")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := topology.WriteEdgeList(f, topology.Clique(5)); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	spec := `{"topology": {"family": "file", "path": ` + quote(path) + `}, "event": "tdown"}`
	s, err := LoadScenario(strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	if s.Graph.NumNodes() != 5 {
		t.Errorf("nodes = %d", s.Graph.NumNodes())
	}
}

func quote(s string) string { return `"` + strings.ReplaceAll(s, `\`, `\\`) + `"` }

func TestLoadScenarioErrors(t *testing.T) {
	cases := map[string]string{
		"bad json":        `{`,
		"unknown field":   `{"topology": {"family": "clique", "size": 4}, "event": "tdown", "bogus": 1}`,
		"unknown family":  `{"topology": {"family": "moebius", "size": 4}, "event": "tdown"}`,
		"unknown event":   `{"topology": {"family": "clique", "size": 4}, "event": "sideways"}`,
		"unknown enhance": `{"topology": {"family": "clique", "size": 4}, "event": "tdown", "enhancements": {"warp": true}}`,
		"tlong no link":   `{"topology": {"family": "clique", "size": 4}, "event": "tlong"}`,
		"bridge link":     `{"topology": {"family": "chain", "size": 4}, "event": "tlong", "failLink": [0, 1]}`,
		// A trace limit is a Go-level switch (Scenario.TraceLimit): a spec
		// could only record a trace nothing reads and make its job
		// uncacheable.
		"trace limit": `{"topology": {"family": "clique", "size": 4}, "event": "tdown", "traceLimit": 50}`,
		// Guards are off or full: a spec sets no sweep period, no trail
		// size and no other cadence.
		"guard everyN":    `{"topology": {"family": "clique", "size": 4}, "event": "tdown", "guard": {"cadence": "full", "everyN": 10}}`,
		"guard trailSize": `{"topology": {"family": "clique", "size": 4}, "event": "tdown", "guard": {"cadence": "full", "trailSize": 8}}`,
		"guard phase":     `{"topology": {"family": "clique", "size": 4}, "event": "tdown", "guard": {"cadence": "phase"}}`,
		"guard every-n":   `{"topology": {"family": "clique", "size": 4}, "event": "tdown", "guard": {"cadence": "every-n"}}`,
	}
	for name, spec := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := LoadScenario(strings.NewReader(spec)); err == nil {
				t.Errorf("%s accepted", name)
			}
		})
	}
}

func TestLoadScenarioFileMissing(t *testing.T) {
	if _, err := LoadScenarioFile("/definitely/not/here.json"); err == nil {
		t.Error("missing file accepted")
	}
}

func TestLoadScenarioFaultPlan(t *testing.T) {
	spec := `{
		"topology": {"family": "ring", "size": 6},
		"faultPlan": {
			"name": "srlg-then-reset",
			"phases": [
				{"name": "cut", "delaySeconds": 2, "measure": true, "role": "main", "actions": [
					{"op": "groupDown", "links": [[0, 1], [2, 3]]},
					{"op": "sessionReset", "atSeconds": 0.5, "link": [4, 5]}
				]},
				{"name": "heal", "delaySeconds": 1, "measure": true, "role": "recovery", "actions": [
					{"op": "groupUp", "links": [[0, 1], [2, 3]]}
				]}
			]
		},
		"phaseEventBudget": 100000,
		"horizonSeconds": 600,
		"seed": 3
	}`
	s, err := LoadScenario(strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	if s.FaultPlan == nil {
		t.Fatal("FaultPlan not populated")
	}
	if s.FaultPlan.Name != "srlg-then-reset" || len(s.FaultPlan.Phases) != 2 {
		t.Errorf("plan = %+v", s.FaultPlan)
	}
	cut := s.FaultPlan.Phases[0]
	if cut.Delay != 2*time.Second || !cut.Measure || len(cut.Actions) != 2 {
		t.Errorf("cut phase = %+v", cut)
	}
	if cut.Actions[1].At != 500*time.Millisecond {
		t.Errorf("sessionReset offset = %v, want 500ms", cut.Actions[1].At)
	}
	if s.PhaseEventBudget != 100000 || s.Horizon != 10*time.Minute {
		t.Errorf("budget/horizon = %d/%v", s.PhaseEventBudget, s.Horizon)
	}
	// A plan-driven scenario runs without any "event" field.
	res, err := Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Phases) != 2 || res.Recovery == nil {
		t.Errorf("phases = %d, recovery = %v", len(res.Phases), res.Recovery)
	}
	if res.Plan != "srlg-then-reset" {
		t.Errorf("Plan echo = %q", res.Plan)
	}
}

func TestFaultPlanSpecRoundTrip(t *testing.T) {
	g := topology.Ring(6)
	lossy := transport.Config{Loss: 0.25, RTOInitial: 250 * time.Millisecond, MaxRetries: 4}
	plan := &faultplan.Plan{
		Name: "round-trip",
		Phases: []faultplan.Phase{
			{
				Name:  "shake",
				Delay: 2 * time.Second,
				Actions: []faultplan.Action{
					faultplan.Flap(topology.NormEdge(0, 1), 3, 500*time.Millisecond),
					faultplan.FailNode(2).AtOffset(time.Second),
				},
			},
			{
				Name:    "cut",
				Delay:   time.Second,
				Measure: true,
				Role:    faultplan.RoleMain,
				Actions: []faultplan.Action{
					faultplan.FailGroup(topology.NormEdge(3, 4), topology.NormEdge(4, 5)),
					faultplan.ResetSession(topology.NormEdge(5, 0)),
					faultplan.FailLink(topology.NormEdge(1, 2)).AtOffset(time.Second),
				},
			},
			{
				Name:  "lossy",
				Delay: time.Second,
				Actions: []faultplan.Action{
					faultplan.DegradeLink(topology.NormEdge(0, 1), lossy),
					faultplan.DegradeGroup(lossy, topology.NormEdge(2, 3), topology.NormEdge(3, 4)),
					faultplan.RestoreImpairment(topology.NormEdge(0, 1)).AtOffset(5 * time.Second),
					faultplan.Action{Op: faultplan.Undegrade, Links: []topology.Edge{topology.NormEdge(2, 3), topology.NormEdge(3, 4)}}.AtOffset(5 * time.Second),
				},
			},
			{
				Name:    "heal",
				Delay:   time.Second,
				Measure: true,
				Role:    faultplan.RoleRecovery,
				Actions: []faultplan.Action{
					faultplan.RestoreGroup(topology.NormEdge(3, 4), topology.NormEdge(4, 5)),
					faultplan.RestoreNode(2),
					faultplan.RestoreLink(topology.NormEdge(0, 1)),
				},
			},
		},
	}
	if err := plan.Validate(g); err != nil {
		t.Fatal(err)
	}
	// Every row of faultplan's op table makes the trip.
	used := map[faultplan.Op]bool{}
	for _, ph := range plan.Phases {
		for _, a := range ph.Actions {
			used[a.Op] = true
		}
	}
	for _, op := range faultplan.Ops() {
		if !used[op] {
			t.Errorf("op %s is not in the round-trip plan", op)
		}
	}

	spec := NewFaultPlanSpec(plan)
	blob, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	var decoded FaultPlanSpec
	if err := json.Unmarshal(blob, &decoded); err != nil {
		t.Fatal(err)
	}
	back, err := decoded.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plan, back) {
		t.Errorf("round trip mismatch:\n got  %+v\n want %+v", back, plan)
	}
}

func TestLoadScenarioFaultPlanErrors(t *testing.T) {
	cases := map[string]string{
		"unknown op": `{"topology": {"family": "ring", "size": 4}, "faultPlan": {"phases": [
			{"name": "p", "measure": true, "actions": [{"op": "teleport", "node": 1}]}]}}`,
		"missing link": `{"topology": {"family": "ring", "size": 4}, "faultPlan": {"phases": [
			{"name": "p", "measure": true, "actions": [{"op": "linkDown", "link": [0, 2]}]}]}}`,
		"no measured phase": `{"topology": {"family": "ring", "size": 4}, "faultPlan": {"phases": [
			{"name": "p", "actions": [{"op": "linkDown", "link": [0, 1]}]}]}}`,
		"no phases": `{"topology": {"family": "ring", "size": 4}, "faultPlan": {"phases": []}}`,
	}
	// One action per row on Ring(4): a field its op reads is missing (a
	// nodeDown without "node" used to fail AS 0), or one it does not read
	// is present (and used to vanish on the way into the cache key).
	for name, action := range map[string]string{
		"nodeDown without node":      `{"op": "nodeDown", "link": [1, 2]}`,
		"nodeUp without node":        `{"op": "nodeUp"}`,
		"linkDown without link":      `{"op": "linkDown"}`,
		"sessionReset without link":  `{"op": "sessionReset", "node": 1}`,
		"groupDown without links":    `{"op": "groupDown", "link": [0, 1]}`,
		"groupUp with empty links":   `{"op": "groupUp", "links": []}`,
		"degrade link and links":     `{"op": "degrade", "link": [0, 1], "links": [[1, 2]], "impairment": {"loss": 0.1}}`,
		"degrade neither":            `{"op": "degrade", "impairment": {"loss": 0.1}}`,
		"degrade without impairment": `{"op": "degrade", "link": [0, 1]}`,
		"undegrade link and links":   `{"op": "undegrade", "link": [0, 1], "links": [[1, 2]]}`,
		"undegrade neither":          `{"op": "undegrade"}`,
		"flapLink without cycles":    `{"op": "flapLink", "link": [0, 1], "periodSeconds": 1}`,
		"flapLink without period":    `{"op": "flapLink", "link": [0, 1], "cycles": 2}`,
		"node on a link op":          `{"op": "linkDown", "link": [0, 1], "node": 3}`,
		"links on a link op":         `{"op": "linkUp", "link": [0, 1], "links": [[1, 2]]}`,
		"link on a node op":          `{"op": "nodeDown", "node": 1, "link": [1, 2]}`,
		"link on a group op":         `{"op": "groupDown", "links": [[0, 1]], "link": [1, 2]}`,
		"cycles off flapLink":        `{"op": "linkDown", "link": [0, 1], "cycles": 2}`,
		"periodSeconds off flapLink": `{"op": "sessionReset", "link": [0, 1], "periodSeconds": 0.5}`,
		"impairment off degrade":     `{"op": "linkDown", "link": [0, 1], "impairment": {"loss": 0.1}}`,
		"impairment on undegrade":    `{"op": "undegrade", "link": [0, 1], "impairment": {"loss": 0.1}}`,
	} {
		cases[name] = `{"topology": {"family": "ring", "size": 4}, "faultPlan": {"phases": [
			{"name": "p", "measure": true, "actions": [` + action + `]}]}}`
	}
	for name, spec := range cases {
		t.Run(name, func(t *testing.T) {
			if _, err := LoadScenario(strings.NewReader(spec)); err == nil {
				t.Errorf("%s accepted", name)
			}
		})
	}
}

func TestLoadScenarioNamedPolicy(t *testing.T) {
	spec := `{
		"topology": {"family": "clique", "size": 4},
		"event": "tdown",
		"policy": "badGadget",
		"mraiSeconds": -1,
		"maxEvents": 30000
	}`
	s, err := LoadScenario(strings.NewReader(spec))
	if err != nil {
		t.Fatal(err)
	}
	if s.NamedPolicy != PolicyBadGadget || s.BGP.PolicyFor != nil {
		t.Fatalf("NamedPolicy = %q, PolicyFor set = %v; want the name and no hook", s.NamedPolicy, s.BGP.PolicyFor != nil)
	}
	// The loaded scenario must be the same dispute as the programmatic
	// fixture: statically UNSAFE.
	rep, err := PreflightVerdict(s)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict.String() != "UNSAFE" {
		t.Fatalf("verdict = %s, want UNSAFE", rep.Verdict)
	}
	// The name is the policy, so the scenario is cacheable.
	if k := s.CacheKey(); k == "" {
		t.Error("CacheKey is empty, want the named policy cacheable")
	}

	// The name makes the scenario spec-representable: round trip through
	// NewScenarioSpec and re-materialise.
	back, err := NewScenarioSpec(s)
	if err != nil {
		t.Fatal(err)
	}
	if back.Policy != PolicyBadGadget {
		t.Fatalf("rendered policy = %q, want %q", back.Policy, PolicyBadGadget)
	}
	s2, err := back.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	if s2.NamedPolicy != PolicyBadGadget {
		t.Fatal("round-tripped scenario lost the named policy")
	}

	// The programmatic fixture is spec-representable through the same name.
	if _, err := NewScenarioSpec(BadGadget(30_000)); err != nil {
		t.Fatalf("BadGadget fixture is not spec-representable: %v", err)
	}
}

func TestLoadScenarioNamedPolicyErrors(t *testing.T) {
	for _, spec := range []string{
		`{"topology": {"family": "clique", "size": 5}, "event": "tdown", "policy": "badGadget"}`,
		`{"topology": {"family": "clique", "size": 4}, "event": "tdown", "dest": 2, "policy": "badGadget"}`,
		`{"topology": {"family": "clique", "size": 4}, "event": "tdown", "policy": "nope"}`,
		`{"topology": {"family": "chain", "size": 3}, "event": "tdown", "policy": "gaoRexford"}`,
	} {
		if _, err := LoadScenario(strings.NewReader(spec)); err == nil {
			t.Errorf("LoadScenario(%s) succeeded, want error", spec)
		}
	}
}

// TestGaoRexfordSpecRoundTrip: a Gao-Rexford scenario survives the path
// forensic bundles take, NewScenarioSpec → Scenario. The "edges" form
// carries the graph, and the graph alone fixes the relationships, so the
// round trip keeps the cache key and the result digest (the topology
// name, edges-N against internet-N, is the one echo field that differs).
// The analyzer proves it SAFE with the gao-rexford proof.
func TestGaoRexfordSpecRoundTrip(t *testing.T) {
	s, err := LoadScenarioFile("../../examples/specs/internet110-gaorexford-tdown.json")
	if err != nil {
		t.Fatal(err)
	}
	if s.NamedPolicy != PolicyGaoRexford || s.BGP.PolicyFor != nil || s.BGP.Export != nil {
		t.Fatalf("NamedPolicy = %q with hooks set = %v; want the name alone", s.NamedPolicy, s.BGP.PolicyFor != nil || s.BGP.Export != nil)
	}
	rep, err := PreflightVerdict(s)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Verdict != safety.Safe || rep.Proof != "gao-rexford" {
		t.Fatalf("verdict %s by %q, want SAFE by gao-rexford", rep.Verdict, rep.Proof)
	}

	spec, err := NewScenarioSpec(s)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Topology.Family != "edges" || spec.Policy != PolicyGaoRexford {
		t.Fatalf("rendered family %q, policy %q; want edges, %q", spec.Topology.Family, spec.Policy, PolicyGaoRexford)
	}
	back, err := spec.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	back.Graph.SetName(s.Graph.Name())
	if got, want := back.CacheKey(), s.CacheKey(); got != want || want == "" {
		t.Errorf("round-tripped CacheKey %q, want %q", got, want)
	}
	digest := func(s Scenario) string {
		res, err := Run(s)
		if err != nil {
			t.Fatal(err)
		}
		d, err := DigestResult(res)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	if got, want := digest(back), digest(s); got != want {
		t.Errorf("round-tripped digest %s, want %s", got, want)
	}
}
