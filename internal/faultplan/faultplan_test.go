package faultplan

import (
	"strings"
	"testing"
	"time"

	"bgploop/internal/des"
	"bgploop/internal/netsim"
	"bgploop/internal/topology"
	"bgploop/internal/transport"
)

// recorder logs peer transitions with their virtual times.
type recorder struct {
	sched *des.Scheduler
	downs []des.Time
	ups   []des.Time
}

func (r *recorder) Deliver(from topology.Node, payload any) {}
func (r *recorder) PeerDown(peer topology.Node)             { r.downs = append(r.downs, r.sched.Now()) }
func (r *recorder) PeerUp(peer topology.Node)               { r.ups = append(r.ups, r.sched.Now()) }

func build(t *testing.T, g *topology.Graph) (*des.Scheduler, *netsim.Network, []*recorder) {
	t.Helper()
	sched := des.NewScheduler()
	net := netsim.New(sched, g, time.Millisecond)
	recs := make([]*recorder, g.NumNodes())
	for _, v := range g.Nodes() {
		recs[v] = &recorder{sched: sched}
		net.Attach(v, recs[v])
	}
	return sched, net, recs
}

func TestOpStringRoundTrip(t *testing.T) {
	if all := Ops(); len(all) != int(Undegrade) || all[0] != LinkDown || all[len(all)-1] != Undegrade {
		t.Fatalf("Ops() = %v, want every op from %v to %v", all, LinkDown, Undegrade)
	}
	for _, op := range Ops() {
		name := op.String()
		if strings.HasPrefix(name, "Op(") {
			t.Fatalf("op %d has no name", int(op))
		}
		back, err := OpFromString(name)
		if err != nil {
			t.Fatalf("OpFromString(%q): %v", name, err)
		}
		if back != op {
			t.Errorf("round trip %q: got %v want %v", name, back, op)
		}
	}
	_, err := OpFromString("noSuchOp")
	if err == nil {
		t.Fatal("OpFromString accepted an unknown name")
	}
	for _, op := range Ops() {
		if !strings.Contains(err.Error(), op.String()) {
			t.Errorf("error %q does not list %s", err, op)
		}
	}
}

// TestUnknownOp checks the table's zero row: an op outside the vocabulary
// reads no field, validates nowhere and schedules nothing.
func TestUnknownOp(t *testing.T) {
	g := topology.Ring(4)
	sched, net, _ := build(t, g)
	for _, op := range []Op{-1, 0, Undegrade + 1} {
		a := Action{Op: op, Link: topology.NormEdge(0, 1)}
		if !strings.HasPrefix(op.String(), "Op(") {
			t.Errorf("op %d is named %q", int(op), op)
		}
		if f := a.Fields(); f != (Fields{}) {
			t.Errorf("op %d reads %+v", int(op), f)
		}
		if err := a.Validate(g); err == nil {
			t.Errorf("op %d validates", int(op))
		}
		if err := a.Schedule(net, time.Second); err == nil {
			t.Errorf("op %d schedules", int(op))
		}
	}
	if (&Plan{Phases: []Phase{{Actions: []Action{{Op: 99}}}}}).NeedsTransport() {
		t.Error("an unknown op needs a transport model")
	}
	if sched.Len() != 0 {
		t.Errorf("%d events scheduled by unknown ops", sched.Len())
	}
}

// TestScheduleEventShape pins what every digest depends on: one scheduler
// event per action however many links it touches, and 2·Cycles for a flap.
func TestScheduleEventShape(t *testing.T) {
	g := topology.Star(5)
	group := []topology.Edge{topology.NormEdge(0, 1), topology.NormEdge(0, 2), topology.NormEdge(0, 3)}
	for _, tc := range []struct {
		a    Action
		want int
	}{
		{FailLink(group[0]), 1},
		{FailNode(0), 1},
		{RestoreNode(0), 1},
		{FailGroup(group...), 1},
		{RestoreGroup(group...), 1},
		{ResetSession(group[1]), 1},
		{Flap(group[2], 4, time.Second), 8},
	} {
		sched, net, _ := build(t, g)
		if err := tc.a.Schedule(net, time.Second); err != nil {
			t.Fatal(err)
		}
		if got := sched.Len(); got != tc.want {
			t.Errorf("%v scheduled %d events, want %d", tc.a, got, tc.want)
		}
	}
}

// TestScheduleDegrade drives Degrade and Undegrade, single link and group,
// and the refusal of both on a network without an impairment model.
func TestScheduleDegrade(t *testing.T) {
	g := topology.Ring(4)
	cfg := transport.Config{Loss: 0.5}
	e01, e12, e23 := topology.NormEdge(0, 1), topology.NormEdge(1, 2), topology.NormEdge(2, 3)
	sched, net, _ := build(t, g)
	for _, a := range []Action{DegradeLink(e01, cfg), RestoreImpairment(e01)} {
		if err := a.Schedule(net, time.Second); err == nil {
			t.Errorf("%v scheduled without an impairment model", a)
		}
	}
	net.SetImpairment(transport.NewModel(des.NewRNG(1), nil))
	for _, a := range []Action{
		DegradeLink(e01, cfg),
		DegradeGroup(cfg, e12, e23).AtOffset(time.Second),
		RestoreImpairment(e01).AtOffset(2 * time.Second),
		{Op: Undegrade, Links: []topology.Edge{e23}, At: 2 * time.Second},
	} {
		if err := a.Schedule(net, time.Second); err != nil {
			t.Fatal(err)
		}
	}
	impaired := func() [3]bool { return [3]bool{net.Impaired(0, 1), net.Impaired(1, 2), net.Impaired(2, 3)} }
	for _, step := range []struct {
		until des.Time
		want  [3]bool
	}{
		{time.Second, [3]bool{true, false, false}},
		{2 * time.Second, [3]bool{true, true, true}},
		{3 * time.Second, [3]bool{false, true, false}},
	} {
		sched.RunUntil(step.until)
		if got := impaired(); got != step.want {
			t.Errorf("at %v impaired(0-1, 1-2, 2-3) = %v, want %v", step.until, got, step.want)
		}
	}
}

func TestPlanValidate(t *testing.T) {
	g := topology.Ring(4)
	good := &Plan{Name: "ok", Phases: []Phase{{
		Name:    "down",
		Actions: []Action{FailLink(topology.NormEdge(0, 1))},
		Measure: true,
	}}}
	if err := good.Validate(g); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}

	cases := []struct {
		name string
		plan *Plan
	}{
		{"nil plan", nil},
		{"no phases", &Plan{Name: "empty"}},
		{"no measured phase", &Plan{Phases: []Phase{{
			Name: "p", Actions: []Action{FailLink(topology.NormEdge(0, 1))},
		}}}},
		{"no actions", &Plan{Phases: []Phase{{Name: "p", Measure: true}}}},
		{"negative delay", &Plan{Phases: []Phase{{
			Name: "p", Delay: -time.Second, Measure: true,
			Actions: []Action{FailLink(topology.NormEdge(0, 1))},
		}}}},
		{"unknown role", &Plan{Phases: []Phase{{
			Name: "p", Measure: true, Role: Role("warmup"),
			Actions: []Action{FailLink(topology.NormEdge(0, 1))},
		}}}},
		{"missing link", &Plan{Phases: []Phase{{
			Name: "p", Measure: true,
			Actions: []Action{FailLink(topology.NormEdge(0, 2))},
		}}}},
		{"missing node", &Plan{Phases: []Phase{{
			Name: "p", Measure: true,
			Actions: []Action{FailNode(9)},
		}}}},
		{"empty group", &Plan{Phases: []Phase{{
			Name: "p", Measure: true,
			Actions: []Action{{Op: GroupDown}},
		}}}},
		{"flap without cycles", &Plan{Phases: []Phase{{
			Name: "p", Measure: true,
			Actions: []Action{Flap(topology.NormEdge(0, 1), 0, time.Second)},
		}}}},
		{"flap without period", &Plan{Phases: []Phase{{
			Name: "p", Measure: true,
			Actions: []Action{Flap(topology.NormEdge(0, 1), 2, 0)},
		}}}},
		{"negative offset", &Plan{Phases: []Phase{{
			Name: "p", Measure: true,
			Actions: []Action{FailLink(topology.NormEdge(0, 1)).AtOffset(-time.Second)},
		}}}},
		{"degrade without impairment", &Plan{Phases: []Phase{{
			Name: "p", Measure: true,
			Actions: []Action{{Op: Degrade, Link: topology.NormEdge(0, 1)}},
		}}}},
		{"impairment off degrade", &Plan{Phases: []Phase{{
			Name: "p", Measure: true,
			Actions: []Action{{Op: LinkDown, Link: topology.NormEdge(0, 1), Impairment: &transport.Config{Loss: 0.1}}},
		}}}},
		{"degrade group with a missing link", &Plan{Phases: []Phase{{
			Name: "p", Measure: true,
			Actions: []Action{DegradeGroup(transport.Config{Loss: 0.1}, topology.NormEdge(0, 1), topology.NormEdge(0, 2))},
		}}}},
	}
	for _, tc := range cases {
		if err := tc.plan.Validate(g); err == nil {
			t.Errorf("%s: Validate accepted the plan", tc.name)
		}
	}
}

func TestMainAndRecoveryPhase(t *testing.T) {
	e := FailLink(topology.NormEdge(0, 1))
	p := &Plan{Phases: []Phase{
		{Name: "warm", Actions: []Action{e}},
		{Name: "a", Actions: []Action{e}, Measure: true},
		{Name: "b", Actions: []Action{e}, Measure: true, Role: RoleMain},
		{Name: "c", Actions: []Action{e}, Measure: true, Role: RoleRecovery},
	}}
	if got := p.MainPhase(); got != 2 {
		t.Errorf("MainPhase = %d, want 2 (explicit RoleMain)", got)
	}
	if got := p.RecoveryPhase(); got != 3 {
		t.Errorf("RecoveryPhase = %d, want 3", got)
	}
	noRole := &Plan{Phases: []Phase{
		{Name: "warm", Actions: []Action{e}},
		{Name: "a", Actions: []Action{e}, Measure: true},
	}}
	if got := noRole.MainPhase(); got != 1 {
		t.Errorf("MainPhase = %d, want 1 (first measured)", got)
	}
	if got := noRole.RecoveryPhase(); got != -1 {
		t.Errorf("RecoveryPhase = %d, want -1", got)
	}
}

func TestScheduleLinkAndOffset(t *testing.T) {
	g := topology.Ring(4)
	sched, net, recs := build(t, g)
	e := topology.NormEdge(0, 1)
	if err := FailLink(e).AtOffset(10*time.Millisecond).Schedule(net, time.Second); err != nil {
		t.Fatal(err)
	}
	if err := RestoreLink(e).AtOffset(30*time.Millisecond).Schedule(net, time.Second); err != nil {
		t.Fatal(err)
	}
	sched.Run()
	want := time.Second + 10*time.Millisecond
	if len(recs[0].downs) != 1 || recs[0].downs[0] != want {
		t.Errorf("node 0 downs = %v, want [%v]", recs[0].downs, want)
	}
	want = time.Second + 30*time.Millisecond
	if len(recs[1].ups) != 1 || recs[1].ups[0] != want {
		t.Errorf("node 1 ups = %v, want [%v]", recs[1].ups, want)
	}
}

func TestScheduleGroupIsCorrelated(t *testing.T) {
	g := topology.Ring(4)
	sched, net, recs := build(t, g)
	group := []topology.Edge{topology.NormEdge(0, 1), topology.NormEdge(2, 3)}
	if err := FailGroup(group...).Schedule(net, time.Second); err != nil {
		t.Fatal(err)
	}
	if err := RestoreGroup(group...).Schedule(net, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	sched.Run()
	for _, v := range []topology.Node{0, 1, 2, 3} {
		if len(recs[v].downs) != 1 || recs[v].downs[0] != time.Second {
			t.Errorf("node %d downs = %v, want one at 1s", v, recs[v].downs)
		}
		if len(recs[v].ups) != 1 || recs[v].ups[0] != 2*time.Second {
			t.Errorf("node %d ups = %v, want one at 2s", v, recs[v].ups)
		}
	}
}

func TestScheduleFlapExpansion(t *testing.T) {
	g := topology.Ring(4)
	sched, net, recs := build(t, g)
	e := topology.NormEdge(0, 1)
	if err := Flap(e, 3, 100*time.Millisecond).Schedule(net, time.Second); err != nil {
		t.Fatal(err)
	}
	sched.Run()
	if len(recs[0].downs) != 3 || len(recs[0].ups) != 3 {
		t.Fatalf("downs/ups = %d/%d, want 3/3", len(recs[0].downs), len(recs[0].ups))
	}
	for i := 0; i < 3; i++ {
		wantDown := time.Second + time.Duration(2*i)*100*time.Millisecond
		wantUp := time.Second + time.Duration(2*i+1)*100*time.Millisecond
		if recs[0].downs[i] != wantDown {
			t.Errorf("down %d at %v, want %v", i, recs[0].downs[i], wantDown)
		}
		if recs[0].ups[i] != wantUp {
			t.Errorf("up %d at %v, want %v", i, recs[0].ups[i], wantUp)
		}
	}
}

func TestScheduleSessionReset(t *testing.T) {
	g := topology.Ring(4)
	sched, net, recs := build(t, g)
	if err := ResetSession(topology.NormEdge(0, 1)).Schedule(net, time.Second); err != nil {
		t.Fatal(err)
	}
	sched.Run()
	// Both endpoints bounce: PeerDown immediately followed by PeerUp at
	// the same instant, with the link operational afterwards.
	for _, v := range []topology.Node{0, 1} {
		if len(recs[v].downs) != 1 || recs[v].downs[0] != time.Second {
			t.Errorf("node %d downs = %v, want one at 1s", v, recs[v].downs)
		}
		if len(recs[v].ups) != 1 || recs[v].ups[0] != time.Second {
			t.Errorf("node %d ups = %v, want one at 1s", v, recs[v].ups)
		}
	}
	if err := net.Send(0, 1, "after"); err != nil {
		t.Errorf("link should be up after a session reset: %v", err)
	}
}

func TestScheduleNode(t *testing.T) {
	g := topology.Star(4)
	sched, net, recs := build(t, g)
	if err := FailNode(0).Schedule(net, time.Second); err != nil {
		t.Fatal(err)
	}
	if err := RestoreNode(0).Schedule(net, 2*time.Second); err != nil {
		t.Fatal(err)
	}
	sched.Run()
	for _, v := range []topology.Node{1, 2, 3} {
		if len(recs[v].downs) != 1 || len(recs[v].ups) != 1 {
			t.Errorf("spoke %d transitions = %d down / %d up, want 1/1",
				v, len(recs[v].downs), len(recs[v].ups))
		}
	}
	if len(recs[0].downs) != 3 || len(recs[0].ups) != 3 {
		t.Errorf("hub transitions = %d down / %d up, want 3/3",
			len(recs[0].downs), len(recs[0].ups))
	}
}
