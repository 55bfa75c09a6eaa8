package experiment

import (
	"testing"
	"time"

	"bgploop/internal/bgp"
	"bgploop/internal/faultplan"
	"bgploop/internal/invariant"
	"bgploop/internal/topology"
	"bgploop/internal/transport"
)

// TestFaultOpsGolden pins, for every fault-plan op, what a small explicit
// plan does to B-Clique(5): the result digest, the number of scheduler
// events (one per action, 2·Cycles per flap — same-instant tie-breaks hang
// off it) and the in-flight messages failures destroyed (which depends on
// the order a node's or a group's links are walked). The values were
// recorded at d6cd189, before netsim's scheduling wrappers moved into
// faultplan's op table; they are the contract that move had to keep.
func TestFaultOpsGolden(t *testing.T) {
	const n = 5
	shortcut := topology.BCliqueShortcut(n) // 0-5
	edge := topology.NormEdge
	lossy := transport.Config{Loss: 0.3, RTOInitial: 300 * time.Millisecond, RTOMax: 1600 * time.Millisecond, MaxRetries: 8}
	phase := func(name string, role faultplan.Role, actions ...faultplan.Action) faultplan.Phase {
		return faultplan.Phase{Name: name, Delay: time.Second, Measure: true, Role: role, Actions: actions}
	}
	plan := func(name string, phases ...faultplan.Phase) *faultplan.Plan {
		return &faultplan.Plan{Name: name, Phases: phases}
	}
	// Both group orders cut the same two links 300 ms into the hunt the
	// shortcut's failure started. Cutting 0-5's neighbour link 5-6 first
	// or second changes which of node 5's and 6's updates are already in
	// flight on the other link when it goes, hence Net.Lost.
	groupCut := func(links ...topology.Edge) *faultplan.Plan {
		return plan("group",
			phase("cut", faultplan.RoleMain,
				faultplan.FailLink(shortcut),
				faultplan.FailGroup(links...).AtOffset(300*time.Millisecond)),
			phase("repair", faultplan.RoleRecovery,
				faultplan.RestoreGroup(append([]topology.Edge{shortcut}, links...)...)))
	}
	cases := []struct {
		name   string
		fsm    bool
		plan   *faultplan.Plan
		digest string
		events uint64
		lost   int
	}{
		{name: "link down, link up",
			digest: "a7e84eb6dcd5bc0c36f6d9b3e8faf666190b16c76aced7313c41a6dd43fa40d6", events: 363, lost: 0,
			plan: plan("link",
				phase("fail", faultplan.RoleMain, faultplan.FailLink(shortcut)),
				phase("repair", faultplan.RoleRecovery, faultplan.RestoreLink(shortcut)))},
		{name: "node down, node up",
			digest: "6194450ea67dd9f443db90263a5356767be40dc7df45606c36500e4bfc0bdeac", events: 398, lost: 0,
			plan: plan("node",
				phase("fail", faultplan.RoleMain, faultplan.FailNode(0)),
				phase("repair", faultplan.RoleRecovery, faultplan.RestoreNode(0)))},
		{name: "group down 5-6 then 6-7, group up",
			digest: "542ad37ce778c516faf3b8667abd977bde38a3805937374b84a77af599919c2f", events: 353, lost: 1,
			plan: groupCut(edge(5, 6), edge(6, 7))},
		{name: "group down 6-7 then 5-6, group up",
			digest: "6a624872f35ff2c26c8336787d9bfaddae219ae410aedeb4a8247438918e5929", events: 353, lost: 0,
			plan: groupCut(edge(6, 7), edge(5, 6))},
		{name: "two session resets at different offsets",
			digest: "ab422476ccfa0b7e803f603819b8062c89fa7ce426620385191bb8cfff515d37", events: 238, lost: 0,
			plan: plan("resets",
				phase("bounce", faultplan.RoleMain,
					faultplan.ResetSession(shortcut),
					faultplan.ResetSession(edge(5, 9)).AtOffset(250*time.Millisecond)))},
		{name: "flap x3 then cut",
			digest: "738b6720ef09331ffeb612e3210ecad42eaaa96a35d5da0e8b5b66fc128078c0", events: 521, lost: 1,
			plan: plan("flap",
				// The reset shares its instant with the flap's first repair and
				// only bites if that repair, inserted earlier, runs first.
				phase("flap", faultplan.RoleNone,
					faultplan.Flap(shortcut, 3, 2*time.Second),
					faultplan.ResetSession(shortcut).AtOffset(2*time.Second)),
				phase("cut", faultplan.RoleMain, faultplan.FailLink(shortcut)))},
		{name: "five actions at one instant",
			digest: "4304244533110bb83081c43e8cd13cd2eaa252349b58f7742bdd9ae6bf7a2305", events: 221, lost: 7,
			plan: plan("instant",
				phase("burst", faultplan.RoleMain,
					faultplan.FailLink(shortcut),
					faultplan.ResetSession(edge(5, 6)),
					faultplan.FailGroup(edge(6, 7), edge(7, 8)),
					faultplan.RestoreLink(shortcut),
					faultplan.FailNode(9)),
				phase("repair", faultplan.RoleRecovery,
					faultplan.RestoreNode(9),
					faultplan.RestoreGroup(edge(7, 8), edge(6, 7))))},
		{name: "degrade and undegrade, link and group, session FSM on",
			digest: "504e19378048b6aaa82f3e79caa66540ae5d00f29b8895f32dc1e00a894464aa", events: 639, lost: 15, fsm: true,
			plan: plan("degrade",
				phase("degrade", faultplan.RoleMain,
					faultplan.DegradeLink(shortcut, lossy),
					faultplan.DegradeGroup(lossy, edge(5, 6), edge(5, 7)).AtOffset(time.Second),
					faultplan.RestoreImpairment(shortcut).AtOffset(12*time.Second),
					faultplan.Action{Op: faultplan.Undegrade, Links: []topology.Edge{edge(5, 6), edge(5, 7)}}.AtOffset(15*time.Second)))},
	}
	for _, guard := range []invariant.Cadence{invariant.CadenceOff, invariant.CadenceFull} {
		for _, tt := range cases {
			t.Run("guard="+string(guard)+"/"+tt.name, func(t *testing.T) {
				cfg := bgp.DefaultConfig()
				if tt.fsm {
					cfg.MRAI = 2 * time.Second
					cfg.Session = bgp.SessionConfig{
						HoldTime:          2 * time.Second,
						KeepaliveInterval: 500 * time.Millisecond,
						ConnectRetry:      500 * time.Millisecond,
						ConnectRetryMax:   4 * time.Second,
					}
				}
				s := Scenario{Graph: topology.BClique(n), BGP: cfg, Seed: 11, FaultPlan: tt.plan}
				s.Guard.Cadence = guard
				res, err := Run(s)
				if err != nil {
					t.Fatal(err)
				}
				digest, err := DigestResult(res)
				if err != nil {
					t.Fatal(err)
				}
				if digest != tt.digest || res.EventsExecuted != tt.events || res.Net.Lost != tt.lost {
					t.Errorf("digest %s events %d lost %d, want %s / %d / %d",
						digest, res.EventsExecuted, res.Net.Lost, tt.digest, tt.events, tt.lost)
				}
			})
		}
	}
}
