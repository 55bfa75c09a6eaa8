package experiment

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"sort"
	"strings"
	"testing"

	"bgploop/internal/bgp"
	"bgploop/internal/topology"
)

func TestMultiDestValidate(t *testing.T) {
	cfg := bgp.DefaultConfig()
	cases := []struct {
		name    string
		s       Scenario
		origins []topology.Node
		want    string
	}{
		{"nil graph", Scenario{Event: TDown, BGP: cfg}, nil, "nil topology"},
		{"bad origin", TDownScenario(topology.Clique(3), 0, cfg, 0), []topology.Node{7}, "origin 7 not in topology"},
		{"duplicate origin", TDownScenario(topology.Clique(3), 0, cfg, 0), []topology.Node{0, 0}, "origin 0 listed twice"},
		{"bad fail node", TDownScenario(topology.Clique(3), 9, cfg, 0), nil, "destination 9 not in topology"},
		{"bridge tlong", TLongScenario(topology.Chain(3), 0, topology.NormEdge(0, 1), cfg, 0), nil, "is a bridge"},
		{"no event", Scenario{Graph: topology.Clique(3), BGP: cfg}, nil, "unknown event kind"},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			_, err := RunMulti(tt.s, tt.origins)
			if err == nil || !strings.Contains(err.Error(), tt.want) {
				t.Errorf("%s: err = %v, want one containing %q", tt.name, err, tt.want)
			}
		})
	}
}

func TestMultiDestTLong(t *testing.T) {
	g := topology.BClique(4)
	res, err := RunMulti(TLongScenario(g, 0, topology.BCliqueShortcut(4), bgp.DefaultConfig(), 1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.ConvergenceTime <= 0 {
		t.Error("no convergence measured")
	}
	// Every node originates; all eight destinations must have outcomes.
	if len(res.PerDest) != g.NumNodes() {
		t.Errorf("PerDest size = %d, want %d", len(res.PerDest), g.NumNodes())
	}
	// The failed link [0 4] carried traffic both ways: at least the
	// destinations at its endpoints are affected, and typically more.
	if res.AffectedDests < 2 {
		t.Errorf("AffectedDests = %d, want >= 2", res.AffectedDests)
	}
	if res.AffectedDests > g.NumNodes() {
		t.Errorf("AffectedDests = %d exceeds node count", res.AffectedDests)
	}
	// Packet conservation across all destinations.
	if res.Delivered+res.NoRoute+res.TTLExhaustions != res.PacketsSent {
		t.Errorf("packets unaccounted: %+v", res)
	}
	// T_long keeps the graph connected: deliveries must dominate.
	if res.Delivered == 0 {
		t.Error("no packet delivered in a connected T_long")
	}
}

func TestMultiDestTDown(t *testing.T) {
	g := topology.Clique(5)
	res, err := RunMulti(TDownScenario(g, 0, bgp.DefaultConfig(), 2), nil)
	if err != nil {
		t.Fatal(err)
	}
	// Destination 0 is gone: its packets can never be delivered.
	d0 := res.PerDest[0]
	if d0 == nil {
		t.Fatal("destination 0 missing")
	}
	if d0.Replay.Delivered != 0 {
		t.Errorf("packets delivered to failed destination: %+v", d0.Replay)
	}
	// Node 0's failure removes it as a source and transit for every
	// other destination; each such destination remains reachable among
	// the surviving clique.
	for dest, out := range res.PerDest {
		if dest == 0 {
			continue
		}
		if out.Replay.TTLExhausted > 0 {
			// Possible but should be modest: the clique retains direct
			// links between all survivors.
			t.Logf("dest %d: %d exhaustions", dest, out.Replay.TTLExhausted)
		}
	}
	if res.UpdatesSent == 0 {
		t.Error("no updates counted")
	}
}

func TestMultiDestSingleOriginMatchesScenario(t *testing.T) {
	// A multi-scenario restricted to one origin must agree with the
	// single-destination harness on the core metrics.
	g := topology.Clique(5)
	cfg := bgp.DefaultConfig()
	mres, err := RunMulti(TDownScenario(g, 0, cfg, 7), []topology.Node{0})
	if err != nil {
		t.Fatal(err)
	}
	sres, err := Run(CliqueTDown(5, cfg, 7))
	if err != nil {
		t.Fatal(err)
	}
	if mres.ConvergenceTime != sres.ConvergenceTime {
		t.Errorf("convergence: multi %v vs single %v", mres.ConvergenceTime, sres.ConvergenceTime)
	}
	if mres.TTLExhaustions != sres.TTLExhaustions {
		t.Errorf("exhaustions: multi %d vs single %d", mres.TTLExhaustions, sres.TTLExhaustions)
	}
	if mres.PacketsSent != sres.PacketsSent {
		t.Errorf("packets: multi %d vs single %d", mres.PacketsSent, sres.PacketsSent)
	}
}

func TestMultiDestDeterministic(t *testing.T) {
	s := TDownScenario(topology.Clique(4), 0, bgp.DefaultConfig(), 5)
	a, err := RunMulti(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunMulti(s, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.ConvergenceTime != b.ConvergenceTime || a.TTLExhaustions != b.TTLExhaustions ||
		a.UpdatesSent != b.UpdatesSent || a.LoopCount != b.LoopCount {
		t.Error("multi-dest runs diverged under identical seeds")
	}
}

func TestMultiDestEventBudget(t *testing.T) {
	s := TDownScenario(topology.Clique(5), 0, bgp.DefaultConfig(), 1)
	s.MaxEvents = 10
	_, err := RunMulti(s, nil)
	if !errors.Is(err, ErrNoQuiescence) {
		t.Fatalf("tiny budget gave %v, want ErrNoQuiescence", err)
	}
	// The multi-prefix path runs under the same watchdog as Run, so the
	// failure carries the structured diagnosis.
	if !errors.As(err, new(*QuiescenceFailure)) {
		t.Errorf("err = %v (%T), want a *QuiescenceFailure", err, err)
	}
}

// digestMulti is the canonical digest of a MultiResult: its JSON with
// PerDest flattened to a destination-sorted slice.
func digestMulti(t *testing.T, r *MultiResult) string {
	t.Helper()
	type destRow struct {
		Dest topology.Node
		*DestOutcome
	}
	flat := struct {
		MultiResult
		PerDest []destRow
	}{MultiResult: *r}
	for dest, out := range r.PerDest {
		flat.PerDest = append(flat.PerDest, destRow{dest, out})
	}
	sort.Slice(flat.PerDest, func(i, j int) bool { return flat.PerDest[i].Dest < flat.PerDest[j].Dest })
	b, err := json.Marshal(flat)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestMultiDestGolden pins RunMulti's output on five runs, with guards off
// and full (guards are observation-only on the multi-prefix path too).
// The digests were recorded from the stand-alone multi-prefix run loop of
// commit 26e78f0, before RunMulti became a view over the RunContext
// engine.
func TestMultiDestGolden(t *testing.T) {
	inet, err := topology.InternetLike(30, 2)
	if err != nil {
		t.Fatal(err)
	}
	var busiest topology.Node
	for _, v := range inet.Nodes() {
		if inet.Degree(v) > inet.Degree(busiest) {
			busiest = v
		}
	}
	cfg := bgp.DefaultConfig()
	cases := []struct {
		name    string
		s       Scenario
		origins []topology.Node
		digest  string
	}{
		{"clique5 tdown all origins",
			TDownScenario(topology.Clique(5), 0, cfg, 7), nil,
			"a6e166e9260ab51d9af47453d6bd91bbd3f985bee4836fe3bb73747f5cd39e0b"},
		{"clique5 tdown origins exclude failed node",
			TDownScenario(topology.Clique(5), 0, cfg, 7), []topology.Node{3, 1, 4},
			"7b56c14f591dc30b59af2aa5259da3fa815b7e3b35963c028fc7cd19ece462d8"},
		{"bclique4 tlong",
			TLongScenario(topology.BClique(4), 0, topology.BCliqueShortcut(4), cfg, 1), nil,
			"41ea60d4976a938207b4c5deb66f9caddb5e6314108de0e242d8795ca440a733"},
		{"ring6 tlong",
			TLongScenario(topology.Ring(6), 0, topology.NormEdge(0, 1), cfg, 3), nil,
			"9db3b8c1ee0c89d51610a98258099dbe90129e97e8659364674b6968a4d24cc3"},
		{"internet30 tdown busiest",
			TDownScenario(inet, busiest, cfg, 4), nil,
			"eeb19719d8f1004a53dbebb09e0a9fe2e911ec96f9355392e26bacfa722a3f8f"},
	}
	for _, guard := range []string{"off", "full"} {
		for _, tt := range cases {
			t.Run("guard="+guard+"/"+tt.name, func(t *testing.T) {
				t.Setenv("BGPSIM_GUARD", guard)
				res, err := RunMulti(tt.s, tt.origins)
				if err != nil {
					t.Fatal(err)
				}
				if got := digestMulti(t, res); got != tt.digest {
					t.Errorf("digest = %s, want %s", got, tt.digest)
				}
			})
		}
	}
}
