package experiment

import (
	"strings"
	"testing"

	"bgploop/internal/bgp"
	"bgploop/internal/routing"
	"bgploop/internal/topology"
)

// TestKeysGolden pins the bytes of CacheKey on the shipped specs, the
// paper's scenario builders and one fault-plan and one transport spec. A
// key that moves orphans every cache object stored under it, so the
// values are a contract: they were
// recorded before policy naming moved into the policy table, and that
// move had to keep every one of them.
func TestKeysGolden(t *testing.T) {
	spec := func(path string) func(t *testing.T) Scenario {
		return func(t *testing.T) Scenario {
			s, err := LoadScenarioFile("../../examples/specs/" + path)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
	}
	inline := func(json string) func(t *testing.T) Scenario {
		return func(t *testing.T) Scenario {
			s, err := LoadScenario(strings.NewReader(json))
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
	}
	trial0 := func(gen Generator) func(t *testing.T) Scenario {
		return func(t *testing.T) Scenario {
			s, err := gen(0)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}
	}
	fixed := func(s Scenario) func(t *testing.T) Scenario {
		return func(*testing.T) Scenario { return s }
	}
	cfg := bgp.DefaultConfig()
	cases := []struct {
		name     string
		build    func(t *testing.T) Scenario
		cacheKey string
	}{
		{"bclique8-tlong-ssld", spec("bclique8-tlong-ssld.json"),
			"f81dd2db2eccb622c0ddc23038a7879fc30740a075d56141c08888605a6ed503",
		},
		{"clique15-tdown", spec("clique15-tdown.json"),
			"cc3aca736a449d975c87b84c8188c6101317703770d36bc5530a1929bf814a09",
		},
		{"clique5-flap-damping", spec("clique5-flap-damping.json"),
			"a13507d8de974486bfaa70c1fb019856c3a9e67a4a3c837cd331522cd825c51e",
		},
		{"degraded-clique", spec("degraded-clique.json"),
			"70664c7654f2f5210dd6ce9c04b96d9d137129b3ef351047d075088012ae3e11",
		},
		{"figure1-tlong", spec("figure1-tlong.json"),
			"e1f398aaa7d0e80ca6b742bdbd6b80e050a89c12d0ff056d442a5a95eee72e21",
		},
		{"CliqueTDown(15)", fixed(CliqueTDown(15, cfg, 1)),
			"cc3aca736a449d975c87b84c8188c6101317703770d36bc5530a1929bf814a09",
		},
		{"BCliqueTLong(8)", fixed(BCliqueTLong(8, cfg, 1)),
			"40c3acf1b9023d143de89b9a380b132adbfd2868235be3b76446710f642462fa",
		},
		{"InternetTDown(110)", trial0(InternetTDown(110, cfg, 1)),
			"d973ad6868078e6d2909b8a0cceb179f2ff67d16643680789eb582d019f19bce",
		},
		{"InternetTLong(1000)", trial0(InternetTLong(1000, cfg, 1)),
			"8b6a496ee7550bcc91abebbb11dfbc97b84f5736fb9a347e6c8b4e02a5f1bbb1",
		},
		{"fault plan", inline(`{"topology": {"family": "bclique", "size": 5}, "seed": 4,
			"faultPlan": {"name": "flap", "phases": [{"name": "flap", "delaySeconds": 1, "measure": true, "role": "main",
			"actions": [{"op": "flapLink", "link": [0, 5], "cycles": 2, "periodSeconds": 3}]}]}}`),
			"a6b37a680119c0f4487c34ce3dcc43a63ba43e17d29be2f3f6cac61840d40f49",
		},
		{"transport", inline(`{"topology": {"family": "ring", "size": 6}, "event": "tlong", "seed": 2,
			"transport": {"loss": 0.1, "reorderProb": 0.2, "reorderWindowSeconds": 0.05, "jitterSeconds": 0.01}}`),
			"f4246c3888d77d4aae86344f5d2b0bcaad9e42cfe012d8423451a21a8844644e",
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := c.build(t)
			if got := s.CacheKey(); got != c.cacheKey {
				t.Errorf("CacheKey = %s, want %s", got, c.cacheKey)
			}
		})
	}
}

// TestNamedPolicyKeys: a named policy enters CacheKey by its name, so
// BAD GADGET and Gao-Rexford scenarios are cacheable and key apart from
// the same graph under shortest path, while hooks set by hand (the
// tests' fault-injection seam) stay uncacheable, and a name beside hooks
// of the scenario's own is refused.
func TestNamedPolicyKeys(t *testing.T) {
	inet, err := InternetTDown(110, bgp.DefaultConfig(), 1)(0)
	if err != nil {
		t.Fatal(err)
	}
	gadget := BadGadget(30_000)
	k4 := gadget
	k4.NamedPolicy = ""
	gaoRexford := inet
	gaoRexford.NamedPolicy = PolicyGaoRexford
	for _, c := range []struct {
		name            string
		named, shortest Scenario
	}{
		{"badGadget", gadget, k4},
		{"gaoRexford", gaoRexford, inet},
	} {
		t.Run(c.name, func(t *testing.T) {
			if named, shortest := c.named.CacheKey(), c.shortest.CacheKey(); named == "" || named == shortest {
				t.Errorf("CacheKey = %q, want non-empty and apart from the shortest-path %q", named, shortest)
			}
			// "shortestPath" spelled out is the default, not a new key.
			sp := c.shortest
			sp.NamedPolicy = PolicyShortestPath
			if sp.CacheKey() != c.shortest.CacheKey() {
				t.Error(`NamedPolicy "shortestPath" moved the shortest-path keys`)
			}
		})
	}

	hooked := inet
	hooked.BGP.PolicyFor = func(topology.Node) routing.Policy { return routing.ShortestPath{} }
	exported := inet
	exported.BGP.Export = bgp.GaoRexfordExport{Rel: topology.InternetRelations(inet.Graph)}
	for _, c := range []struct {
		name string
		s    Scenario
	}{{"PolicyFor", hooked}, {"Export", exported}} {
		name, s := c.name, c.s
		if k := s.CacheKey(); k != "" {
			t.Errorf("hand-set %s: CacheKey = %q, want uncacheable", name, k)
		}
		s.NamedPolicy = PolicyGaoRexford
		if err := s.Validate(); err == nil {
			t.Errorf("hand-set %s beside a named policy validated", name)
		}
	}
}
