package core

import (
	"strings"
	"testing"

	"bgploop/internal/bgp"
	"bgploop/internal/experiment"
	"bgploop/internal/topology"
)

func figure1Scenario(seed int64) experiment.Scenario {
	return experiment.TLongScenario(
		topology.Figure1(), 0, topology.Figure1FailedLink(), bgp.DefaultConfig(), seed)
}

func TestRunEnriches(t *testing.T) {
	rep, err := Run(figure1Scenario(1))
	if err != nil {
		t.Fatal(err)
	}
	if rep.ConvergenceTime <= 0 {
		t.Error("no convergence measured")
	}
	// A single-failure workload must never violate the §3.2 bound.
	if len(rep.BoundViolations) != 0 {
		t.Errorf("bound violations: %v", rep.BoundViolations)
	}
}

func TestBoundHoldsAcrossScenarios(t *testing.T) {
	scenarios := map[string]experiment.Scenario{
		"clique8-tdown":  experiment.CliqueTDown(8, bgp.DefaultConfig(), 2),
		"bclique6-tlong": experiment.BCliqueTLong(6, bgp.DefaultConfig(), 3),
	}
	for name, s := range scenarios {
		t.Run(name, func(t *testing.T) {
			rep, err := Run(s)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.BoundViolations) != 0 {
				t.Errorf("bound violations: %v", rep.BoundViolations)
			}
		})
	}
}

func TestLoopCoverage(t *testing.T) {
	rep, err := Run(experiment.CliqueTDown(8, bgp.DefaultConfig(), 5))
	if err != nil {
		t.Fatal(err)
	}
	// Clique T_down loops almost throughout convergence (§4.3): coverage
	// must be high but is a probability, so within (0, 1].
	if rep.LoopCoverage <= 0.3 || rep.LoopCoverage > 1.0001 {
		t.Errorf("clique T_down loop coverage = %v, want high fraction", rep.LoopCoverage)
	}
	if rep.MaxConcurrentLoops < 1 {
		t.Errorf("MaxConcurrentLoops = %d", rep.MaxConcurrentLoops)
	}
}

func TestSummaryTable(t *testing.T) {
	rep, err := Run(figure1Scenario(1))
	if err != nil {
		t.Fatal(err)
	}
	out := rep.SummaryTable().String()
	for _, want := range []string{"convergence_time", "looping_ratio", "ttl_exhaustions", "figure1"} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestLoopTable(t *testing.T) {
	rep, err := Run(figure1Scenario(1))
	if err != nil {
		t.Fatal(err)
	}
	tbl := rep.LoopTable()
	if len(tbl.Rows) == 0 {
		t.Fatal("figure 1 run produced no loop rows")
	}
	// The canonical 5-6 loop must appear.
	found := false
	for _, row := range tbl.Rows {
		if row[0] == "5-6" {
			found = true
		}
	}
	if !found {
		t.Errorf("loop table missing the 5-6 loop:\n%s", tbl.String())
	}
}

func TestCompareEnhancements(t *testing.T) {
	tbl, err := CompareEnhancements(experiment.CliqueTDown(6, bgp.DefaultConfig(), 4))
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 5 {
		t.Fatalf("rows = %d, want 5", len(tbl.Rows))
	}
	if tbl.Rows[0][0] != "standard" || tbl.Rows[4][0] != "ghostflush" {
		t.Errorf("variant order wrong: %v", tbl.Rows)
	}
}

func TestRunPropagatesErrors(t *testing.T) {
	if _, err := Run(experiment.Scenario{}); err == nil {
		t.Error("invalid scenario accepted")
	}
}
