package bgploop_test

import (
	"errors"
	"strings"
	"testing"
	"time"

	"bgploop"
)

func TestQuickstartFlow(t *testing.T) {
	s := bgploop.CliqueTDown(6, bgploop.DefaultConfig(), 1)
	rep, err := bgploop.Run(s)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ConvergenceTime <= 0 {
		t.Error("no convergence time")
	}
	if rep.LoopingRatio <= 0 {
		t.Error("clique T_down produced no looping")
	}
}

func TestFigure1Scenario(t *testing.T) {
	rep, err := bgploop.Run(bgploop.Figure1TLong(bgploop.DefaultConfig(), 1))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, l := range rep.Loops {
		if l.Size() == 2 && l.Nodes[0] == 5 && l.Nodes[1] == 6 {
			found = true
		}
	}
	if !found {
		t.Errorf("canonical 5<->6 loop missing: %v", rep.Loops)
	}
}

func TestBCliqueTLong(t *testing.T) {
	rep, err := bgploop.Run(bgploop.BCliqueTLong(5, bgploop.DefaultConfig(), 2))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Event != bgploop.TLong {
		t.Errorf("event = %v", rep.Event)
	}
}

func TestInternetLike(t *testing.T) {
	g, err := bgploop.InternetLike(29, 7)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 29 || !g.Connected() {
		t.Errorf("internet graph malformed: %d nodes", g.NumNodes())
	}
	for _, v := range []bgploop.Node{-1, 29} {
		if got := g.IncidentEdges(v); got != nil {
			t.Errorf("IncidentEdges(%d) = %v, want nil", v, got)
		}
	}
}

func TestCompareEnhancements(t *testing.T) {
	tbl, err := bgploop.CompareEnhancements(bgploop.CliqueTDown(5, bgploop.DefaultConfig(), 3))
	if err != nil {
		t.Fatal(err)
	}
	out := tbl.String()
	for _, v := range []string{"standard", "ssld", "wrate", "assertion", "ghostflush"} {
		if !strings.Contains(out, v) {
			t.Errorf("comparison missing %q", v)
		}
	}
}

func TestFigureIDs(t *testing.T) {
	ids := bgploop.FigureIDs()
	if len(ids) != 18 {
		t.Fatalf("FigureIDs = %v, want 18 figures", ids)
	}
}

func TestRunFigureQuick(t *testing.T) {
	sc := bgploop.QuickScale()
	sc.CliqueSizes = []int{4}
	sc.Trials = 1
	tbl, err := bgploop.RunFigure("4a", sc)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 1 {
		t.Errorf("rows = %d, want 1", len(tbl.Rows))
	}
}

func TestCustomMRAI(t *testing.T) {
	cfg := bgploop.DefaultConfig()
	cfg.MRAI = 5 * time.Second
	rep, err := bgploop.Run(bgploop.CliqueTDown(6, cfg, 1))
	if err != nil {
		t.Fatal(err)
	}
	cfg30 := bgploop.DefaultConfig()
	rep30, err := bgploop.Run(bgploop.CliqueTDown(6, cfg30, 1))
	if err != nil {
		t.Fatal(err)
	}
	if rep.ConvergenceTime >= rep30.ConvergenceTime {
		t.Errorf("MRAI 5s convergence %v not faster than 30s %v",
			rep.ConvergenceTime, rep30.ConvergenceTime)
	}
}

func TestGuardedRunAndShrinkAPI(t *testing.T) {
	// Guards are observation-only: a guarded run succeeds with identical
	// metrics (asserted in depth by internal/experiment's parity test).
	s := bgploop.CliqueTDown(5, bgploop.DefaultConfig(), 4)
	s.Guard = bgploop.GuardConfig{Cadence: bgploop.GuardFull}
	if _, err := bgploop.Run(s); err != nil {
		t.Fatalf("guarded run: %v", err)
	}

	// The corrupted-FIB self-test hook yields a violation; its forensic
	// bundle shrinks to a minimal reproducer through the public API.
	n := 2
	s.Guard.CorruptFIBNode = &n
	dir := t.TempDir()
	_, _, _, err := bgploop.RunSweep(bgploop.Repeat(s), 1, bgploop.SweepOptions{CacheDir: dir})
	if err == nil {
		t.Fatal("corrupted-FIB sweep succeeded")
	}
	var tf *bgploop.TrialFailure
	if !errors.As(err, &tf) || tf.ForensicPath == "" {
		t.Fatalf("no persisted forensic bundle in %v", err)
	}
	b, err := bgploop.ReadForensicBundle(tf.ForensicPath)
	if err != nil {
		t.Fatal(err)
	}
	spec, stats, err := bgploop.ShrinkFailure(b, 64)
	if err != nil {
		t.Fatal(err)
	}
	if spec.Topology.Size > 4 || stats.Runs == 0 {
		t.Errorf("shrunk to %d nodes in %d runs", spec.Topology.Size, stats.Runs)
	}
}
