package experiment

import (
	"errors"
	"testing"

	"bgploop/internal/bgp"
	"bgploop/internal/routing"
	"bgploop/internal/topology"
)

// faultySweepGen drives a 5-trial sweep where trial 1 panics inside the
// simulation (a poisoned policy hook) and trial 3 never quiesces (BAD
// GADGET); trials 0, 2, 4 are healthy.
func faultySweepGen(trial int) (Scenario, error) {
	switch trial {
	case 1:
		s := CliqueTDown(4, bgp.DefaultConfig(), int64(trial))
		s.BGP.PolicyFor = func(self topology.Node) routing.Policy {
			panic("poisoned policy hook")
		}
		return s, nil
	case 3:
		s := BadGadget(20_000)
		s.Seed = int64(trial)
		return s, nil
	default:
		return CliqueTDown(4, bgp.DefaultConfig(), int64(trial)), nil
	}
}

func TestRunTrialsOptsContinueOnFailure(t *testing.T) {
	agg, results, _, err := RunSweep(faultySweepGen, 5, SweepOptions{ContinueOnFailure: true})
	if err != nil {
		t.Fatalf("2/5 failures is under the default threshold, got err: %v", err)
	}
	if agg.Trials != 3 || agg.Attempted != 5 {
		t.Errorf("Trials/Attempted = %d/%d, want 3/5", agg.Trials, agg.Attempted)
	}
	if len(results) != 3 {
		t.Fatalf("results = %d, want the 3 surviving trials", len(results))
	}
	if agg.ConvergenceSec.N != 3 {
		t.Errorf("ConvergenceSec.N = %d, want 3 (failed trials must not contribute samples)", agg.ConvergenceSec.N)
	}
	if len(agg.Failures) != 2 {
		t.Fatalf("Failures = %d, want 2", len(agg.Failures))
	}

	panicked := agg.Failures[0]
	if panicked.Trial != 1 || !panicked.Panicked {
		t.Errorf("first failure = trial %d panicked=%v, want trial 1 panicked", panicked.Trial, panicked.Panicked)
	}
	if !errors.Is(panicked, ErrTrialPanic) {
		t.Errorf("panicking failure does not wrap ErrTrialPanic: %v", panicked.Err)
	}
	if panicked.PanicValue != "poisoned policy hook" {
		t.Errorf("PanicValue = %q", panicked.PanicValue)
	}
	if panicked.Stack == "" {
		t.Error("panic failure carries no stack trace")
	}

	diverged := agg.Failures[1]
	if diverged.Trial != 3 || diverged.Panicked {
		t.Errorf("second failure = trial %d panicked=%v, want trial 3 not panicked", diverged.Trial, diverged.Panicked)
	}
	if !errors.Is(diverged, ErrNoQuiescence) {
		t.Errorf("diverging failure does not wrap ErrNoQuiescence: %v", diverged.Err)
	}
	// The failure must be replayable from the carried scenario and seed.
	if diverged.Scenario.Graph == nil || diverged.Seed != 3 {
		t.Fatalf("failure scenario not replayable: graph=%v seed=%d", diverged.Scenario.Graph, diverged.Seed)
	}
	if _, rerr := Run(diverged.Scenario); !errors.Is(rerr, ErrNoQuiescence) {
		t.Errorf("replaying the failed scenario gave %v, want ErrNoQuiescence again", rerr)
	}
}

func TestRunTrialsFailFastKeepsPartialResults(t *testing.T) {
	agg, results, _, err := RunSweep(faultySweepGen, 5, SweepOptions{})
	if err == nil {
		t.Fatal("fail-fast sweep over a panicking trial must error")
	}
	var tf *TrialFailure
	if !errors.As(err, &tf) || tf.Trial != 1 {
		t.Fatalf("err = %v, want the trial-1 *TrialFailure", err)
	}
	if !errors.Is(err, ErrTrialPanic) {
		t.Errorf("err chain lacks ErrTrialPanic: %v", err)
	}
	// Trial 0's result survives the failure.
	if len(results) != 1 || agg.Trials != 1 || agg.Attempted != 2 {
		t.Errorf("partial results/Trials/Attempted = %d/%d/%d, want 1/1/2",
			len(results), agg.Trials, agg.Attempted)
	}
}

func TestRunTrialsOptsFailureRatioThreshold(t *testing.T) {
	gen := func(trial int) (Scenario, error) {
		if trial > 0 {
			return Scenario{}, errors.New("synthetic generator failure")
		}
		return CliqueTDown(4, bgp.DefaultConfig(), 1), nil
	}
	// One worker: with more, the two instant generator failures doom the
	// sweep while trial 0 is still in flight and cancel it.
	agg, results, _, err := RunSweep(gen, 3, SweepOptions{ContinueOnFailure: true, Workers: 1})
	if err == nil {
		t.Fatal("2/3 failures exceeds the 0.5 threshold; the sweep must error")
	}
	// Partial data still comes back alongside the error.
	if len(results) != 1 || agg.Trials != 1 || agg.Attempted != 3 || len(agg.Failures) != 2 {
		t.Errorf("partial outcome = %d results, %d/%d trials, %d failures; want 1, 1/3, 2",
			len(results), agg.Trials, agg.Attempted, len(agg.Failures))
	}

	// A laxer threshold accepts the same sweep.
	_, _, _, err = RunSweep(gen, 3, SweepOptions{ContinueOnFailure: true, MaxFailureRatio: 0.9})
	if err != nil {
		t.Errorf("2/3 failures under a 0.9 threshold should pass, got %v", err)
	}
}

func TestRunTrialsAllHealthyUnchanged(t *testing.T) {
	agg, results, _, err := RunSweep(Repeat(CliqueTDown(4, bgp.DefaultConfig(), 9)), 3, SweepOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if agg.Trials != 3 || agg.Attempted != 3 || len(agg.Failures) != 0 || len(results) != 3 {
		t.Errorf("healthy sweep = %d/%d trials, %d failures, %d results",
			agg.Trials, agg.Attempted, len(agg.Failures), len(results))
	}
}
