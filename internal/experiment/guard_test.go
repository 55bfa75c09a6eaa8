package experiment

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"bgploop/internal/bgp"
	"bgploop/internal/invariant"
	"bgploop/internal/routing"
	"bgploop/internal/topology"
)

// poisonedPolicy panics on the first route comparison — i.e. in the
// middle of the simulation, while update events are executing, so the
// guard engine has a trail to capture.
type poisonedPolicy struct{}

func (poisonedPolicy) Better(a, b routing.Candidate) bool {
	panic("poisoned policy hook")
}

// poisonedPolicyFor poisons only the victim node's route selection.
func poisonedPolicyFor(victim topology.Node) func(topology.Node) routing.Policy {
	return func(self topology.Node) routing.Policy {
		if self == victim {
			return poisonedPolicy{}
		}
		return routing.ShortestPath{}
	}
}

// guarded returns s with guards switched to c.
func guarded(s Scenario, c invariant.Cadence) Scenario {
	s.Guard = invariant.Config{Cadence: c}
	return s
}

// TestGuardDigestParity is the observation-only guarantee: a run with
// guards full produces a byte-identical DigestResult to the same run
// with guards off. It is also the eager-equals-deferred guarantee for
// MRAI expiries: with guards off the scheduler counts an expiry no send
// waits on without ever making it an event, and guards on attach the exec
// hook, under which every expiry is an event; the Internet(110) runs are where most expiries find
// nothing to send.
func TestGuardDigestParity(t *testing.T) {
	scenarios := map[string]Scenario{
		"bclique-tlong": BCliqueTLong(4, bgp.DefaultConfig(), 7),
		"clique-tdown":  CliqueTDown(5, bgp.DefaultConfig(), 11),
	}
	recov := scenarios["bclique-tlong"]
	recov.RestoreDelay = 500 * 1e6 // 500 ms: exercise multi-phase boundaries
	scenarios["bclique-recovery"] = recov
	for name, gen := range map[string]Generator{
		"internet110-tdown": InternetTDown(110, bgp.DefaultConfig(), 3),
		"internet110-tlong": InternetTLong(110, bgp.DefaultConfig(), 5),
	} {
		s, err := gen(0)
		if err != nil {
			t.Fatal(err)
		}
		scenarios[name] = s
	}

	for name, s := range scenarios {
		t.Run(name, func(t *testing.T) {
			base, err := Run(guarded(s, invariant.CadenceOff))
			if err != nil {
				t.Fatalf("Run(off): %v", err)
			}
			want, err := DigestResult(base)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Run(guarded(s, invariant.CadenceFull))
			if err != nil {
				t.Fatalf("Run(full): %v", err)
			}
			got, err := DigestResult(res)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Errorf("guards full: digest %s, want %s (guards are not observation-only)", got, want)
			}
		})
	}
}

// TestGuardWatchdogParity pins the watchdog's cuts, eager against
// deferred MRAI expiries (guards full against off): a run cut by its
// phase event budget and one cut by its virtual-time horizon must stop at
// the same event and instant, so their diagnoses — events used, clock,
// pending census — read the same byte for byte.
func TestGuardWatchdogParity(t *testing.T) {
	tdown, err := InternetTDown(110, bgp.DefaultConfig(), 3)(0)
	if err != nil {
		t.Fatal(err)
	}
	tdown.PhaseEventBudget = 4000
	tlong, err := InternetTLong(110, bgp.DefaultConfig(), 5)(0)
	if err != nil {
		t.Fatal(err)
	}
	tlong.Horizon = 60 * time.Second
	for name, c := range map[string]struct {
		s       Scenario
		horizon bool
	}{
		"phase-budget": {tdown, false},
		"horizon":      {tlong, true},
	} {
		t.Run(name, func(t *testing.T) {
			var text [2]string
			for i, cadence := range []invariant.Cadence{invariant.CadenceOff, invariant.CadenceFull} {
				_, err := Run(guarded(c.s, cadence))
				var qf *QuiescenceFailure
				if !errors.As(err, &qf) || qf.HorizonHit != c.horizon {
					t.Fatalf("cadence %s: error %v, want a watchdog cut (horizon %v)", cadence, err, c.horizon)
				}
				text[i] = err.Error()
			}
			if text[0] != text[1] {
				t.Errorf("watchdog diagnosis differs:\n  off  %s\n  full %s", text[0], text[1])
			}
		})
	}
}

// corruptScenario builds the fault-injection self-test: node 2's FIB
// entry is hidden from the guard, so a guarded run must report a
// rib-fib-coherence violation once node 2 installs a route.
func corruptScenario(seed int64) Scenario {
	s := CliqueTDown(5, bgp.DefaultConfig(), seed)
	n := 2
	s.Guard = invariant.Config{Cadence: invariant.CadenceFull, CorruptFIBNode: &n}
	return s
}

func TestCorruptFIBYieldsViolation(t *testing.T) {
	_, err := Run(corruptScenario(3))
	if err == nil {
		t.Fatal("corrupted-FIB run succeeded; want a rib-fib-coherence violation")
	}
	var ve *invariant.ViolationError
	if !errors.As(err, &ve) {
		t.Fatalf("error %T %v, want *invariant.ViolationError", err, err)
	}
	if ve.V.ID != "rib-fib-coherence" {
		t.Errorf("violation ID %q, want rib-fib-coherence", ve.V.ID)
	}
	if ve.V.Node != 2 {
		t.Errorf("violation node %d, want 2", ve.V.Node)
	}
	if len(ve.V.Trail) == 0 {
		t.Error("violation carries an empty event trail")
	}
	if len(ve.RIBDigests) == 0 {
		t.Error("violation carries no RIB digests")
	}
	if FailureSignature(err) != "invariant:rib-fib-coherence" {
		t.Errorf("FailureSignature = %q", FailureSignature(err))
	}
}

// TestCorruptFIBUncacheable: the injected violation depends on guard
// config, so such scenarios must refuse the result cache.
func TestCorruptFIBUncacheable(t *testing.T) {
	if key := corruptScenario(3).CacheKey(); key != "" {
		t.Errorf("CacheKey = %q, want uncacheable", key)
	}
}

// TestForensicBundleWrittenAndShrunk drives the full forensic pipeline:
// a cache-backed sweep hits the injected violation, persists a bundle
// under <cache>/forensics/, and ShrinkFailure reduces the scenario to
// the two pinned nodes while preserving the failure signature.
func TestForensicBundleWrittenAndShrunk(t *testing.T) {
	dir := t.TempDir()
	gen := func(trial int) (Scenario, error) { return corruptScenario(3), nil }
	_, _, _, err := RunSweep(gen, 1, SweepOptions{CacheDir: dir})
	if err == nil {
		t.Fatal("sweep succeeded; want the injected violation")
	}
	var tf *TrialFailure
	if !errors.As(err, &tf) {
		t.Fatalf("error %T, want *TrialFailure", err)
	}
	if tf.Forensic == nil {
		t.Fatal("TrialFailure carries no forensic bundle")
	}
	if tf.Forensic.Signature != "invariant:rib-fib-coherence" {
		t.Errorf("bundle signature %q", tf.Forensic.Signature)
	}
	if tf.Forensic.Violation == nil || len(tf.Forensic.Trail) == 0 {
		t.Error("bundle is missing the violation or its trail")
	}
	if tf.ForensicPath == "" {
		t.Fatal("bundle was not persisted despite CacheDir")
	}
	if got, want := filepath.Dir(tf.ForensicPath), ForensicsDir(dir); got != want {
		t.Errorf("bundle dir %s, want %s", got, want)
	}
	if _, err := os.Stat(tf.ForensicPath); err != nil {
		t.Fatalf("bundle file: %v", err)
	}

	b, err := invariant.ReadBundle(tf.ForensicPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Scenario) == 0 {
		t.Fatal("bundle carries no replayable scenario spec")
	}

	min, stats, err := ShrinkFailure(b, 128)
	if err != nil {
		t.Fatalf("ShrinkFailure: %v", err)
	}
	if min.Topology.Size > 4 {
		t.Errorf("shrunk to %d nodes, want <= 4", min.Topology.Size)
	}
	if stats.Accepted == 0 {
		t.Error("shrinker accepted no reductions from a 5-clique")
	}
	if got := runForSignature(min); got != b.Signature {
		t.Errorf("shrunk scenario signature %q, want %q", got, b.Signature)
	}
	// The destination and the corruption target are pinned.
	if min.Dest == nil || min.Guard == nil || min.Guard.CorruptFIBNode == nil {
		t.Fatal("shrunk spec lost the pinned dest or corrupt node")
	}
}

// TestGuardedPanicBecomesForensicError: with guards on, an internal
// panic surfaces as a structured PanicError (trail attached) and the
// trial layer classifies it exactly like the legacy recover path.
func TestGuardedPanicBecomesForensicError(t *testing.T) {
	s := CliqueTDown(4, bgp.DefaultConfig(), 5)
	s.Guard = invariant.Config{Cadence: invariant.CadenceFull}
	s.BGP.PolicyFor = poisonedPolicyFor(2)

	_, err := Run(s)
	if err == nil {
		t.Fatal("poisoned run succeeded")
	}
	var pe *invariant.PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("error %T %v, want *invariant.PanicError", err, err)
	}
	if !strings.Contains(pe.Value, "poisoned policy hook") {
		t.Errorf("panic value %q", pe.Value)
	}
	if len(pe.Trail) == 0 {
		t.Error("panic error carries an empty trail")
	}

	gen := func(trial int) (Scenario, error) { return s, nil }
	_, _, _, terr := RunSweep(gen, 1, SweepOptions{})
	var tf *TrialFailure
	if !errors.As(terr, &tf) {
		t.Fatalf("trial error %T", terr)
	}
	if !tf.Panicked || !strings.Contains(tf.PanicValue, "poisoned policy hook") {
		t.Errorf("trial failure not classified as panic: %+v", tf)
	}
	if !errors.Is(terr, ErrTrialPanic) {
		t.Error("trial failure does not wrap ErrTrialPanic")
	}
	if tf.Forensic == nil || !strings.HasPrefix(tf.Forensic.Signature, "panic:") {
		t.Error("panic failure carries no panic-signature forensic bundle")
	}
}

// TestScenarioSpecRoundTrip: NewScenarioSpec is the inverse of
// ScenarioSpec.Scenario for representable scenarios — the round-tripped
// scenario has the same cache key, hence byte-identical results.
func TestScenarioSpecRoundTrip(t *testing.T) {
	s := BCliqueTLong(4, bgp.DefaultConfig(), 9)
	s.FlapCycles = 1
	s.RestoreDelay = 250 * 1e6

	spec, err := NewScenarioSpec(s)
	if err != nil {
		t.Fatalf("NewScenarioSpec: %v", err)
	}
	if spec.Topology.Family != "edges" {
		t.Errorf("family %q, want edges", spec.Topology.Family)
	}
	back, err := spec.Scenario()
	if err != nil {
		t.Fatalf("Scenario: %v", err)
	}
	want, got := s.CacheKey(), back.CacheKey()
	if want == "" {
		t.Fatal("original scenario unexpectedly uncacheable")
	}
	// The topology name differs (bclique-4 vs edges-N), which is part of
	// the key, so compare everything else by clearing the names.
	s.Graph.SetName("x")
	back.Graph.SetName("x")
	if s.CacheKey() != back.CacheKey() {
		t.Errorf("round-tripped cache key differs:\n %s\n %s", want, got)
	}

	// Zero-MRAI scenarios need the explicit -1 convention to survive.
	z := CliqueTDown(3, bgp.DefaultConfig(), 1)
	z.BGP.MRAI = 0
	zspec, err := NewScenarioSpec(z)
	if err != nil {
		t.Fatal(err)
	}
	if zspec.MRAISeconds >= 0 {
		t.Errorf("zero MRAI rendered as %v, want negative", zspec.MRAISeconds)
	}
	zback, err := zspec.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	if zback.BGP.MRAI != 0 {
		t.Errorf("round-tripped MRAI %v, want 0", zback.BGP.MRAI)
	}
}

// TestNewScenarioSpecRefusals: unrepresentable scenarios error instead
// of silently dropping configuration.
func TestNewScenarioSpecRefusals(t *testing.T) {
	base := CliqueTDown(3, bgp.DefaultConfig(), 1)

	custom := base
	custom.BGP.PolicyFor = poisonedPolicyFor(99)
	if _, err := NewScenarioSpec(custom); err == nil {
		t.Error("PolicyFor scenario was spec-represented")
	}
}
