package experiment

import (
	"context"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"bgploop/internal/bgp"
	"bgploop/internal/routing"
	"bgploop/internal/sweep"
	"bgploop/internal/topology"
)

// sweepDigests runs gen through RunSweep and returns the aggregate digest
// plus the per-trial result digests.
func sweepDigests(t *testing.T, gen Generator, trials int, opts SweepOptions) (string, []string, sweep.Stats) {
	t.Helper()
	agg, results, stats, err := RunSweep(gen, trials, opts)
	if err != nil {
		t.Fatalf("sweep failed: %v", err)
	}
	aggDig, err := DigestAggregate(agg)
	if err != nil {
		t.Fatal(err)
	}
	perTrial := make([]string, len(results))
	for i, res := range results {
		if perTrial[i], err = DigestResult(res); err != nil {
			t.Fatal(err)
		}
	}
	return aggDig, perTrial, stats
}

// TestSweepParallelDeterminism is the acceptance criterion: the same
// sweep at -j 1, -j 4, and -j GOMAXPROCS produces byte-identical
// aggregate and per-trial digests. CI runs this test under -race.
func TestSweepParallelDeterminism(t *testing.T) {
	gen := Repeat(CliqueTDown(5, bgp.DefaultConfig(), 7))
	const trials = 6
	wantAgg, wantTrials, _ := sweepDigests(t, gen, trials, SweepOptions{Workers: 1})
	if len(wantTrials) != trials {
		t.Fatalf("sequential oracle produced %d results, want %d", len(wantTrials), trials)
	}
	for _, workers := range []int{4, runtime.GOMAXPROCS(0)} {
		gotAgg, gotTrials, _ := sweepDigests(t, gen, trials, SweepOptions{Workers: workers})
		if gotAgg != wantAgg {
			t.Errorf("workers=%d: aggregate digest %s, sequential oracle %s", workers, gotAgg, wantAgg)
		}
		for i := range wantTrials {
			if gotTrials[i] != wantTrials[i] {
				t.Errorf("workers=%d trial %d: digest %s, oracle %s", workers, i, gotTrials[i], wantTrials[i])
			}
		}
	}
}

// TestSweepCacheRoundTrip: a warm cache serves every unchanged trial from
// disk (zero re-simulations) and the cached results digest identically to
// the fresh ones; a spec change invalidates the addresses and re-runs.
func TestSweepCacheRoundTrip(t *testing.T) {
	dir := t.TempDir()
	gen := Repeat(CliqueTDown(4, bgp.DefaultConfig(), 11))
	const trials = 4
	opts := SweepOptions{Workers: 2, CacheDir: dir}

	coldAgg, coldTrials, coldStats := sweepDigests(t, gen, trials, opts)
	if coldStats.Executed != trials || coldStats.CacheMisses != trials {
		t.Fatalf("cold stats %+v, want %d executed misses", coldStats, trials)
	}

	warmAgg, warmTrials, warmStats := sweepDigests(t, gen, trials, opts)
	if warmStats.Executed != 0 || warmStats.CacheHits != trials {
		t.Errorf("warm stats %+v, want 0 executed / %d hits", warmStats, trials)
	}
	if warmAgg != coldAgg {
		t.Errorf("cached aggregate digest %s differs from fresh %s", warmAgg, coldAgg)
	}
	for i := range coldTrials {
		if warmTrials[i] != coldTrials[i] {
			t.Errorf("trial %d: cached digest %s, fresh %s", i, warmTrials[i], coldTrials[i])
		}
	}

	// A config change must miss everything, not serve stale results.
	cfg := bgp.DefaultConfig()
	cfg.MRAI = 15 * time.Second
	_, _, changedStats := sweepDigests(t, Repeat(CliqueTDown(4, cfg, 11)), trials, opts)
	if changedStats.CacheHits != 0 || changedStats.Executed != trials {
		t.Errorf("changed-spec stats %+v, want a full re-run", changedStats)
	}
}

// TestSweepQuarantinesNullCacheObject: a cache object holding JSON null
// decodes to nothing, not to an empty Result that encoding/json would make
// of it, so the sweep quarantines it, re-executes that one trial and
// digests exactly as the cold run did.
func TestSweepQuarantinesNullCacheObject(t *testing.T) {
	dir := t.TempDir()
	gen := Repeat(CliqueTDown(4, bgp.DefaultConfig(), 13))
	const trials = 8
	opts := SweepOptions{Workers: 2, CacheDir: dir}
	coldAgg, coldTrials, _ := sweepDigests(t, gen, trials, opts)

	key := trialKey(gen, 5)
	if err := os.WriteFile(filepath.Join(dir, "objects", key[:2], key), []byte("null"), 0o644); err != nil {
		t.Fatal(err)
	}
	warmAgg, warmTrials, stats := sweepDigests(t, gen, trials, opts)
	if stats.Quarantined != 1 || stats.Executed != 1 || stats.CacheHits != trials-1 {
		t.Errorf("stats %+v, want 1 quarantined / 1 executed / %d hits", stats, trials-1)
	}
	if warmAgg != coldAgg || warmTrials[5] != coldTrials[5] {
		t.Errorf("aggregate digest %s (trial 5 %s) after a null object, cold %s (%s)", warmAgg, warmTrials[5], coldAgg, coldTrials[5])
	}
}

// TestSweepUncacheableTrialWithCache: a cache directory does not make an
// uncacheable scenario fail. A traced result has no content address and
// refuses to encode, so the sweep must neither encode nor store it.
func TestSweepUncacheableTrialWithCache(t *testing.T) {
	s := CliqueTDown(5, bgp.DefaultConfig(), 3)
	s.TraceLimit = 50
	for _, workers := range []int{1, 2} {
		dir := t.TempDir()
		_, _, stats, err := RunSweep(Repeat(s), 2, SweepOptions{Workers: workers, CacheDir: dir})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if stats.Executed != 2 {
			t.Errorf("workers=%d: stats %+v, want 2 executed", workers, stats)
		}
		objects, err := os.ReadDir(filepath.Join(dir, "objects"))
		if err != nil {
			t.Fatal(err)
		}
		if len(objects) != 0 {
			t.Errorf("workers=%d: %d entries under objects/, want none", workers, len(objects))
		}
	}
}

// TestSweepResumeAfterInterrupt interrupts a cached sweep partway via
// context cancellation (standing in for a kill), then re-runs it on the
// same CacheDir; the re-run must serve the completed trials from the
// cache, re-simulate only the remainder and reproduce the uninterrupted
// run's digests exactly.
func TestSweepResumeAfterInterrupt(t *testing.T) {
	gen := Repeat(CliqueTDown(4, bgp.DefaultConfig(), 23))
	const trials = 6
	wantAgg, wantTrials, _ := sweepDigests(t, gen, trials, SweepOptions{Workers: 1})

	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	done := 0
	_, _, _, err := RunSweep(gen, trials, SweepOptions{
		Workers:  1,
		CacheDir: dir,
		Context:  ctx,
		Progress: func(trial int, st sweep.Status, src sweep.Source) {
			if st == sweep.StatusDone {
				done++
				if done == 3 {
					cancel() // "kill" the sweep after the 3rd completion
				}
			}
		},
	})
	if err == nil {
		t.Fatal("interrupted sweep reported success")
	}
	cancel()

	gotAgg, gotTrials, stats := sweepDigests(t, gen, trials, SweepOptions{
		Workers: 1, CacheDir: dir,
	})
	if stats.CacheHits != 3 || stats.Executed != trials-3 {
		t.Errorf("re-run stats %+v, want 3 cache hits / %d executed", stats, trials-3)
	}
	if gotAgg != wantAgg {
		t.Errorf("resumed aggregate digest %s, uninterrupted %s", gotAgg, wantAgg)
	}
	for i := range wantTrials {
		if gotTrials[i] != wantTrials[i] {
			t.Errorf("trial %d: resumed digest %s, uninterrupted %s", i, gotTrials[i], wantTrials[i])
		}
	}
}

// TestScenarioCacheKey pins the content-address semantics: stability,
// sensitivity to outcome-relevant fields, insensitivity to defaulting,
// and refusal of scenarios the key cannot capture.
func TestScenarioCacheKey(t *testing.T) {
	base := CliqueTDown(4, bgp.DefaultConfig(), 5)
	k1 := base.CacheKey()
	if k1 == "" {
		t.Fatal("default scenario must be cacheable")
	}
	if k2 := base.CacheKey(); k2 != k1 {
		t.Errorf("key not stable: %s vs %s", k1, k2)
	}

	// Spelling out a default must not change the address.
	explicit := base
	explicit.LinkDelay = 2 * time.Millisecond
	explicit.SettleDelay = time.Second
	if explicit.CacheKey() != k1 {
		t.Error("explicitly spelling out default delays changed the key")
	}

	// Every outcome-relevant change must change it.
	perturb := []struct {
		name  string
		apply func(*Scenario)
	}{
		{"seed", func(s *Scenario) { s.Seed = 6 }},
		{"mrai", func(s *Scenario) { s.BGP.MRAI = 5 * time.Second }},
		{"enhancement", func(s *Scenario) { s.BGP.Enhancements.SSLD = true }},
		{"damping", func(s *Scenario) { s.BGP.Damping = true }},
		{"dest", func(s *Scenario) { s.Dest = 1 }},
		{"flapcycles", func(s *Scenario) { s.FlapCycles = 1 }},
		{"graph", func(s *Scenario) { s.Graph = topology.Clique(5) }},
	}
	seen := map[string]string{k1: "base"}
	for _, p := range perturb {
		ps := base
		p.apply(&ps)
		k := ps.CacheKey()
		if k == "" {
			t.Errorf("%s: perturbed scenario not cacheable", p.name)
			continue
		}
		if prev, dup := seen[k]; dup {
			t.Errorf("%s: key collides with %s", p.name, prev)
		}
		seen[k] = p.name
	}

	// Scenarios whose outcome the key cannot see must refuse caching.
	s := base
	s.TraceLimit = 10
	if s.CacheKey() != "" {
		t.Error("traced scenario must be uncacheable")
	}
	s = base
	s.BGP.PolicyFor = func(topology.Node) routing.Policy { return routing.ShortestPath{} }
	if s.CacheKey() != "" {
		t.Error("PolicyFor scenario must be uncacheable")
	}
	s = base
	s.BGP.Export = bgp.GaoRexfordExport{}
	if s.CacheKey() != "" {
		t.Error("unfingerprinted export policy must be uncacheable")
	}
}
