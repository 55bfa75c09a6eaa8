package analysis

import "testing"

// TestNoConcurrencyScopeCoversKernel pins the single-threaded-kernel
// contract: the DES kernel packages must stay inside the noconcurrency
// scope, and internal/sweep — the deliberate concurrency boundary — must
// stay outside it. Removing a kernel package from the scope would let
// goroutines creep into the event loop unnoticed.
func TestNoConcurrencyScopeCoversKernel(t *testing.T) {
	noconc := NoConcurrencyAnalyzer()
	for _, p := range []string{
		"internal/des", "internal/bgp", "internal/netsim", "internal/routing",
		"internal/faultplan", "internal/invariant", "internal/transport",
	} {
		if !noconc.Match(p) {
			t.Errorf("noconcurrency no longer covers %s; the kernel must stay single-threaded", p)
		}
	}
	if noconc.Match("internal/sweep") {
		t.Error("noconcurrency covers internal/sweep; the harness scope must stay exempt (it is the concurrency boundary)")
	}
}

// TestHarnessScopeDeterminismAnalyzers asserts the harness packages —
// internal/sweep (the trial executor), internal/serve (the bgpd
// service core), internal/durable (the crash-safety layer), and
// internal/dist (the distributed sweep coordinator/worker layer) — are
// held to the rest of the determinism contract: no wall clock, no
// global rand, no map-order dependence, no exact float comparison. For
// internal/serve the norealtime pin is what forces the daemon's clock
// through the injected serve.Config.Now hook; for internal/durable it
// keeps FaultFS schedules and WAL recovery replayable; for
// internal/dist it forces lease deadlines through dist.Config.Now and
// worker backoff through WorkerConfig.Sleep, keeping reassignment and
// hedging decisions replayable.
func TestHarnessScopeDeterminismAnalyzers(t *testing.T) {
	for _, pkg := range []string{"internal/sweep", "internal/serve", "internal/durable", "internal/dist"} {
		for _, a := range []*Analyzer{
			NoRealTimeAnalyzer(), MapRangeAnalyzer(), FloatEqAnalyzer(),
		} {
			if !a.Match(pkg) {
				t.Errorf("%s does not cover %s", a.Name, pkg)
			}
		}
		if a := NoGlobalRandAnalyzer(); a.Match != nil && !a.Match(pkg) {
			t.Errorf("%s does not cover %s", a.Name, pkg)
		}
		if NoConcurrencyAnalyzer().Match(pkg) {
			t.Errorf("noconcurrency covers %s; the harness scope must stay exempt (it is the concurrency boundary)", pkg)
		}
	}
}

// TestStaticScopeDeterminismAnalyzers pins internal/safety inside the
// determinism contract. Safety verdicts are cached by content address
// and replayed across seed sweeps; a wall-clock read, map-order
// iteration, float equality, or global-rand call there would make the
// cached witness depend on the run that produced it.
func TestStaticScopeDeterminismAnalyzers(t *testing.T) {
	for _, a := range []*Analyzer{
		NoRealTimeAnalyzer(), MapRangeAnalyzer(), FloatEqAnalyzer(), NakedPanicAnalyzer(),
	} {
		if !a.Match("internal/safety") {
			t.Errorf("%s does not cover internal/safety", a.Name)
		}
	}
	if a := NoGlobalRandAnalyzer(); a.Match != nil && !a.Match("internal/safety") {
		t.Errorf("%s does not cover internal/safety", a.Name)
	}
	// The static analyzer never enters the DES event loop, so it is not
	// part of the single-threaded-kernel scope.
	if NoConcurrencyAnalyzer().Match("internal/safety") {
		t.Error("noconcurrency covers internal/safety; only kernel packages belong there")
	}
}

// TestTransportScopeDeterminismAnalyzers pins internal/transport inside
// the full determinism contract: its impairment draws run at Send time
// inside the kernel event loop, so it is a kernel package (goroutine-free,
// virtual-clock-only, named RNG streams, no map-order dependence).
func TestTransportScopeDeterminismAnalyzers(t *testing.T) {
	for _, a := range []*Analyzer{
		NoRealTimeAnalyzer(), MapRangeAnalyzer(),
		NakedPanicAnalyzer(), NoConcurrencyAnalyzer(),
	} {
		if !a.Match("internal/transport") {
			t.Errorf("%s does not cover internal/transport", a.Name)
		}
	}
	if a := NoGlobalRandAnalyzer(); a.Match != nil && !a.Match("internal/transport") {
		t.Errorf("%s does not cover internal/transport", a.Name)
	}
}

// TestRoutingScopeDeterminismAnalyzers pins internal/routing inside the
// kernel's contract. Route selection runs on every update; while the RIB
// was a map outside every scope, a policy that tied two candidates chose
// between them by map iteration order and maprange never saw it.
func TestRoutingScopeDeterminismAnalyzers(t *testing.T) {
	for _, a := range []*Analyzer{
		NoRealTimeAnalyzer(), MapRangeAnalyzer(),
		NakedPanicAnalyzer(), NoConcurrencyAnalyzer(),
	} {
		if !a.Match("internal/routing") {
			t.Errorf("%s does not cover internal/routing", a.Name)
		}
	}
}

// TestStreamsOnlyScope pins where noglobalrand refuses rand.New and
// rand.NewSource outright: the simulation packages, so that an eagerly
// seeded source cannot come back next to a speaker, but not internal/des
// (it builds the streams), nor the packages that seed one generator per
// graph or per fault schedule from an explicit seed.
func TestStreamsOnlyScope(t *testing.T) {
	for _, p := range []string{
		"internal/bgp", "internal/netsim", "internal/routing", "internal/dataplane",
		"internal/experiment", "internal/faultplan", "internal/invariant", "internal/transport",
	} {
		if !streamsOnly(p) {
			t.Errorf("%s may build its own rand.New; streams must come from des.RNG there", p)
		}
	}
	for _, p := range []string{"internal/des", "internal/topology", "internal/durable", "internal/figures", "cmd/bgpsim", ""} {
		if streamsOnly(p) {
			t.Errorf("the streams-only rule covers %s", p)
		}
	}
}
