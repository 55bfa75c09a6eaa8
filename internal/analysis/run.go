package analysis

import "strings"

// Simulation-package scopes of the determinism contract, as
// module-relative paths. See the "Determinism contract" section of
// README.md for the rationale behind each set.
var (
	// simPackages run under the DES virtual clock and define the
	// reproducible event schedule. internal/routing is route selection,
	// on the path of every update: a map-order dependence there picks a
	// different best route from one run to the next.
	simPackages = []string{
		"internal/des", "internal/bgp", "internal/netsim", "internal/routing",
		"internal/dataplane", "internal/experiment", "internal/faultplan",
		"internal/invariant", "internal/transport",
	}
	// kernelPackages must stay single-threaded: events execute one at a
	// time in strict (time, insertion-order) order. internal/invariant
	// runs inside the kernel event loop (exec hooks, taps, observers) and
	// is held to the same bar.
	kernelPackages = []string{
		"internal/des", "internal/bgp", "internal/netsim", "internal/routing",
		"internal/dataplane", "internal/faultplan", "internal/invariant",
		"internal/transport",
	}
	// figurePackages compute the published numbers; exact float
	// comparison there silently changes figures across platforms.
	figurePackages = []string{
		"internal/metrics", "internal/figures", "internal/loopanalysis",
		"internal/report", "internal/core",
	}
	// harnessPackages orchestrate whole trials around the kernel — the
	// repository's concurrency boundary. They must stay deterministic
	// (no wall clock, no global rand, no map-order dependence, no float
	// equality) but are the one simulation-adjacent scope allowed to use
	// goroutines: each trial below them is still a single-threaded DES
	// run, and the executor merges results by trial index.
	// internal/serve (the bgpd service core) is held to the same bar:
	// the daemon schedules and caches around the simulator, so wall
	// clocks must arrive via the injected serve.Config.Now hook only.
	// internal/durable (the crash-safety layer: WAL, atomic writes,
	// fault injection) sits underneath both — a wall-clock read or
	// map-order dependence there would make fault schedules and WAL
	// recovery nondeterministic, which is exactly what FaultFS exists
	// to rule out.
	// internal/dist (the distributed sweep coordinator/worker layer)
	// joins for the same reason as serve: lease deadlines and worker
	// backoff must take time only from the injected dist.Config.Now and
	// WorkerConfig.Sleep hooks, and lease IDs are sequential, never
	// random — otherwise reassignment and hedging would be unreplayable.
	harnessPackages = []string{"internal/dist", "internal/durable", "internal/serve", "internal/sweep"}
	// staticPackages analyse scenario configs without running the kernel;
	// their verdicts are cached content-addressed, so they are held to the
	// same determinism bar as the simulation itself (a map-order-dependent
	// wheel search would cache different witnesses across runs).
	staticPackages = []string{"internal/safety"}
)

// union concatenates package scopes for analyzers that span several.
func union(sets ...[]string) []string {
	var out []string
	for _, s := range sets {
		out = append(out, s...)
	}
	return out
}

func inPackages(paths ...string) func(relPath string) bool {
	return func(relPath string) bool {
		for _, p := range paths {
			if relPath == p || strings.HasPrefix(relPath, p+"/") {
				return true
			}
		}
		return false
	}
}

// DefaultAnalyzers returns the full detlint suite in stable order.
func DefaultAnalyzers() []*Analyzer {
	return []*Analyzer{
		NoRealTimeAnalyzer(),
		NoGlobalRandAnalyzer(),
		MapRangeAnalyzer(),
		NoConcurrencyAnalyzer(),
		FloatEqAnalyzer(),
		NakedPanicAnalyzer(),
	}
}

// Run loads every package matched by patterns below dir's module root
// and runs the analyzers over them, returning the surviving diagnostics
// sorted by position. Directive suppression and directive validation are
// applied across the whole run.
func Run(dir string, patterns []string, analyzers []*Analyzer, includeTests bool) ([]Diagnostic, error) {
	loader, err := NewLoader(dir, includeTests)
	if err != nil {
		return nil, err
	}
	rels, err := loader.Expand(patterns)
	if err != nil {
		return nil, err
	}
	known := map[string]bool{}
	for _, a := range analyzers {
		known[a.Name] = true
	}
	var diags []Diagnostic
	byFile := map[string]map[int][]directive{}
	for _, rel := range rels {
		pkg, err := loader.Load(rel)
		if err != nil {
			return nil, err
		}
		for i, f := range pkg.Files {
			byFile[pkg.Filenames[i]] = collectDirectives(pkg.Fset, f, known, &diags)
		}
		for _, a := range analyzers {
			if a.Match != nil && !a.Match(rel) {
				continue
			}
			if err := runAnalyzer(a, pkg, &diags); err != nil {
				return nil, err
			}
		}
	}
	diags = applyDirectives(diags, byFile)
	sortDiagnostics(diags)
	return diags, nil
}
