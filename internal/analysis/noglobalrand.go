package analysis

import "go/ast"

// globalRandNames are the package-level draw functions of math/rand and
// math/rand/v2. They share one global generator whose sequence depends
// on every other caller in the process, so a draw from them is
// irreproducible by construction. Constructors (New, NewSource, NewZipf,
// NewPCG, NewChaCha8) remain legal when explicitly seeded.
var globalRandNames = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Seed": true, "Read": true,
	// math/rand/v2 spellings.
	"N": true, "IntN": true, "Int32": true, "Int32N": true,
	"Int64N": true, "Uint": true, "UintN": true, "Uint32N": true,
	"Uint64N": true,
}

const randPkg, randV2Pkg = "math/rand", "math/rand/v2"

// streamsOnly reports whether a package must take its generators from
// des.RNG and may not build one: every simulation package but internal/des
// itself. A rand.NewSource there seeds a 607-word register before its
// first draw — per speaker, that was half of an Internet(1000) trial — and
// its draws are outside the named-stream contract.
func streamsOnly(relPath string) bool {
	return inPackages(simPackages...)(relPath) && !inPackages("internal/des")(relPath)
}

// NoGlobalRandAnalyzer forbids the shared global math/rand generator and
// wall-clock seeding everywhere in the repo: all randomness must flow
// from an explicit seed, normally a named stream from internal/des/rng.go.
// In the simulation packages (streamsOnly) "normally" is "always".
func NoGlobalRandAnalyzer() *Analyzer {
	a := &Analyzer{
		Name: "noglobalrand",
		Doc: "forbid top-level math/rand draws and wall-clock seeding; all\n" +
			"randomness must come from an explicit seed (internal/des/rng.go),\n" +
			"and in the simulation packages from a des.RNG stream, never rand.New",
		// No Match: the rule holds repo-wide, tools and figures included.
	}
	a.Run = func(pass *Pass) error {
		streams := streamsOnly(pass.RelPath)
		for _, file := range pass.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				if name := pkgSelector(pass.TypesInfo, n, randPkg, randV2Pkg); name != "" {
					if globalRandNames[name] {
						pass.Reportf(n.Pos(), "rand.%s draws from the process-global generator; use a seeded *rand.Rand from des.RNG", name)
						return false
					}
					if streams && (name == "New" || name == "NewSource") {
						pass.Reportf(n.Pos(), "rand.%s builds a generator next to the simulation; streams come from des.RNG", name)
						return false
					}
					if name == "NewSource" || name == "NewPCG" || name == "NewChaCha8" {
						if call, ok := parentCall(file, n.(ast.Expr)); ok && seededFromClock(pass, call) {
							pass.Reportf(call.Pos(), "rand.%s seeded from the wall clock; derive the seed from the scenario instead", name)
						}
						return false
					}
				}
				return true
			})
		}
		return nil
	}
	return a
}

// parentCall finds the CallExpr whose Fun is fun, so the seed arguments
// can be inspected.
func parentCall(file *ast.File, fun ast.Expr) (*ast.CallExpr, bool) {
	var found *ast.CallExpr
	ast.Inspect(file, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok && call.Fun == fun {
			found = call
			return false
		}
		return true
	})
	return found, found != nil
}

// seededFromClock reports whether any argument of the constructor call
// mentions the time package — e.g. rand.NewSource(time.Now().UnixNano()),
// the canonical way to make a simulation unrepeatable.
func seededFromClock(pass *Pass, call *ast.CallExpr) bool {
	for _, arg := range call.Args {
		clocked := false
		ast.Inspect(arg, func(n ast.Node) bool {
			if pkgSelector(pass.TypesInfo, n, "time") != "" {
				clocked = true
			}
			return !clocked
		})
		if clocked {
			return true
		}
	}
	return false
}
