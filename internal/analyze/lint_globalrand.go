package analyze

import (
	"go/ast"
)

// globalRandFuncs are the math/rand package-level functions backed by the
// shared global source. Calling them makes the draw order a cross-package,
// cross-goroutine global — the opposite of the per-stream seeding contract
// (seed.Split) the replay and fuzz subsystems are built on.
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Read": true, "Seed": true,
}

// GlobalRandAnalyzer forbids the global math/rand source and constant
// seeds anywhere in the module's non-test code. All randomness must be an
// explicit *rand.Rand whose seed is derived from a configured root seed via
// seed.Split, so that every stream is pinned and replayable.
func GlobalRandAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "globalrand",
		Doc: "forbid top-level math/rand functions (the process-global source) and " +
			"constant-seeded rand.NewSource; all randomness must flow from an " +
			"explicit *rand.Rand seeded via seed.Split(root, stream)",
		Run: runGlobalRand,
	}
}

func runGlobalRand(pass *Pass) {
	for _, f := range pass.Files {
		if isTestFile(pass.Fset, f) {
			// Tests legitimately pin literal seeds to make cases reproducible.
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			name, ok := pkgFuncCall(pass.Info, call, "math/rand")
			if !ok {
				return true
			}
			switch {
			case globalRandFuncs[name]:
				pass.Report(call.Pos(), "rand.%s uses the process-global source; draw from a *rand.Rand seeded via seed.Split", name)
			case name == "NewSource" && len(call.Args) == 1 && isConstExpr(pass, call.Args[0]):
				pass.Report(call.Pos(), "rand.NewSource with a constant seed; derive the seed from the configured root via seed.Split")
			}
			return true
		})
	}
}

// isConstExpr reports whether the expression is a compile-time constant
// (literal or named constant) — a hard-coded seed rather than a value that
// flowed from configuration.
func isConstExpr(pass *Pass, expr ast.Expr) bool {
	tv, ok := pass.Info.Types[expr]
	return ok && tv.Value != nil
}
