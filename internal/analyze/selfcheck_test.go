package analyze

import (
	"os"
	"path/filepath"
	"testing"
)

// moduleRoot walks up from the working directory to the directory containing
// go.mod. The analyze tests run from internal/analyze, two levels down.
func moduleRoot(t testing.TB) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod found above working directory")
		}
		dir = parent
	}
}

// TestModuleLintClean runs all seven analyzers over the whole
// module and requires zero findings. This is the self-application of the lint
// suite: the codebase must satisfy its own determinism discipline. If this
// test fails, either fix the finding or — for a provably order-insensitive
// site — suppress it with a `//nfvet:allow <analyzer> (reason)` directive.
func TestModuleLintClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module; skipped in -short")
	}
	pkgs, err := LoadPackages(moduleRoot(t), "./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("LoadPackages returned no packages")
	}
	for _, p := range pkgs {
		for _, d := range RunAnalyzers(Analyzers(), p.Fset, p.Files, p.Pkg, p.Info) {
			t.Errorf("lint finding: %s", d)
		}
	}
}

// BenchmarkModuleLint times the work of `nfvet check ./...` over the
// module's own source: load and type-check every package, then run the
// whole analyzer suite in dependency order with the facts channel on.
// ns/op is one whole-module pass.
func BenchmarkModuleLint(b *testing.B) {
	root := moduleRoot(b)
	var pkgs []*LoadedPackage
	for i := 0; i < b.N; i++ {
		var err error
		if pkgs, err = LoadPackages(root, "./..."); err != nil {
			b.Fatal(err)
		}
		if res := AnalyzeModule(Analyzers(), pkgs, true); len(res.Diags) > 0 {
			b.Fatalf("lint finding: %s", res.Diags[0])
		}
	}
	b.ReportMetric(float64(len(pkgs)*b.N)/b.Elapsed().Seconds(), "packages/sec")
}
