package analyze

import (
	"go/types"
	"os"
	"path/filepath"
	"slices"
	"strings"
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

// TestModuleLintClean runs all six analyzers over the whole
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
		for _, d := range RunUnit(Analyzers(), p.Fset, p.Files, p.Pkg, p.Info, nil).Diags {
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

// exportKey names an exported object across packages: each package is
// type-checked against its imports' export data, so the same declaration is
// a different types.Object in every package that sees it.
func exportKey(obj types.Object) string {
	key := obj.Pkg().Path() + "." + obj.Name()
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			t := recv.Type()
			if p, ok := t.(*types.Pointer); ok {
				t = p.Elem()
			}
			if n, ok := t.(*types.Named); ok {
				key = obj.Pkg().Path() + "." + n.Obj().Name() + "." + obj.Name()
			}
		}
	}
	return key
}

// keptExports are the internal exports without a non-test caller in this
// module that stay exported, each for the reason given.
var keptExports = map[string]string{
	"repro/internal/core.SplitSeed":            "nfperf, a module of its own, calls it",
	"repro/internal/fuzz.Mutate":               "nfperf, a module of its own, calls it",
	"repro/internal/fuzz.Crossover":            "nfperf, a module of its own, calls it",
	"repro/internal/fuzz.Trim":                 "nfperf, a module of its own, calls it",
	"repro/internal/trace.ReadManifestFile":    "nfperf, a module of its own, calls it",
	"repro/internal/trace.ShardStore.Dir":      "nfperf, a module of its own, calls it",
	"repro/internal/netlink.Server.RunSession": "nfperf, a module of its own, calls it",
	"repro/internal/intern.Local.Intern":       "the internlocal analyzer fixture type-checks against it (and Len, skipped as sort.Interface's)",
	"repro/internal/simdiff.CompareExec":       "the differential harness; its test is its caller",
	"repro/internal/ioa.Counters.InTransit":    "sp − rp of Definition 2, public through the facade's Counters",
}

// TestExportsHaveCallers requires every exported package-level name and
// method under repro/internal to be used by some non-test file of the
// module, so an export kept alive only by its tests shows up here. Methods
// named like a method of an interface in any package the module reaches
// through imports are skipped (they may be called only through that
// interface: String, MarshalText, the protocol endpoints, net.PacketConn),
// as is Error.
func TestExportsHaveCallers(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module; skipped in -short")
	}
	pkgs, err := LoadPackages(moduleRoot(t), "./...")
	if err != nil {
		t.Fatal(err)
	}
	used := make(map[string]bool)
	ifaceMethods := map[string]bool{"Error": true}
	seen := make(map[*types.Package]bool)
	var reach func(p *types.Package)
	reach = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		scope := p.Scope()
		for _, name := range scope.Names() {
			if it, ok := scope.Lookup(name).Type().Underlying().(*types.Interface); ok {
				for i := 0; i < it.NumMethods(); i++ {
					ifaceMethods[it.Method(i).Name()] = true
				}
			}
		}
		for _, imp := range p.Imports() {
			reach(imp)
		}
	}
	for _, p := range pkgs {
		reach(p.Pkg)
		for _, obj := range p.Info.Uses {
			if obj.Pkg() != nil && obj.Exported() {
				used[exportKey(obj)] = true
			}
		}
	}
	var exports []string
	for _, p := range pkgs {
		if !strings.HasPrefix(p.ImportPath, "repro/internal/") {
			continue
		}
		scope := p.Pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() {
				exports = append(exports, exportKey(obj))
			}
			tn, ok := obj.(*types.TypeName)
			if !ok {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok {
				for i := 0; i < named.NumMethods(); i++ {
					if m := named.Method(i); m.Exported() && !ifaceMethods[m.Name()] {
						exports = append(exports, exportKey(m))
					}
				}
			}
		}
	}
	for _, k := range exports {
		if !used[k] && keptExports[k] == "" {
			t.Errorf("%s is exported, but no non-test file of the module uses it", k)
		}
	}
	for k := range keptExports {
		if used[k] || !slices.Contains(exports, k) {
			t.Errorf("keptExports lists %s, which is used or gone", k)
		}
	}
}
