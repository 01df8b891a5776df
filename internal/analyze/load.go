package analyze

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
)

// This file is the standalone package loader behind `nfvet check` and the
// analyzer fixture tests. It shells out to `go list -export -deps -json`,
// which resolves packages and materializes their compiled export data from
// the build cache without network access, then type-checks source against
// that export data — the same separate-compilation shape `go vet` drives
// through the unitchecker protocol, minus cmd/go as the orchestrator.

// LoadedPackage is one parsed, type-checked package ready for analysis.
type LoadedPackage struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Pkg        *types.Package
	Info       *types.Info
}

// listedPackage is the subset of `go list -json` output the loader reads.
type listedPackage struct {
	Dir        string
	ImportPath string
	Standard   bool
	Export     string
	DepOnly    bool
	GoFiles    []string
	CgoFiles   []string
}

// goList resolves the patterns (relative to dir) together with their full
// dependency closure, compiling export data as needed.
func goList(dir string, patterns ...string) ([]*listedPackage, error) {
	args := append([]string{"list", "-export", "-deps", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stdout, stderr bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("go list %v: %v\n%s", patterns, err, stderr.Bytes())
	}
	var pkgs []*listedPackage
	dec := json.NewDecoder(&stdout)
	for {
		p := new(listedPackage)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("go list %v: decoding output: %v", patterns, err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// exportMap resolves the patterns and returns import path → export data
// file for every package in their dependency closure.
func exportMap(dir string, patterns ...string) (map[string]string, error) {
	pkgs, err := goList(dir, patterns...)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string, len(pkgs))
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	return exports, nil
}

// LoadPackages parses and type-checks the packages matching the patterns
// (as resolved by the go tool from dir), returning them sorted by import
// path. Only non-test library sources are loaded; `go vet -vettool` remains
// the authority for test files.
func LoadPackages(dir string, patterns ...string) ([]*LoadedPackage, error) {
	pkgs, err := goList(dir, patterns...)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string, len(pkgs))
	var targets []*listedPackage
	for _, p := range pkgs {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if !p.DepOnly && !p.Standard && len(p.GoFiles) > 0 {
			targets = append(targets, p)
		}
	}
	sort.Slice(targets, func(i, j int) bool { return targets[i].ImportPath < targets[j].ImportPath })

	var out []*LoadedPackage
	for _, t := range targets {
		if len(t.CgoFiles) > 0 {
			return nil, fmt.Errorf("%s: cgo packages are not supported by the standalone loader", t.ImportPath)
		}
		fset := token.NewFileSet()
		var files []*ast.File
		for _, name := range t.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(t.Dir, name), nil, parser.ParseComments)
			if err != nil {
				return nil, err
			}
			files = append(files, f)
		}
		pkg, info, err := TypeCheck(fset, t.ImportPath, files, exports)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", t.ImportPath, err)
		}
		out = append(out, &LoadedPackage{
			ImportPath: t.ImportPath,
			Dir:        t.Dir,
			Fset:       fset,
			Files:      files,
			Pkg:        pkg,
			Info:       info,
		})
	}
	return out, nil
}

// TopoOrder returns the loaded packages in dependency order: every package
// appears after all of its imports that are themselves in the set. Imports
// outside the set (std, unloaded packages) are ignored — their facts simply
// aren't available, and analyzers degrade to package-local precision for
// calls into them. The order is deterministic: DFS from the import-path-
// sorted roots over the type-checker's source-ordered import lists.
func TopoOrder(pkgs []*LoadedPackage) []*LoadedPackage {
	byPath := make(map[string]*LoadedPackage, len(pkgs))
	for _, p := range pkgs {
		byPath[p.ImportPath] = p
	}
	visited := make(map[string]bool, len(pkgs))
	out := make([]*LoadedPackage, 0, len(pkgs))
	var visit func(p *LoadedPackage)
	visit = func(p *LoadedPackage) {
		if visited[p.ImportPath] {
			return
		}
		visited[p.ImportPath] = true
		for _, imp := range p.Pkg.Imports() {
			if q := byPath[imp.Path()]; q != nil {
				visit(q)
			}
		}
		out = append(out, p)
	}
	for _, p := range pkgs {
		visit(p)
	}
	return out
}

// AnalyzeModule is the in-process counterpart of the go vet facts protocol:
// it runs the analyzers over the loaded packages in dependency order,
// accumulating each package's exported facts in memory so downstream
// packages see upstream purity verdicts. With withFacts false every package
// is analyzed fact-free (the pre-facts behavior), which is the contrast the
// facts fixtures assert on.
func AnalyzeModule(analyzers []*Analyzer, pkgs []*LoadedPackage, withFacts bool) UnitResult {
	sets := make(map[string]*FactSet)
	var res UnitResult
	for _, p := range TopoOrder(pkgs) {
		var store *FactStore
		if withFacts {
			store = NewFactStoreFrom(sets)
		}
		r := RunUnit(analyzers, p.Fset, p.Files, p.Pkg, p.Info, store)
		if withFacts {
			sets[p.ImportPath] = store.Exported()
		}
		res.Diags = append(res.Diags, r.Diags...)
		res.Suppressed = append(res.Suppressed, r.Suppressed...)
	}
	sortDiags(res.Diags)
	sortDiags(res.Suppressed)
	return res
}

// TypeCheck type-checks already-parsed files under the given import path,
// resolving imports through the export-data map.
func TypeCheck(fset *token.FileSet, importPath string, files []*ast.File, exports map[string]string) (*types.Package, *types.Info, error) {
	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	}
	conf := types.Config{
		Importer: importer.ForCompiler(fset, "gc", lookup),
		Sizes:    types.SizesFor("gc", build.Default.GOARCH),
	}
	info := NewInfo()
	pkg, err := conf.Check(importPath, fset, files, info)
	if err != nil {
		return nil, nil, err
	}
	return pkg, info, nil
}

// NewInfo allocates the types.Info maps the analyzers consult.
func NewInfo() *types.Info {
	return &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
}
