// Package analyze is the repo's correctness-tooling layer: a determinism
// lint suite and a static boundness auditor.
//
// Part A (this file, the lint_*.go files, facts.go, unitchecker.go,
// load.go) is a small go/analysis-style framework built on the standard
// library alone — the build environment has no golang.org/x/tools, so the
// Analyzer/Pass shapes, the `go vet -vettool` separate-compilation
// protocol, and the cross-package facts channel (gob-encoded .vetx files
// flowing along import edges; see facts.go) are reimplemented here on
// go/ast + go/types + go/importer. The six analyzers mechanically guard
// the invariants the whole verification stack (replay, fuzzing, livelock
// certification) silently assumes:
//
//	wallclock   — no ambient time reads in deterministic packages
//	globalrand  — no global math/rand state, no constant seeds
//	maprange    — no map-order-dependent iteration on determinism-critical
//	              paths (hashing, serialization, coverage, state keys)
//	statekey    — AppendStateKey/AppendControlKey renderers stay pure and cheap,
//	              across package boundaries via purity facts
//	nextpkt     — NextPkt must not mutate state on paths returning ok=false
//	internlocal — intern.Local (single-goroutine by contract) must not
//	              escape to other goroutines
//
// Part B (audit.go) is the static protocol auditor: it exhaustively
// enumerates the joint control states (q_t, q_r) reachable by a registered
// protocol under bounded channel occupancy and certifies or refutes the
// protocol's declared boundness against the paper's Theorem 2.1 k_t·k_r
// bound and the Theorem 3.1/4.1 header-count preconditions.
package analyze

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one static analysis pass.
type Analyzer struct {
	// Name is the lint's identifier (used in -<name> flags, diagnostics and
	// //nfvet:allow directives).
	Name string
	// Doc is the one-paragraph description shown by `nfvet help`.
	Doc string
	// Run reports diagnostics for one package via pass.Report.
	Run func(pass *Pass)
}

// Pass carries one package's parsed and type-checked form to an analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	// Facts is the cross-package channel (facts.go): nil when the driver
	// runs without facts, in which case analyzers degrade to their
	// package-local behavior.
	Facts *FactStore

	diagnostics []Diagnostic
	suppressed  []Diagnostic
	allow       allowIndex
}

// Diagnostic is one finding.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string

	// Allowed marks a finding suppressed by an //nfvet:allow directive;
	// AllowReason carries the directive's parenthesized justification.
	// Suppressed findings are excluded from exit-status decisions but
	// surfaced by `nfvet check -json` so CI can audit the proof obligations.
	Allowed     bool
	AllowReason string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s (%s)", d.Pos, d.Message, d.Analyzer)
}

// Report records a diagnostic. If the offending line (or the line above it)
// carries an //nfvet:allow directive naming this analyzer, the finding is
// recorded as suppressed instead.
func (p *Pass) Report(pos token.Pos, format string, args ...any) {
	position := p.Fset.Position(pos)
	d := Diagnostic{
		Pos:      position,
		Analyzer: p.Analyzer.Name,
		Message:  fmt.Sprintf(format, args...),
	}
	if reason, ok := p.allow.allowed(p.Analyzer.Name, position); ok {
		d.Allowed, d.AllowReason = true, reason
		p.suppressed = append(p.suppressed, d)
		return
	}
	p.diagnostics = append(p.diagnostics, d)
}

// allowIndex records, per file and line, the analyzers suppressed by
// //nfvet:allow directives. A directive suppresses findings on its own line
// and on the line directly below it (comment-above style):
//
//	m := cloneMap(src) //nfvet:allow maprange (order-insensitive copy)
//
//	//nfvet:allow maprange (keys are sorted before use)
//	for k := range src {
type allowIndex map[string]map[int][]allowEntry

// allowEntry is one parsed directive: the analyzer it suppresses and the
// parenthesized reason text, e.g. "order-insensitive copy".
type allowEntry struct {
	name   string
	reason string
}

const allowPrefix = "//nfvet:allow "

func buildAllowIndex(fset *token.FileSet, files []*ast.File) allowIndex {
	idx := make(allowIndex)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, allowPrefix)
				if !ok {
					continue
				}
				name, rest, _ := strings.Cut(strings.TrimSpace(rest), " ")
				if name == "" {
					continue
				}
				reason := strings.TrimSpace(rest)
				reason = strings.TrimSuffix(strings.TrimPrefix(reason, "("), ")")
				pos := fset.Position(c.Slash)
				byLine := idx[pos.Filename]
				if byLine == nil {
					byLine = make(map[int][]allowEntry)
					idx[pos.Filename] = byLine
				}
				byLine[pos.Line] = append(byLine[pos.Line], allowEntry{name: name, reason: reason})
			}
		}
	}
	return idx
}

func (a allowIndex) allowed(analyzer string, pos token.Position) (string, bool) {
	byLine := a[pos.Filename]
	if byLine == nil {
		return "", false
	}
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, e := range byLine[line] {
			if e.name == analyzer {
				return e.reason, true
			}
		}
	}
	return "", false
}

// Analyzers returns the full lint suite in registration order: the four
// determinism lints plus the two concurrency-hazard lints.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		WallclockAnalyzer(),
		GlobalRandAnalyzer(),
		MapRangeAnalyzer(),
		StateKeyAnalyzer(),
		NextPktAnalyzer(),
		InternLocalAnalyzer(),
	}
}

// UnitResult is one unit's analysis outcome: the active findings and the
// findings suppressed by //nfvet:allow directives, both sorted by position.
type UnitResult struct {
	Diags      []Diagnostic
	Suppressed []Diagnostic
}

// RunUnit executes the given analyzers over one type-checked package. facts
// may be nil (facts-free mode); with a non-nil store, fact-aware analyzers
// read dependency facts from it and record the unit's exported facts into it.
func RunUnit(analyzers []*Analyzer, fset *token.FileSet, files []*ast.File, pkg *types.Package, info *types.Info, facts *FactStore) UnitResult {
	allow := buildAllowIndex(fset, files)
	var res UnitResult
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer: a,
			Fset:     fset,
			Files:    files,
			Pkg:      pkg,
			Info:     info,
			Facts:    facts,
			allow:    allow,
		}
		a.Run(pass)
		res.Diags = append(res.Diags, pass.diagnostics...)
		res.Suppressed = append(res.Suppressed, pass.suppressed...)
	}
	sortDiags(res.Diags)
	sortDiags(res.Suppressed)
	return res
}

func sortDiags(out []Diagnostic) {
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// deterministicPackages is the set of packages whose execution must be
// bit-deterministic: replay re-drives recorded logs through them, the
// fuzzer's coverage signal hashes their state keys, and certificates are
// byte-compared across runs. The paths are import-path suffixes under the
// module root.
var deterministicPackages = []string{
	"internal/adversary",
	"internal/channel",
	"internal/core",
	"internal/fuzz",
	"internal/replay",
	"internal/sim",
	"internal/trace",
	"internal/verify",
}

// mapOrderCriticalPackages extends the deterministic set with the
// substrate packages whose iteration order feeds state keys and channel
// keys directly — including the transport endpoints, whose mod-S
// ControlKey quotients the static auditor and the prover hash.
var mapOrderCriticalPackages = append([]string{
	"internal/mset",
	"internal/protocol",
	"internal/transport",
}, deterministicPackages...)

// inPackageSet reports whether the package path is (a suffix match of) one
// of the listed packages. Test binaries compile the package under test with
// an ID like "repro/internal/sim [repro/internal/sim.test]"; the bracketed
// form still has the plain import path, so suffix matching covers it.
func inPackageSet(pkgPath string, set []string) bool {
	for _, s := range set {
		if pkgPath == s || strings.HasSuffix(pkgPath, "/"+s) {
			return true
		}
	}
	return false
}

// isTestFile reports whether the file's name ends in _test.go.
func isTestFile(fset *token.FileSet, f *ast.File) bool {
	return strings.HasSuffix(fset.Position(f.Pos()).Filename, "_test.go")
}

// importedPkgName resolves an identifier to the package it names, if it is
// a package qualifier (e.g. the `rand` in rand.Intn).
func importedPkgName(info *types.Info, id *ast.Ident) (*types.PkgName, bool) {
	obj, ok := info.Uses[id]
	if !ok {
		return nil, false
	}
	pn, ok := obj.(*types.PkgName)
	return pn, ok
}

// pkgFuncCall matches a call of the form pkg.Fn(...) where pkg resolves to
// the package with the given import path, returning the function name.
func pkgFuncCall(info *types.Info, call *ast.CallExpr, pkgPath string) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return "", false
	}
	pn, ok := importedPkgName(info, id)
	if !ok || pn.Imported().Path() != pkgPath {
		return "", false
	}
	return sel.Sel.Name, true
}

// isMapType reports whether the expression's type is (an alias of) a map.
func isMapType(info *types.Info, expr ast.Expr) bool {
	tv, ok := info.Types[expr]
	if !ok || tv.Type == nil {
		return false
	}
	_, isMap := tv.Type.Underlying().(*types.Map)
	return isMap
}
