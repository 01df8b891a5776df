package analyze

import (
	"go/ast"
	"go/types"
)

// fmtFormatting lists the reflection-driven fmt entry points. The key
// renderers sit on the hot path of the adversary search, the prover and the
// fuzzer's coverage signal (two renders per simulator operation); PR 2
// measured ~1.3x fuzz throughput from replacing Sprintf with direct byte
// appends (keyBuf), and this lint keeps that win from regressing.
var fmtFormatting = map[string]bool{
	"Sprintf": true, "Sprint": true, "Sprintln": true,
	"Fprintf": true, "Fprint": true, "Fprintln": true,
	"Printf": true, "Print": true, "Println": true,
	"Errorf": true, "Appendf": true, "Append": true, "Appendln": true,
}

// stateKeyMethods are the canonical-encoding methods the lint guards: the
// renderers every hot loop calls.
var stateKeyMethods = map[string]bool{
	"AppendStateKey":   true,
	"AppendControlKey": true,
}

// StateKeyAnalyzer checks that AppendStateKey/AppendControlKey
// implementations are pure and cheap: no map iteration (order-dependent
// bytes), no randomness, no clock reads, and no fmt formatting (reflection
// on the hot path) — directly or through helpers. With the facts channel (facts.go) the
// transitive fixpoint is module-wide: every unit exports a purity fact for
// each of its exported functions, and calls into other packages are judged
// by the callee's fact, so an AppendStateKey → helper-package → fmt chain is
// caught across package boundaries. Without facts the fixpoint degrades to
// its original package-local scope.
func StateKeyAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "statekey",
		Doc: "AppendStateKey/AppendControlKey methods must be pure and allocation-lean: " +
			"no map iteration, no math/rand, no clock reads, and no fmt.Sprintf-style " +
			"formatting (use the keyBuf append helpers), including transitively " +
			"through helpers — cross-package when the facts channel is enabled",
		Run: runStateKey,
	}
}

// impurity describes why a function is unfit for a state-key path.
type impurity struct {
	reason string
	// callees are the package-local functions this function calls; used to
	// propagate impurity up to key renderers.
	callees []*types.Func
}

func runStateKey(pass *Pass) {
	// Pass 1: classify every function declaration in the package.
	funcs := make(map[*types.Func]*impurity)
	var decls []*ast.FuncDecl
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := pass.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			decls = append(decls, fd)
			funcs[obj] = classify(pass, fd)
		}
	}

	// Pass 2: propagate impurity through package-local calls to a fixpoint,
	// so an AppendStateKey that calls keyf (which calls fmt.Sprintf) is
	// flagged.
	// Cross-package impurity enters via classify (imported callees with an
	// impure fact) and propagates through the same fixpoint.
	impure := make(map[*types.Func]string)
	for obj, imp := range funcs {
		if imp.reason != "" {
			impure[obj] = imp.reason
		}
	}
	for changed := true; changed; {
		changed = false
		for obj, imp := range funcs {
			if _, done := impure[obj]; done {
				continue
			}
			for _, callee := range imp.callees {
				if why, bad := impure[callee]; bad {
					impure[obj] = "calls " + callee.Name() + ", which " + why
					changed = true
					break
				}
			}
		}
	}

	// Pass 3: report findings inside AppendStateKey/AppendControlKey bodies.
	for _, fd := range decls {
		if !stateKeyMethods[fd.Name.Name] || fd.Recv == nil {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				if isMapType(pass.Info, n.X) {
					pass.Report(n.Pos(), "%s ranges over a map: key bytes become order-dependent; keep a sorted slice instead", fd.Name.Name)
				}
			case *ast.CallExpr:
				if reason, bad := directBan(pass, n); bad {
					pass.Report(n.Pos(), "%s %s; state keys must be pure — use the keyBuf append helpers", fd.Name.Name, reason)
					return true
				}
				if callee := localCallee(pass, n); callee != nil {
					if why, bad := impure[callee]; bad {
						pass.Report(n.Pos(), "%s calls %s, which %s; state keys must be pure — use the keyBuf append helpers", fd.Name.Name, callee.Name(), why)
					}
				}
				if callee := importedCallee(pass, n); callee != nil {
					if fact, ok := pass.Facts.ImportedPurity(callee); ok && fact.Impure {
						pass.Report(n.Pos(), "%s calls %s.%s, which %s; state keys must be pure — use the keyBuf append helpers",
							fd.Name.Name, callee.Pkg().Name(), callee.Name(), fact.Reason)
					}
				}
			}
			return true
		})
	}

	// Pass 4: export a purity fact for every exported function, so
	// downstream units can judge calls into this package. Pure facts are
	// exported too — the channel's health is observable as non-empty vetx
	// payloads, and absence stays distinguishable from purity.
	if pass.Facts != nil {
		for obj := range funcs {
			if !exportableFunc(obj) {
				continue
			}
			why, bad := impure[obj]
			pass.Facts.ExportPurity(funcKey(obj), PurityFact{Impure: bad, Reason: why})
		}
	}
}

// classify inspects one function body for direct violations and collects
// its package-local callees. Calls into other packages are judged
// immediately against the facts channel: an imported callee with an impure
// fact is as direct a ban as a fmt.Sprintf call.
func classify(pass *Pass, fd *ast.FuncDecl) *impurity {
	imp := &impurity{}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if reason, bad := directBan(pass, call); bad && imp.reason == "" {
			imp.reason = reason
		}
		if callee := localCallee(pass, call); callee != nil {
			imp.callees = append(imp.callees, callee)
		}
		if callee := importedCallee(pass, call); callee != nil && imp.reason == "" {
			if fact, ok := pass.Facts.ImportedPurity(callee); ok && fact.Impure {
				imp.reason = "calls " + callee.Pkg().Name() + "." + callee.Name() + ", which " + fact.Reason
			}
		}
		return true
	})
	return imp
}

// directBan reports whether the call is a directly banned operation for
// state-key paths, with a human-readable reason.
func directBan(pass *Pass, call *ast.CallExpr) (string, bool) {
	if name, ok := pkgFuncCall(pass.Info, call, "fmt"); ok && fmtFormatting[name] {
		return "calls fmt." + name + " (reflection-driven formatting on the hot path)", true
	}
	if name, ok := pkgFuncCall(pass.Info, call, "math/rand"); ok {
		return "calls rand." + name + " (state keys must not consume randomness)", true
	}
	if name, ok := pkgFuncCall(pass.Info, call, "time"); ok {
		if _, banned := wallclockBanned[name]; banned {
			return "calls time." + name + " (state keys must not read the clock)", true
		}
	}
	return "", false
}

// localCallee resolves a call to a function or method declared in the
// package under analysis, if it is one.
func localCallee(pass *Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, ok := pass.Info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg() != pass.Pkg {
		return nil
	}
	return fn
}

// importedCallee resolves a call to a function or method declared in
// another package, if it is one. Interface-dispatched calls resolve to the
// interface's method object; those carry no facts and come back pure.
func importedCallee(pass *Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, ok := pass.Info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg() == pass.Pkg {
		return nil
	}
	return fn
}
