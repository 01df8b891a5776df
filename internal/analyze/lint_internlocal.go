package analyze

import (
	"go/ast"
	"go/types"
	"strings"
)

// InternLocalAnalyzer flags intern.Local values that escape the goroutine
// that made them. intern.Local is deliberately unsynchronized (no RWMutex on
// its map): the single-goroutine explorer and auditor intern through it, and
// the contract is that a Local never becomes visible to a second goroutine.
// This analyzer enforces that contract structurally: a goroutine launch
// whose closure captures (or whose arguments carry) a Local, a channel send
// of a Local-carrying value, or a package-level variable of a Local-carrying
// type is each a sharing point and gets flagged — give each goroutine its
// own Local instead.
func InternLocalAnalyzer() *Analyzer {
	return &Analyzer{
		Name: "internlocal",
		Doc: "intern.Local is unsynchronized and must stay goroutine-local: " +
			"flags goroutine closures capturing a Local carrier, go-statement " +
			"arguments carrying one, channel sends of one, and package-level " +
			"Local-carrying variables — give each goroutine its own Local",
		Run: runInternLocal,
	}
}

// internPkgPath matches the interner package by import-path suffix, so the
// analyzer works on the module ("repro/internal/intern") and on fixtures that
// re-root it.
const internPkgSuffix = "internal/intern"

// internNamed reports whether t is the named type with the given name from
// the interner package.
func internNamed(t types.Type, name string) bool {
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj.Name() != name || obj.Pkg() == nil {
		return false
	}
	p := obj.Pkg().Path()
	return p == internPkgSuffix || strings.HasSuffix(p, "/"+internPkgSuffix)
}

// carriesLocal reports whether a value of type t gives its holder a path to
// an intern.Local: the Local itself, a pointer to one, or a struct, slice,
// array, map or channel containing one (transitively).
func carriesLocal(t types.Type, seen map[types.Type]bool) bool {
	if t == nil || seen[t] {
		return false
	}
	seen[t] = true
	if internNamed(t, "Local") {
		return true
	}
	switch u := t.Underlying().(type) {
	case *types.Pointer:
		return carriesLocal(u.Elem(), seen)
	case *types.Slice:
		return carriesLocal(u.Elem(), seen)
	case *types.Array:
		return carriesLocal(u.Elem(), seen)
	case *types.Chan:
		return carriesLocal(u.Elem(), seen)
	case *types.Map:
		return carriesLocal(u.Key(), seen) || carriesLocal(u.Elem(), seen)
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if carriesLocal(u.Field(i).Type(), seen) {
				return true
			}
		}
	}
	return false
}

func exprCarriesLocal(pass *Pass, e ast.Expr) bool {
	tv, ok := pass.Info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	return carriesLocal(tv.Type, make(map[types.Type]bool))
}

func runInternLocal(pass *Pass) {
	for _, f := range pass.Files {
		// Package-level Local carriers are shareable by construction.
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					obj, ok := pass.Info.Defs[name].(*types.Var)
					if !ok || name.Name == "_" {
						continue
					}
					if carriesLocal(obj.Type(), make(map[types.Type]bool)) {
						pass.Report(name.Pos(), "package-level variable %s carries intern.Local, which is unsynchronized; any second goroutine touching it races — give each goroutine its own Local", name.Name)
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				checkGoStmt(pass, n)
			case *ast.SendStmt:
				if exprCarriesLocal(pass, n.Value) {
					pass.Report(n.Pos(), "channel send publishes a value carrying intern.Local to another goroutine; Local is unsynchronized — give each goroutine its own Local, or send the resolved strings")
				}
			}
			return true
		})
	}
}

func checkGoStmt(pass *Pass, g *ast.GoStmt) {
	call := g.Call
	if lit, ok := ast.Unparen(call.Fun).(*ast.FuncLit); ok {
		reportLocalCaptures(pass, lit)
	} else if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		// go t.run() hands the receiver to the new goroutine.
		if exprCarriesLocal(pass, sel.X) {
			pass.Report(g.Pos(), "goroutine method call on %s, which carries intern.Local; Local is unsynchronized — give each goroutine its own Local", types.ExprString(sel.X))
		}
	}
	for _, arg := range call.Args {
		if exprCarriesLocal(pass, arg) {
			pass.Report(arg.Pos(), "goroutine argument %s carries intern.Local; Local is unsynchronized — give each goroutine its own Local", types.ExprString(arg))
		}
	}
}

// reportLocalCaptures flags free variables of the goroutine closure whose
// types carry an intern.Local.
func reportLocalCaptures(pass *Pass, lit *ast.FuncLit) {
	reported := make(map[types.Object]bool)
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj, ok := pass.Info.Uses[id].(*types.Var)
		if !ok || obj.IsField() || reported[obj] {
			return true
		}
		// Captured = declared outside the literal.
		if obj.Pos() >= lit.Pos() && obj.Pos() <= lit.End() {
			return true
		}
		// Package-level carriers are reported at their declaration.
		if obj.Parent() != nil && obj.Pkg() != nil && obj.Parent() == obj.Pkg().Scope() {
			return true
		}
		if carriesLocal(obj.Type(), make(map[types.Type]bool)) {
			reported[obj] = true
			pass.Report(id.Pos(), "goroutine closure captures %s, which carries intern.Local; Local is unsynchronized — give each goroutine its own Local", id.Name)
		}
		return true
	})
}
