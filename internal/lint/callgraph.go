package lint

import (
	"go/ast"
	"go/types"
	"path/filepath"
	"strconv"
	"strings"
)

// This file is the shared call-graph substrate under the interprocedural
// analyzers (hotalloc, loanescape, goroshutdown): stable function keys that
// match across the packages facts connect, an index from declared
// function objects to their syntax, static callee resolution, directive
// detection, and closure-capture tests. Only statically resolvable calls
// become edges — calls through func values, interface methods, and reflection
// are invisible, which is the documented blind spot of every analysis built
// here (DESIGN.md §10).

// funcKey returns the package-relative key identifying fn in exported facts:
// "Name" for package-level functions, "(T).Name" or "(*T).Name" for methods.
// The key is stable across compilations, so a fact written while analyzing
// the defining package matches the key computed from a call site in a
// dependent one.
func funcKey(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return fn.Name()
	}
	t := sig.Recv().Type()
	ptr := ""
	if p, isPtr := t.(*types.Pointer); isPtr {
		t = p.Elem()
		ptr = "*"
	}
	named, ok := t.(*types.Named)
	if !ok {
		// Interface receivers and other exotica; the analyzers treat these
		// as unresolvable before keying, so the fallback is cosmetic.
		return fn.Name()
	}
	return "(" + ptr + named.Obj().Name() + ")." + fn.Name()
}

// displayKey renders fn for a diagnostic: the funcKey qualified with the
// package name when fn lives outside pass's package.
func displayKey(pass *Pass, fn *types.Func) string {
	key := funcKey(fn)
	if fn.Pkg() != nil && fn.Pkg() != pass.Pkg {
		return fn.Pkg().Name() + "." + key
	}
	return key
}

// isAbstract reports whether fn is an interface method — a callee whose
// concrete body cannot be resolved statically.
func isAbstract(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	return types.IsInterface(sig.Recv().Type())
}

// declIndex maps every declared function and method of the package to its
// syntax, in a form the interprocedural analyzers can walk. Declarations
// without bodies (assembly stubs) are skipped.
func declIndex(pass *Pass) map[*types.Func]*ast.FuncDecl {
	idx := make(map[*types.Func]*ast.FuncDecl)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
				idx[fn] = fd
			}
		}
	}
	return idx
}

// declsInSourceOrder returns the keys of idx ordered by source position, so
// every traversal that iterates declared functions is deterministic.
func declsInSourceOrder(idx map[*types.Func]*ast.FuncDecl) []*types.Func {
	fns := make([]*types.Func, 0, len(idx))
	for fn := range idx {
		fns = append(fns, fn)
	}
	// Positions are unique per decl, so a simple insertion keeps it stable.
	for i := 1; i < len(fns); i++ {
		for j := i; j > 0 && idx[fns[j-1]].Pos() > idx[fns[j]].Pos(); j-- {
			fns[j-1], fns[j] = fns[j], fns[j-1]
		}
	}
	return fns
}

// staticCallees walks body and reports every statically resolvable callee —
// declared functions and concrete methods, same-package or imported — via
// visit, paired with the call expression. Calls through func values,
// builtins, conversions, and interface methods produce no edge. Bodies of
// nested function literals are included: their calls execute on behalf of the
// enclosing function (or escape with it, which the analyzers treat the same
// way, conservatively). With skipPanic, the argument trees of builtin panic
// calls are not walked: a callee reached only there runs on a crash path.
func staticCallees(pass *Pass, body ast.Node, skipPanic bool, visit func(call *ast.CallExpr, callee *types.Func)) {
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if skipPanic && builtinName(pass, call) == "panic" {
			return false
		}
		fn := calleeFunc(pass.Info, call)
		if fn == nil || isAbstract(fn) {
			return true
		}
		visit(call, fn)
		return true
	})
}

// hasFuncDirective reports whether the function's doc comment carries the
// given //ftlint:<name> directive line.
func hasFuncDirective(fn *ast.FuncDecl, directive string) bool {
	if fn.Doc == nil {
		return false
	}
	for _, c := range fn.Doc.List {
		if strings.TrimSpace(c.Text) == directive {
			return true
		}
	}
	return false
}

// capturesVariables reports whether the function literal references any
// variable declared outside its own body (excluding package-level objects):
// a capturing literal materializes a closure on the heap each time it is
// evaluated, a non-capturing one compiles to a static function value.
func capturesVariables(pass *Pass, lit *ast.FuncLit) bool {
	captures := false
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if captures {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.Info.Uses[id]
		v, ok := obj.(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Parent() == pass.Pkg.Scope() || v.Parent() == types.Universe {
			return true // package-level or universe: not a capture
		}
		if !declaredWithin(obj, lit) {
			captures = true
			return false
		}
		return true
	})
	return captures
}

// shortPos renders pos as "file.go:line" — positions quoted inside fact
// witnesses, where the full path of the defining machine is noise by the
// time a dependent package's diagnostic prints it.
func shortPos(pass *Pass, n ast.Node) string {
	pos := pass.Fset.Position(n.Pos())
	return filepath.Base(pos.Filename) + ":" + strconv.Itoa(pos.Line)
}
