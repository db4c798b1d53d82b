package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// LoanEscape turns the arena ownership prose of DESIGN.md §7/§9 into
// diagnostics. A function annotated //ftlint:loan returns a loan: a value
// backed by the callee's scratch arena, valid only until the next call on the
// same owner (Scheduler.OffLine, Scheduler.Compact, and the engine's
// arena-backed accessors are the canonical cases). Retaining a loan past its
// call site is the silent-aliasing bug the arena rewrites made possible, so
// this analyzer flags every retention it can see statically:
//
//   - storing a loan (the call result, or a local variable holding one) into
//     a struct field, a package-level variable, or a map element;
//   - initializing a package-level variable with a loan;
//   - handing a loan to a goroutine — as an argument, or captured by the
//     go statement's function literal;
//   - returning a loan from a function that is not itself annotated
//     //ftlint:loan (re-loaning must be declared, so callers two hops away
//     still see the contract).
//
// The sanctioned escape hatch is laundering through Clone():
// `sc.OffLine(ms).Clone()` or `owned := s.Clone()` produce independently
// owned values and are never flagged. Which functions are loans crosses
// package boundaries through facts, so `cmd/ftbench` storing a schedule
// loaned by `internal/sched` is caught even though the annotation lives in
// the other package.
//
// Blind spots (DESIGN.md §10): tracking is per-variable and flow-insensitive
// beyond direct reassignment — values derived from a loan (s.Cycles[0]), a
// loan smuggled through an unannotated helper's parameter, and captures by
// closures that escape without a go statement are not seen.
var LoanEscape = &Analyzer{
	Name: "loanescape",
	Doc: "flags results of //ftlint:loan functions (arena-backed loans, valid until the owner's " +
		"next call) stored into fields, globals, or maps, handed to goroutines, or returned " +
		"from unannotated functions, unless laundered through Clone()",
	NeedsFacts: true,
	Run:        runLoanEscape,
}

// loanDirective marks a function whose results are loans from its receiver's
// (or an internal) arena.
const loanDirective = "//ftlint:loan"

// loanFacts is the fact exported per package: the keys of every
// //ftlint:loan function, so dependent packages recognize loan calls.
type loanFacts map[string]bool

func runLoanEscape(pass *Pass) error {
	idx := declIndex(pass)
	order := declsInSourceOrder(idx)

	// Local loan set + facts export.
	localLoans := make(map[*types.Func]bool)
	exported := make(loanFacts)
	for _, fn := range order {
		if hasFuncDirective(idx[fn], loanDirective) {
			localLoans[fn] = true
			exported[funcKey(fn)] = true
		}
	}
	pass.ExportFacts(exported)
	if pass.FactsOnly {
		return nil
	}

	// isLoanCall resolves whether call invokes a loan function, consulting
	// imported facts across package boundaries.
	isLoanCall := func(call *ast.CallExpr) (*types.Func, bool) {
		fn := calleeFunc(pass.Info, call)
		if fn == nil || isAbstract(fn) || fn.Pkg() == nil {
			return nil, false
		}
		if fn.Pkg() == pass.Pkg {
			return fn, localLoans[fn]
		}
		f, _ := pass.ImportFacts(fn.Pkg().Path()).(loanFacts)
		return fn, f[funcKey(fn)]
	}

	// Package-level variable initializers: a loan stored in a global is dead
	// the moment its owner is called again.
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			gen, ok := decl.(*ast.GenDecl)
			if !ok || gen.Tok != token.VAR {
				continue
			}
			for _, spec := range gen.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, v := range vs.Values {
					if call, ok := ast.Unparen(v).(*ast.CallExpr); ok {
						if fn, isLoan := isLoanCall(call); isLoan {
							pass.Reportf(v.Pos(),
								"package-level variable initialized with a loan from //ftlint:loan %s; loans die at the owner's next call — Clone() it",
								displayKey(pass, fn))
						}
					}
				}
			}
		}
	}

	for _, fn := range order {
		checkLoanEscapes(pass, idx[fn], localLoans[fn], isLoanCall)
	}
	return nil
}

// checkLoanEscapes walks one declared function, tracking which local
// variables hold loans and flagging every escaping use.
func checkLoanEscapes(pass *Pass, decl *ast.FuncDecl, declIsLoan bool,
	isLoanCall func(*ast.CallExpr) (*types.Func, bool)) {

	loaned := make(map[types.Object]*types.Func) // local var -> loan source

	// exprLoanSource returns the loan function behind e: a direct loan call,
	// or a local variable currently holding one. Clone() chains are owned by
	// construction and return nil.
	exprLoanSource := func(e ast.Expr) *types.Func {
		switch e := ast.Unparen(e).(type) {
		case *ast.CallExpr:
			if fn, isLoan := isLoanCall(e); isLoan {
				return fn
			}
		case *ast.Ident:
			if obj := pass.Info.Uses[e]; obj != nil {
				return loaned[obj]
			}
		}
		return nil
	}

	describeDst := func(lhs ast.Expr) string {
		switch lhs := ast.Unparen(lhs).(type) {
		case *ast.SelectorExpr:
			if sel, ok := pass.Info.Selections[lhs]; ok && sel.Kind() == types.FieldVal {
				return fmt.Sprintf("struct field %q", lhs.Sel.Name)
			}
		case *ast.Ident:
			if obj := pass.Info.Uses[lhs]; obj != nil {
				if v, ok := obj.(*types.Var); ok && v.Parent() == pass.Pkg.Scope() {
					return fmt.Sprintf("package-level variable %q", lhs.Name)
				}
			}
		case *ast.IndexExpr:
			if t := pass.TypeOf(lhs.X); t != nil {
				if _, isMap := t.Underlying().(*types.Map); isMap {
					return "a map element"
				}
			}
		}
		return ""
	}

	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				for i, rhs := range n.Rhs {
					if i >= len(n.Lhs) {
						break
					}
					src := exprLoanSource(rhs)
					lhs := ast.Unparen(n.Lhs[i])
					if src == nil {
						// Reassigning a tracked variable with an owned value
						// (v = v.Clone(), v = nil) releases the loan.
						if id, ok := lhs.(*ast.Ident); ok && n.Tok == token.ASSIGN && len(n.Lhs) == len(n.Rhs) {
							if obj := pass.Info.Uses[id]; obj != nil {
								delete(loaned, obj)
							}
						}
						continue
					}
					if dst := describeDst(n.Lhs[i]); dst != "" {
						pass.Reportf(rhs.Pos(),
							"loan from //ftlint:loan %s stored into %s; the value is only valid until the owner's next call — Clone() it first",
							displayKey(pass, src), dst)
						continue
					}
					if id, ok := lhs.(*ast.Ident); ok && id.Name != "_" {
						if obj := pass.ObjectOf(id); obj != nil {
							loaned[obj] = src
						}
					}
				}
			case *ast.ValueSpec:
				// var v = loanCall() inside the body.
				for i, val := range n.Values {
					if src := exprLoanSource(val); src != nil && i < len(n.Names) {
						if obj := pass.Info.Defs[n.Names[i]]; obj != nil {
							loaned[obj] = src
						}
					}
				}
			case *ast.ReturnStmt:
				if declIsLoan {
					return true // a loan function may re-loan freely
				}
				for _, res := range n.Results {
					if src := exprLoanSource(res); src != nil {
						pass.Reportf(res.Pos(),
							"returns a loan from //ftlint:loan %s, but %s is not annotated //ftlint:loan; annotate it or return a Clone()",
							displayKey(pass, src), decl.Name.Name)
					}
				}
			case *ast.GoStmt:
				checkGoLoan(pass, n, loaned, exprLoanSource)
				return false // checked; don't re-flag inner assignments twice
			case *ast.FuncLit:
				// Walk literal bodies with the same tracking state: loans
				// created inside run under the same rules. Returns inside a
				// literal belong to the literal, which cannot be annotated;
				// re-loaning from one is flagged via the enclosing decl rule.
				return true
			}
			return true
		})
	}
	walk(decl.Body)
}

// checkGoLoan flags loans handed to a goroutine: loaned arguments of the go
// call, and loaned variables captured by its function literal.
func checkGoLoan(pass *Pass, g *ast.GoStmt, loaned map[types.Object]*types.Func,
	exprLoanSource func(ast.Expr) *types.Func) {

	for _, arg := range g.Call.Args {
		if src := exprLoanSource(arg); src != nil {
			pass.Reportf(arg.Pos(),
				"loan from //ftlint:loan %s passed to a goroutine, which may outlive it; Clone() it first",
				displayKey(pass, src))
		}
	}
	lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit)
	if !ok {
		return
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.Info.Uses[id]
		if obj == nil {
			return true
		}
		if src := loaned[obj]; src != nil && !declaredWithin(obj, lit) {
			pass.Reportf(id.Pos(),
				"loaned value %q (from //ftlint:loan %s) captured by a goroutine, which may outlive it; Clone() it first",
				id.Name, displayKey(pass, src))
		}
		return true
	})
}
