package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// GoroShutdown pins the graceful-shutdown contract of the long-running
// daemon: every goroutine started in cmd/ftserve must be provably joinable,
// so SIGTERM can never strand a tenant loop mid-request or leak one past the
// daemon's exit. A `go` statement passes when the analyzer can prove one of:
//
//   - the goroutine signals a sync.WaitGroup (a Done call, usually deferred,
//     anywhere in its body or — via call-graph facts — in a function it
//     calls), so a Wait elsewhere joins it;
//   - the goroutine is cancellable: its body (or, transitively, a callee,
//     across packages through facts) receives from ctx.Done(), selects on or
//     receives from a quit-style channel (name matching done/quit/stop/
//     shutdown/exit/cancel), or ranges over a channel (terminating when the
//     producer closes it);
//   - the spawner awaits it: the goroutine's function literal sends on or
//     closes a captured channel that the enclosing function receives from —
//     the `serveErr <- srv.Serve(ln)` / `defer close(done)` idiom.
//
// Anything else — `go func() { for { poll() } }()`, a goroutine whose callee
// is a func value the analyzer cannot resolve — is flagged. Blind spots
// (DESIGN.md §10): the proof is syntactic; a WaitGroup nobody Waits on, a
// quit channel nobody closes, or a select whose quit case never returns all
// pass. Facts export the "carries a shutdown signal" bit for every function,
// so cancellable loops may live in other packages than the go statement.
var GoroShutdown = &Analyzer{
	Name: "goroshutdown",
	Doc: "requires every goroutine in cmd/ftserve to be provably joinable: " +
		"WaitGroup-signalled, cancellable via ctx.Done()/quit-channel select (transitively, " +
		"across packages via facts), or awaited through a channel the spawner receives from",
	NeedsFacts: true,
	Match: func(path string) bool {
		return pathHasSuffix(path, "cmd/ftserve")
	},
	Run: runGoroShutdown,
}

// goroFacts is the fact exported per package: keys of functions whose
// bodies (transitively) carry a shutdown signal.
type goroFacts map[string]bool

// quitChanName matches identifiers conventionally used for shutdown
// channels.
func quitChanName(name string) bool {
	l := strings.ToLower(name)
	for _, w := range []string{"done", "quit", "stop", "shutdown", "exit", "cancel"} {
		if strings.Contains(l, w) {
			return true
		}
	}
	return false
}

func runGoroShutdown(pass *Pass) error {
	idx := declIndex(pass)
	order := declsInSourceOrder(idx)

	// Phase 1: direct signals and call edges per declared function.
	direct := make(map[*types.Func]bool, len(idx))
	intraCalls := make(map[*types.Func][]*types.Func, len(idx))
	crossCalls := make(map[*types.Func][]*types.Func, len(idx))
	for _, fn := range order {
		decl := idx[fn]
		direct[fn] = hasDirectShutdownSignal(pass, decl.Body)
		staticCallees(pass, decl.Body, false, func(call *ast.CallExpr, callee *types.Func) {
			switch {
			case callee.Pkg() == pass.Pkg:
				if _, declared := idx[callee]; declared {
					intraCalls[fn] = append(intraCalls[fn], callee)
				}
			case callee.Pkg() != nil:
				crossCalls[fn] = append(crossCalls[fn], callee)
			}
		})
	}

	// Phase 2: transitive closure, consulting imported facts.
	calleeShutdown := func(fn *types.Func) bool {
		f, _ := pass.ImportFacts(fn.Pkg().Path()).(goroFacts)
		return f[funcKey(fn)]
	}
	shutdown := make(map[*types.Func]bool, len(idx))
	state := make(map[*types.Func]int, len(idx))
	var resolve func(fn *types.Func) bool
	resolve = func(fn *types.Func) bool {
		if state[fn] == 2 {
			return shutdown[fn]
		}
		if state[fn] == 1 {
			return false
		}
		state[fn] = 1
		ok := direct[fn]
		if !ok {
			for _, callee := range intraCalls[fn] {
				if resolve(callee) {
					ok = true
					break
				}
			}
		}
		if !ok {
			for _, callee := range crossCalls[fn] {
				if calleeShutdown(callee) {
					ok = true
					break
				}
			}
		}
		state[fn] = 2
		shutdown[fn] = ok
		return ok
	}
	for _, fn := range order {
		resolve(fn)
	}

	out := make(goroFacts)
	for fn, ok := range shutdown {
		if ok {
			out[funcKey(fn)] = true
		}
	}
	pass.ExportFacts(out)
	if pass.FactsOnly {
		return nil
	}

	// Phase 3: every go statement must be provable.
	for _, fn := range order {
		decl := idx[fn]
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			g, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			checkGoStmt(pass, g, decl.Body, func(callee *types.Func) bool {
				if callee.Pkg() == pass.Pkg {
					if _, declared := idx[callee]; declared {
						return resolve(callee)
					}
					return false
				}
				return calleeShutdown(callee)
			})
			return true
		})
	}
	return nil
}

// checkGoStmt proves one go statement joinable or reports it. enclosing is
// the body of the function containing the statement (for the spawner-awaits
// pattern); calleeOK resolves named callees to their transitive shutdown
// fact.
func checkGoStmt(pass *Pass, g *ast.GoStmt, enclosing *ast.BlockStmt, calleeOK func(*types.Func) bool) {
	if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
		if hasDirectShutdownSignal(pass, lit.Body) {
			return
		}
		// Transitive: a callee of the literal body carries the signal.
		found := false
		staticCallees(pass, lit.Body, false, func(_ *ast.CallExpr, callee *types.Func) {
			if !found && callee.Pkg() != nil && calleeOK(callee) {
				found = true
			}
		})
		if found {
			return
		}
		if spawnerAwaits(pass, lit, enclosing) {
			return
		}
		pass.Reportf(g.Pos(),
			"goroutine is not provably joinable: no WaitGroup signal, no ctx.Done()/quit-channel select, and the spawner never receives from a channel it closes or sends on; plumb a shutdown signal")
		return
	}
	// Named function or method: its (transitive) fact must carry the signal.
	if fn := calleeFunc(pass.Info, g.Call); fn != nil && !isAbstract(fn) {
		if calleeOK(fn) {
			return
		}
		pass.Reportf(g.Pos(),
			"goroutine runs %s, which carries no shutdown signal (no WaitGroup Done, ctx.Done()/quit-channel select, or channel range on any static call path); plumb one through or join it explicitly",
			displayKey(pass, fn))
		return
	}
	pass.Reportf(g.Pos(),
		"goroutine target cannot be resolved statically (func value or interface method), so joinability is unprovable; spawn a named function or an inline literal with a shutdown signal")
}

// hasDirectShutdownSignal reports whether body itself contains a joinability
// signal: a (*sync.WaitGroup).Done call, a receive from ctx.Done(), a select
// or unary receive involving a quit-style channel, or a range over a
// channel.
func hasDirectShutdownSignal(pass *Pass, body ast.Node) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if fn := calleeFunc(pass.Info, n); fn != nil {
				if fn.Name() == "Done" && fn.Pkg() != nil && fn.Pkg().Path() == "sync" {
					found = true // wg.Done(): joined by a Wait
					return false
				}
			}
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" && isShutdownChan(pass, n.X) {
				found = true
				return false
			}
		case *ast.SelectStmt:
			for _, clause := range n.Body.List {
				comm, ok := clause.(*ast.CommClause)
				if !ok || comm.Comm == nil {
					continue
				}
				if recvFrom := receiveOperand(comm.Comm); recvFrom != nil && isShutdownChan(pass, recvFrom) {
					found = true
					return false
				}
			}
		case *ast.RangeStmt:
			if t := pass.TypeOf(n.X); t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					found = true // terminates when the producer closes
					return false
				}
			}
		}
		return true
	})
	return found
}

// receiveOperand extracts the channel expression of a receive comm clause
// (`case <-c:` or `case v := <-c:`), or nil.
func receiveOperand(comm ast.Stmt) ast.Expr {
	switch s := comm.(type) {
	case *ast.ExprStmt:
		if u, ok := ast.Unparen(s.X).(*ast.UnaryExpr); ok && u.Op.String() == "<-" {
			return u.X
		}
	case *ast.AssignStmt:
		if len(s.Rhs) == 1 {
			if u, ok := ast.Unparen(s.Rhs[0]).(*ast.UnaryExpr); ok && u.Op.String() == "<-" {
				return u.X
			}
		}
	}
	return nil
}

// isShutdownChan reports whether e denotes a cancellation source: ctx.Done()
// for a context.Context, or a channel identifier named like a quit channel.
func isShutdownChan(pass *Pass, e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CallExpr:
		if fn := calleeFunc(pass.Info, e); fn != nil {
			return fn.Name() == "Done" && fn.Pkg() != nil && fn.Pkg().Path() == "context"
		}
	case *ast.Ident:
		return quitChanName(e.Name)
	case *ast.SelectorExpr:
		return quitChanName(e.Sel.Name)
	}
	return false
}

// spawnerAwaits reports whether the goroutine literal signals its completion
// through a channel the enclosing function receives from: the body sends on
// or closes a captured channel object that `enclosing` receives from via a
// unary receive, a select case, or a range.
func spawnerAwaits(pass *Pass, lit *ast.FuncLit, enclosing *ast.BlockStmt) bool {
	// Channels the literal signals on.
	signalled := make(map[types.Object]bool)
	record := func(e ast.Expr) {
		if id, ok := ast.Unparen(e).(*ast.Ident); ok {
			if obj := pass.Info.Uses[id]; obj != nil && !declaredWithin(obj, lit) {
				signalled[obj] = true
			}
		}
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			record(n.Chan)
		case *ast.CallExpr:
			if builtinName(pass, n) == "close" && len(n.Args) == 1 {
				record(n.Args[0])
			}
		}
		return true
	})
	if len(signalled) == 0 {
		return false
	}
	// Receives in the enclosing function over any of them.
	uses := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return false
		}
		obj := pass.Info.Uses[id]
		return obj != nil && signalled[obj]
	}
	awaited := false
	ast.Inspect(enclosing, func(n ast.Node) bool {
		if awaited {
			return false
		}
		switch n := n.(type) {
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" && uses(n.X) {
				awaited = true
			}
		case *ast.RangeStmt:
			if uses(n.X) {
				awaited = true
			}
		}
		return true
	})
	return awaited
}
