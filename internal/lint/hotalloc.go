package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"sort"
)

// HotAlloc enforces the delivery path's performance contract — zero
// steady-state allocation per delivery cycle (see DESIGN.md "Scratch-arena
// ownership") — on every function a //ftlint:hotpath root reaches, the root
// included. It follows the static call graph, so a hot root like
// sim.Engine.routeCycle is allocation-checked end to end: through its
// same-package helpers and across package boundaries into, e.g.,
// concentrator.Matcher.Run.
//
// Five allocation sites are recognized:
//
//   - allocating a map (make(map[...]) or a map composite literal) as
//     transient per-cycle state, where a flat epoch-stamped arena is the
//     sanctioned replacement;
//   - growing a fresh local slice with append, i.e. appending to a slice
//     variable declared in the same function with a nil or empty
//     initializer (`var x []T`, `x := []T{}`, `x := make([]T, 0)`), where
//     the sanctioned form reuses pooled scratch (`x := e.scr.buf[:0]` or
//     growInts) so the backing array survives across cycles;
//   - converting a non-pointer concrete value to an interface — passing a
//     struct, int, or slice to an interface-typed parameter, or an explicit
//     I(x) conversion — which boxes the value on the heap every call. This
//     is the rule that keeps the observability hooks free when disabled:
//     the engine holds its observer as a concrete *obsv.Observer pointer
//     behind a nil check, never as an interface;
//   - fmt.Sprintf/Sprint/Sprintln/Errorf/Appendf, which build a fresh
//     string or box their operands on every call;
//   - evaluating a variable-capturing func literal, which materializes a
//     closure on the heap.
//
// Parameters, named results, and slices initialized from existing storage
// are exempt append bases: building a result the caller retains is
// legitimate, and reslicing pooled scratch is exactly the sanctioned idiom.
// Pointer, channel, map, and func values are exempt interface operands
// (pointer-shaped: boxed without allocation), as are constants (the
// compiler materializes them in static data). panic call trees are skipped
// wholesale: a crash path may allocate.
//
// Per package the analyzer computes, for every declared function, a
// transitive "allocation witness": the first reachable allocation along any
// static call chain, as a human-readable hop list ("(*Matcher).Run →
// allocates a map at matching.go:88"). Witnesses are exported as facts, so
// when a dependent package's hot root calls into this one, the dependent's
// pass sees the callee's witness without re-analyzing its source.
//
// Warm-up allocations that must stay (grow paths, one-time table builds)
// carry //ftlint:ignore hotalloc with a reason. Blind spots: calls through
// func values and interface methods produce no edge, and standard-library
// callees outside the fmt denylist are assumed allocation-free.
var HotAlloc = &Analyzer{
	Name: "hotalloc",
	Doc: "flags every allocation (maps, fresh-slice growth, boxing, fmt.Sprintf, capturing " +
		"closures) in a //ftlint:hotpath root or any function it reaches through the static " +
		"call graph, across package boundaries via exported allocation facts",
	NeedsFacts: true,
	Run:        runHotAlloc,
}

// hotPathDirective marks a function as a root of the per-cycle hot path.
const hotPathDirective = "//ftlint:hotpath"

// isHotPath reports whether the function's doc comment carries the
// //ftlint:hotpath directive.
func isHotPath(fn *ast.FuncDecl) bool {
	return hasFuncDirective(fn, hotPathDirective)
}

// hotAllocFacts is the fact exported per package: function key → transitive
// allocation witness (absent means allocation-free as far as the static call
// graph shows).
type hotAllocFacts map[string]string

// allocSite is one direct allocation in a function body.
type allocSite struct {
	node ast.Node // anchors the diagnostic position
	desc string   // "allocates a map", "calls fmt.Sprintf (allocates its result)", ...
}

// fmtAllocators is the standard-library denylist: calls that allocate their
// result by contract. Everything else in std is assumed clean (blind spot).
var fmtAllocators = map[string]bool{
	"fmt.Sprintf":  true,
	"fmt.Sprint":   true,
	"fmt.Sprintln": true,
	"fmt.Errorf":   true,
	"fmt.Appendf":  true,
}

func runHotAlloc(pass *Pass) error {
	idx := declIndex(pass)
	order := declsInSourceOrder(idx)

	// Phase 1: direct allocation sites and intra-package call edges.
	sites := make(map[*types.Func][]allocSite, len(idx))
	intraCalls := make(map[*types.Func][]*types.Func, len(idx))
	crossCalls := make(map[*types.Func][]crossEdge, len(idx))
	for _, fn := range order {
		decl := idx[fn]
		sites[fn] = directAllocSites(pass, decl.Body)
		// Crash paths may allocate: a callee reached only inside a panic
		// argument is not on the hot path.
		staticCallees(pass, decl.Body, true, func(call *ast.CallExpr, callee *types.Func) {
			switch {
			case callee.Pkg() == pass.Pkg:
				if _, declared := idx[callee]; declared {
					intraCalls[fn] = append(intraCalls[fn], callee)
				}
			case callee.Pkg() != nil:
				crossCalls[fn] = append(crossCalls[fn], crossEdge{call: call, callee: callee})
			}
		})
	}

	// Phase 2: transitive witnesses, consulting imported facts at
	// cross-package edges. Cycles resolve to "no witness" on the back edge —
	// any real allocation inside the cycle is still found from the node
	// whose direct sites or other callees carry it.
	factsFor := func(pkgPath string) hotAllocFacts {
		f, _ := pass.ImportFacts(pkgPath).(hotAllocFacts)
		return f
	}
	witness := make(map[*types.Func]string, len(idx))
	state := make(map[*types.Func]int, len(idx)) // 0 unvisited, 1 visiting, 2 done
	var resolve func(fn *types.Func) string
	resolve = func(fn *types.Func) string {
		if state[fn] == 2 {
			return witness[fn]
		}
		if state[fn] == 1 {
			return ""
		}
		state[fn] = 1
		w := ""
		if own := sites[fn]; len(own) > 0 {
			w = own[0].desc + " at " + shortPos(pass, own[0].node)
		} else {
			for _, callee := range intraCalls[fn] {
				if sub := resolve(callee); sub != "" {
					w = funcKey(callee) + " → " + sub
					break
				}
			}
			if w == "" {
				for _, edge := range crossCalls[fn] {
					if sub := factsFor(edge.callee.Pkg().Path())[funcKey(edge.callee)]; sub != "" {
						w = displayKey(pass, edge.callee) + " → " + sub
						break
					}
				}
			}
		}
		if len(w) > 220 {
			w = w[:220] + "…"
		}
		state[fn] = 2
		witness[fn] = w
		return w
	}
	out := make(hotAllocFacts)
	for _, fn := range order {
		if w := resolve(fn); w != "" {
			out[funcKey(fn)] = w
		}
	}
	pass.ExportFacts(out)

	// Phase 3: reporting, from each //ftlint:hotpath root. Sites and edges
	// are reported once, attributed to the first root (in source order) that
	// reaches them.
	reported := make(map[ast.Node]bool)
	for _, root := range order {
		if !isHotPath(idx[root]) {
			continue
		}
		rootKey := funcKey(root)
		for _, s := range sites[root] {
			if reported[s.node] {
				continue
			}
			reported[s.node] = true
			pass.Reportf(s.node.Pos(), "hot path %s (//ftlint:hotpath %s)", s.desc, rootKey)
		}
		reportHotEdges(pass, root, rootKey, idx, sites, intraCalls, crossCalls, factsFor, reported)
	}
	return nil
}

// crossEdge is one statically resolved call into another package.
type crossEdge struct {
	call   *ast.CallExpr
	callee *types.Func
}

// reportHotEdges walks the intra-package call graph from root, reporting
// every direct allocation site in reached (non-root-annotated) functions and
// every cross-package edge whose callee carries an allocation witness.
func reportHotEdges(pass *Pass, root *types.Func, rootKey string,
	idx map[*types.Func]*ast.FuncDecl, sites map[*types.Func][]allocSite,
	intraCalls map[*types.Func][]*types.Func, crossCalls map[*types.Func][]crossEdge,
	factsFor func(string) hotAllocFacts, reported map[ast.Node]bool) {

	seen := map[*types.Func]bool{root: true}
	stack := []*types.Func{root}
	for len(stack) > 0 {
		fn := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		// Cross-package edges out of fn: consult the callee's facts.
		for _, edge := range crossCalls[fn] {
			w := factsFor(edge.callee.Pkg().Path())[funcKey(edge.callee)]
			if w == "" || reported[edge.call] {
				continue
			}
			reported[edge.call] = true
			pass.Reportf(edge.call.Pos(),
				"hot path reaches an allocation in another package: %s → %s (reachable from //ftlint:hotpath %s)",
				displayKey(pass, edge.callee), w, rootKey)
		}
		// Same-package callees: report their direct sites and keep walking.
		for _, callee := range intraCalls[fn] {
			if seen[callee] {
				continue
			}
			seen[callee] = true
			if isHotPath(idx[callee]) {
				// The callee is itself a root: its body and everything
				// below it are covered by its own iteration.
				continue
			}
			for _, s := range sites[callee] {
				if reported[s.node] {
					continue
				}
				reported[s.node] = true
				pass.Reportf(s.node.Pos(),
					"%s on a hot path: %s is reachable from //ftlint:hotpath %s",
					s.desc, funcKey(callee), rootKey)
			}
			stack = append(stack, callee)
		}
	}
}

// directAllocSites scans one function body for the five allocation
// patterns, skipping panic trees, in source order.
func directAllocSites(pass *Pass, body *ast.BlockStmt) []allocSite {
	var out []allocSite
	fresh := freshLocalSlices(pass, body)
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			switch builtinName(pass, n) {
			case "panic":
				return false // crash paths may allocate
			case "make":
				if len(n.Args) > 0 && isMapType(pass.TypeOf(n.Args[0])) {
					out = append(out, allocSite{n, "allocates a map"})
				}
			case "append":
				if len(n.Args) == 0 {
					break
				}
				if id, ok := ast.Unparen(n.Args[0]).(*ast.Ident); ok {
					if obj := pass.ObjectOf(id); obj != nil && fresh[obj] {
						out = append(out, allocSite{n,
							fmt.Sprintf("grows fresh local slice %q with append", id.Name)})
					}
				}
			default:
				if fn := calleeFunc(pass.Info, n); fn != nil && fn.Pkg() != nil &&
					fmtAllocators[fn.Pkg().Path()+"."+fn.Name()] {
					out = append(out, allocSite{n, "calls fmt." + fn.Name() + " (allocates its result)"})
					break
				}
				forEachIfaceBoxing(pass, n, func(arg ast.Expr, t types.Type) {
					out = append(out, allocSite{arg,
						"boxes non-pointer " + types.TypeString(t, types.RelativeTo(pass.Pkg)) + " into an interface"})
				})
			}
		case *ast.CompositeLit:
			if isMapType(pass.TypeOf(n)) {
				out = append(out, allocSite{n, "allocates a map"})
			}
		case *ast.FuncLit:
			if capturesVariables(pass, n) {
				out = append(out, allocSite{n, "creates a capturing closure"})
			}
		}
		return true
	})
	sort.SliceStable(out, func(i, j int) bool { return out[i].node.Pos() < out[j].node.Pos() })
	return out
}

// isMapType reports whether t is non-nil and a map underneath.
func isMapType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, isMap := t.Underlying().(*types.Map)
	return isMap
}

// freshLocalSlices collects the objects of slice variables declared inside
// body with a nil or empty initializer: `var x []T`, `x := []T{}`, and
// `x := make([]T, 0)`. Appending to these grows a heap allocation made this
// call; appending to anything else (parameters, named results, reslices of
// pooled storage) is exempt.
func freshLocalSlices(pass *Pass, body *ast.BlockStmt) map[types.Object]bool {
	fresh := make(map[types.Object]bool)
	record := func(id *ast.Ident) {
		if id.Name == "_" {
			return
		}
		obj := pass.Info.Defs[id]
		if obj == nil {
			return
		}
		if _, isSlice := obj.Type().Underlying().(*types.Slice); isSlice {
			fresh[obj] = true
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeclStmt:
			gen, ok := n.Decl.(*ast.GenDecl)
			if !ok {
				return true
			}
			for _, spec := range gen.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok || len(vs.Values) != 0 {
					continue // only uninitialized `var x []T` is fresh-and-nil
				}
				for _, id := range vs.Names {
					record(id)
				}
			}
		case *ast.AssignStmt:
			if n.Tok.String() != ":=" || len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || !isEmptySliceExpr(pass, n.Rhs[i]) {
					continue
				}
				record(id)
			}
		}
		return true
	})
	return fresh
}

// isEmptySliceExpr matches `[]T{}` and `make([]T, 0)` — initializers whose
// backing array is freshly allocated and empty.
func isEmptySliceExpr(pass *Pass, e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		if len(e.Elts) != 0 {
			return false
		}
		t := pass.TypeOf(e)
		if t == nil {
			return false
		}
		_, isSlice := t.Underlying().(*types.Slice)
		return isSlice
	case *ast.CallExpr:
		if builtinName(pass, e) != "make" || len(e.Args) != 2 {
			return false
		}
		lit, ok := ast.Unparen(e.Args[1]).(*ast.BasicLit)
		return ok && lit.Value == "0"
	}
	return false
}

// forEachIfaceBoxing invokes report for every argument of call (or operand of
// an explicit conversion) whose passing boxes a non-pointer concrete value
// into an interface: each such conversion heap-allocates a copy of the value
// at the call site. Pointer-shaped operands (pointers, channels, maps, funcs,
// unsafe.Pointer) are stored in the interface word directly and constants are
// materialized in static data, so neither allocates and neither is reported.
// This is what statically pins the disabled-observer hot path at 0
// allocs/op: a nil-guarded concrete pointer passes this rule, an
// interface-typed observer field would not.
func forEachIfaceBoxing(pass *Pass, call *ast.CallExpr, report func(arg ast.Expr, t types.Type)) {
	// Explicit conversion I(x).
	if tv, ok := pass.Info.Types[call.Fun]; ok && tv.IsType() {
		if types.IsInterface(tv.Type) && len(call.Args) == 1 {
			ifaceBoxing(pass, call.Args[0], report)
		}
		return
	}
	sig, ok := pass.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var param types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			if call.Ellipsis.IsValid() {
				// xs... passes the existing slice through: no per-element
				// conversion happens at this call site.
				continue
			}
			param = params.At(params.Len() - 1).Type().Underlying().(*types.Slice).Elem()
		case i < params.Len():
			param = params.At(i).Type()
		default:
			continue
		}
		if types.IsInterface(param) {
			ifaceBoxing(pass, arg, report)
		}
	}
}

// ifaceBoxing calls report(arg, type) if converting arg to an interface
// allocates: its static type is a concrete, non-pointer-shaped type and it is
// not a constant.
func ifaceBoxing(pass *Pass, arg ast.Expr, report func(arg ast.Expr, t types.Type)) {
	tv, ok := pass.Info.Types[ast.Unparen(arg)]
	if !ok || tv.Type == nil {
		return
	}
	if tv.Value != nil {
		return // constants live in static data; boxing one does not allocate
	}
	t := tv.Type
	if b, isBasic := t.Underlying().(*types.Basic); isBasic &&
		(b.Kind() == types.UntypedNil || b.Kind() == types.UnsafePointer) {
		return
	}
	switch t.Underlying().(type) {
	case *types.Interface:
		return // interface-to-interface copies two words, no allocation
	case *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return // pointer-shaped: stored in the interface word directly
	}
	report(arg, t)
}

// builtinName returns the name of the builtin a call invokes, or "".
func builtinName(pass *Pass, call *ast.CallExpr) string {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return ""
	}
	if _, isBuiltin := pass.ObjectOf(id).(*types.Builtin); !isBuiltin {
		return ""
	}
	return id.Name
}
