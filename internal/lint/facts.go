package lint

import "sort"

// This file is the facts layer: the plumbing that lets an analyzer export a
// per-package summary ("function F allocates", "function G is a loan",
// "function H is ctx-aware") and have the pass analyzing a dependent package
// read it back. It is what turns the intraprocedural analyzers into
// whole-program ones — hotalloc follows a hot path from
// sim.Engine.RunCycle into concentrator.Matcher.Run only because the
// concentrator's allocation facts were computed first and handed to the sim
// pass.
//
// Facts live in a factStore keyed by (package, analyzer), and packages are
// processed in dependency order — `go list -deps` order is already
// topological, and topoOrder re-establishes it defensively from the
// type-checked import graph. A fact is a plain Go value whose type is
// private to the analyzer that exports it (see hotAllocFacts, loanFacts,
// goroFacts).

// factKey identifies the facts one analyzer exported for one package.
type factKey struct {
	pkgPath, analyzer string
}

// factStore holds every exported fact of one run in memory.
type factStore map[factKey]any

// topoOrder returns pkgs sorted so every package appears after the packages
// it imports (restricted to the analyzed set). Ties and roots are broken by
// import path, so the order — and therefore fact computation — is
// deterministic regardless of input order. The module's import graph is
// acyclic by construction; an unexpected cycle degrades to emission order
// within the cycle rather than failing.
func topoOrder(pkgs []*Package) []*Package {
	byPath := make(map[string]*Package, len(pkgs))
	paths := make([]string, 0, len(pkgs))
	for _, p := range pkgs {
		byPath[p.PkgPath] = p
		paths = append(paths, p.PkgPath)
	}
	sort.Strings(paths)

	out := make([]*Package, 0, len(pkgs))
	state := make(map[string]int, len(pkgs)) // 0 unvisited, 1 visiting, 2 done
	var visit func(path string)
	visit = func(path string) {
		pkg, ok := byPath[path]
		if !ok || state[path] != 0 {
			return
		}
		state[path] = 1
		imports := pkg.Types.Imports()
		deps := make([]string, 0, len(imports))
		for _, imp := range imports {
			deps = append(deps, imp.Path())
		}
		sort.Strings(deps)
		for _, dep := range deps {
			visit(dep)
		}
		state[path] = 2
		out = append(out, pkg)
	}
	for _, path := range paths {
		visit(path)
	}
	return out
}
