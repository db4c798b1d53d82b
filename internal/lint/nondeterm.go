package lint

import (
	"go/ast"
	"go/types"
)

// Nondeterm flags sources of nondeterminism inside the determinism-critical
// packages (internal/sim, internal/sched, internal/core):
//
//   - calls to math/rand's global top-level functions (rand.Intn, rand.Perm,
//     …), which draw from the shared process-wide source — the sanctioned
//     pattern is a per-entity *rand.Rand derived from (seed, node);
//   - any use of time.Now — a delivery cycle's outcome must be a pure
//     function of (tree, messages, seed), never of the clock;
//   - map iteration whose body feeds ordered output (appends to a slice,
//     writes a slice element, or sends on a channel): Go randomizes map
//     iteration order per run, so such loops must iterate sorted keys.
//
// These are exactly the invariants the engines' seed-for-seed reproducibility
// rests on; see DESIGN.md "Determinism invariants".
var Nondeterm = &Analyzer{
	Name: "nondeterm",
	Doc: "flags global math/rand calls, time.Now, and order-sensitive map iteration " +
		"in the determinism-critical packages (sim, sched, core)",
	Match: func(path string) bool {
		for _, pkg := range []string{"internal/sim", "internal/sched", "internal/core"} {
			if pathHasSuffix(path, pkg) {
				return true
			}
		}
		return false
	},
	Run: runNondeterm,
}

// globalRandFuncs are the math/rand package-level functions backed by the
// shared global source. rand.New / rand.NewSource are excluded: creating a
// dedicated stream is the sanctioned pattern (seedplumbing checks how the
// seed is derived).
var globalRandFuncs = map[string]bool{
	"Int": true, "Intn": true, "Int31": true, "Int31n": true,
	"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
	"Float32": true, "Float64": true, "ExpFloat64": true, "NormFloat64": true,
	"Perm": true, "Shuffle": true, "Read": true, "Seed": true,
}

func runNondeterm(pass *Pass) error {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkNondetermCall(pass, n)
			case *ast.RangeStmt:
				checkMapRange(pass, n)
			}
			return true
		})
	}
	return nil
}

func checkNondetermCall(pass *Pass, call *ast.CallExpr) {
	fn := calleeFunc(pass.Info, call)
	if fn == nil {
		return
	}
	path := funcPkgPath(fn)
	// Methods have a receiver; only package-level rand functions use the
	// global source.
	sig, _ := fn.Type().(*types.Signature)
	isMethod := sig != nil && sig.Recv() != nil
	switch {
	case (path == "math/rand" || path == "math/rand/v2") && !isMethod && globalRandFuncs[fn.Name()]:
		pass.Reportf(call.Pos(),
			"call to global math/rand.%s draws from the shared process-wide source; derive a *rand.Rand from (seed, node) instead",
			fn.Name())
	case path == "time" && !isMethod && fn.Name() == "Now":
		pass.Reportf(call.Pos(),
			"time.Now in a determinism-critical package: results must be a pure function of (inputs, seed), not the clock")
	}
}

// checkMapRange flags `for k := range m` over a map when the loop body feeds
// ordered output, i.e. contains an append, a slice-element write, or a
// channel send. Loops that only reduce (sum, count, max) are order-free and
// pass.
func checkMapRange(pass *Pass, rng *ast.RangeStmt) {
	t := pass.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, isMap := t.Underlying().(*types.Map); !isMap {
		return
	}
	if rng.Key == nil && rng.Value == nil {
		return // `for range m`: no element data escapes
	}
	if feed := orderedOutputIn(pass, rng.Body); feed != "" {
		pass.Reportf(rng.Pos(),
			"map iteration feeds ordered output (%s): Go randomizes map order per run; iterate sorted keys or use an indexed slice",
			feed)
	}
}

// orderedOutputIn returns a description of the first ordered-output
// construct in body, or "".
func orderedOutputIn(pass *Pass, body *ast.BlockStmt) string {
	feed := ""
	ast.Inspect(body, func(n ast.Node) bool {
		if feed != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.CallExpr:
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "append" {
				if _, isBuiltin := pass.Info.Uses[id].(*types.Builtin); isBuiltin {
					feed = "append"
					return false
				}
			}
		case *ast.SendStmt:
			feed = "channel send"
			return false
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				if ix, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok {
					if bt := pass.TypeOf(ix.X); bt != nil {
						if _, isSlice := bt.Underlying().(*types.Slice); isSlice {
							feed = "slice element write"
							return false
						}
					}
				}
			}
		}
		return true
	})
	return feed
}
