// Package lint is a suite of static analyzers that mechanically enforce the
// determinism, numeric-safety and allocation invariants of this repository.
// The paper's quantitative claims are validated by "paper bound vs. measured"
// tables, so every measured number must be reproducible bit-for-bit and the
// delivery path must allocate nothing per cycle; the invariants that
// guarantee it — all randomness flows through per-entity RNG streams derived
// from (seed, node), float comparisons carry explicit tolerances, hot paths
// reuse pooled scratch — previously lived only in code review. The analyzers
// here encode them as machine-checked rules, run by cmd/ftlint (`make lint`).
//
// The framework mirrors the golang.org/x/tools/go/analysis API (Analyzer,
// Pass, Reportf) but is built purely on the standard library's go/ast and
// go/types, because this module deliberately carries no external
// dependencies. Type information for whole-repo runs comes from
// `go list -export` plus the gc export-data importer (see load.go); fixture
// tests type-check straight from testdata source (see testutil.go).
//
// A diagnostic can be suppressed for a sanctioned exception by the line
// comment directive
//
//	//ftlint:ignore <analyzer> <reason>
//
// placed on the flagged line or the line above it. The reason is mandatory
// by convention: an ignore without a justification defeats the point.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Analyzer describes one static analysis: a named rule with a Run function
// that inspects a type-checked package and reports diagnostics.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics, -only flags, and
	// //ftlint:ignore directives. It must be a single lowercase word.
	Name string
	// Doc is the one-paragraph description shown by `ftlint -list`.
	Doc string
	// Match reports whether the analyzer applies to the package with the
	// given import path during a whole-repo run. A nil Match applies
	// everywhere. Fixture tests bypass Match: they run the analyzer
	// directly on the fixture package.
	//
	// For a NeedsFacts analyzer, Match gates only reporting: the analyzer
	// still runs on non-matching packages in facts-only mode, because its
	// dependents need the facts.
	Match func(pkgPath string) bool
	// NeedsFacts marks an analyzer that exports per-package facts for its
	// dependents (and imports theirs). RunAnalyzers and the fixture harness
	// run packages in dependency order — imports before importers — so each
	// pass sees the facts of the packages it imports.
	NeedsFacts bool
	// Run inspects one package and reports diagnostics through the pass.
	Run func(*Pass) error
}

// Pass carries one analyzer's view of one type-checked package, mirroring
// analysis.Pass.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	// FactsOnly is set when this pass runs only to compute exported facts:
	// the package is outside the analyzer's Match scope, or it is a fixture's
	// dependency. Reportf is a no-op on a facts-only pass.
	FactsOnly bool

	facts factStore
	diags *[]Diagnostic
}

// ImportFacts returns the facts this analyzer exported while analyzing the
// imported package pkgPath, or nil when none are known (package outside the
// analyzed set, standard library, or analyzer exported nothing). The value
// is whatever the analyzer passed to ExportFacts; its type is private to the
// analyzer.
func (p *Pass) ImportFacts(pkgPath string) any {
	return p.facts[factKey{pkgPath, p.Analyzer.Name}]
}

// ExportFacts records facts as this package's facts for dependent passes of
// the same analyzer. Calling it more than once overwrites.
func (p *Pass) ExportFacts(facts any) {
	p.facts[factKey{p.Pkg.Path(), p.Analyzer.Name}] = facts
}

// Diagnostic is one reported finding, resolved to a concrete file position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: [%s] %s", d.Pos, d.Analyzer, d.Message)
}

// Reportf records a diagnostic at pos. On a facts-only pass it is a no-op:
// the package is analyzed solely so its dependents see its facts.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	if p.FactsOnly {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// TypeOf returns the type of expression e, or nil if not found.
func (p *Pass) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// ObjectOf returns the object denoted by ident, consulting Defs then Uses.
func (p *Pass) ObjectOf(id *ast.Ident) types.Object {
	if o := p.Info.Defs[id]; o != nil {
		return o
	}
	return p.Info.Uses[id]
}

// RunAnalyzers applies every analyzer (subject to its Match filter) to every
// package and returns the surviving diagnostics sorted by position. Packages
// are processed in dependency order — imports before importers — so
// fact-based analyzers see the facts of every analyzed import. Findings on
// lines carrying an //ftlint:ignore directive for the analyzer are dropped.
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	store := make(factStore)
	for _, pkg := range topoOrder(pkgs) {
		for _, a := range analyzers {
			match := a.Match == nil || a.Match(pkg.PkgPath)
			if !match && !a.NeedsFacts {
				continue
			}
			if err := runOne(pkg, a, &diags, store, !match); err != nil {
				return nil, fmt.Errorf("%s on %s: %w", a.Name, pkg.PkgPath, err)
			}
		}
	}
	diags = filterIgnored(pkgs, diags)
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
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
	return diags, nil
}

// runOne applies a single analyzer to a single package, appending to diags;
// factsOnly suppresses reporting (the pass runs solely to export facts).
func runOne(pkg *Package, a *Analyzer, diags *[]Diagnostic, store factStore, factsOnly bool) error {
	return a.Run(&Pass{
		Analyzer:  a,
		Fset:      pkg.Fset,
		Files:     pkg.Files,
		Pkg:       pkg.Types,
		Info:      pkg.Info,
		FactsOnly: factsOnly,
		facts:     store,
		diags:     diags,
	})
}

// ignoreKey identifies one source line of one file.
type ignoreKey struct {
	file string
	line int
}

// filterIgnored drops diagnostics whose line (or the line above) carries an
// //ftlint:ignore directive naming the analyzer (or "all").
func filterIgnored(pkgs []*Package, diags []Diagnostic) []Diagnostic {
	ignores := make(map[ignoreKey][]string)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					text := strings.TrimPrefix(c.Text, "//")
					if !strings.HasPrefix(text, "ftlint:ignore") {
						continue
					}
					fields := strings.Fields(strings.TrimPrefix(text, "ftlint:ignore"))
					if len(fields) == 0 {
						continue
					}
					pos := pkg.Fset.Position(c.Pos())
					k := ignoreKey{pos.Filename, pos.Line}
					ignores[k] = append(ignores[k], fields[0])
				}
			}
		}
	}
	if len(ignores) == 0 {
		return diags
	}
	keep := diags[:0]
	for _, d := range diags {
		suppressed := false
		for _, line := range []int{d.Pos.Line, d.Pos.Line - 1} {
			for _, name := range ignores[ignoreKey{d.Pos.Filename, line}] {
				if name == d.Analyzer || name == "all" {
					suppressed = true
				}
			}
		}
		if !suppressed {
			keep = append(keep, d)
		}
	}
	return keep
}

// pathHasSuffix reports whether the import path is pkg or ends in "/pkg" —
// the matcher used to recognize this module's packages both at their real
// import paths (fattree/internal/sim) and in relocated test modules.
func pathHasSuffix(path, pkg string) bool {
	return path == pkg || strings.HasSuffix(path, "/"+pkg)
}
