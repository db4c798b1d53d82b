package lint

import (
	"go/types"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// This file tests the driver plumbing in-process: the fact store, the
// topological ordering, and the Load→RunAnalyzers path. The cmd/ftlint
// smoke tests cover the same paths through the real binary; these run them
// under the coverage profile.

// TestFactStore round-trips a typed fact between two passes of the same
// analyzer and checks that another analyzer's passes do not see it.
func TestFactStore(t *testing.T) {
	store := make(factStore)
	dep := &Pass{Analyzer: HotAlloc, Pkg: types.NewPackage("m/dep", "dep"), facts: store}
	user := &Pass{Analyzer: HotAlloc, Pkg: types.NewPackage("m/user", "user"), facts: store}
	if got := user.ImportFacts("m/dep"); got != nil {
		t.Fatalf("empty store returned %v", got)
	}
	dep.ExportFacts(hotAllocFacts{"F": "allocates a map at dep.go:3"})
	dep.ExportFacts(hotAllocFacts{"G": "allocates a map at dep.go:7"})
	got, _ := user.ImportFacts("m/dep").(hotAllocFacts)
	if len(got) != 1 || got["G"] == "" {
		t.Errorf("ImportFacts after two exports = %v, want only the second", got)
	}
	other := &Pass{Analyzer: LoanEscape, Pkg: user.Pkg, facts: store}
	if got := other.ImportFacts("m/dep"); got != nil {
		t.Errorf("loanescape sees hotalloc's facts: %v", got)
	}
}

// TestTopoOrder builds a synthetic diamond a→{b,c}→d handed over in reverse
// and asserts every import precedes its importer.
func TestTopoOrder(t *testing.T) {
	mk := func(path string, imports ...*types.Package) *types.Package {
		p := types.NewPackage(path, filepath.Base(path))
		p.SetImports(imports)
		return p
	}
	d := mk("m/d")
	b := mk("m/b", d)
	c := mk("m/c", d)
	a := mk("m/a", b, c)
	var pkgs []*Package
	for _, tp := range []*types.Package{a, c, b, d} {
		pkgs = append(pkgs, &Package{PkgPath: tp.Path(), Types: tp})
	}
	order := topoOrder(pkgs)
	if len(order) != len(pkgs) {
		t.Fatalf("topoOrder dropped packages: got %d, want %d", len(order), len(pkgs))
	}
	pos := make(map[string]int)
	for i, p := range order {
		pos[p.PkgPath] = i
	}
	for _, edge := range [][2]string{{"m/d", "m/b"}, {"m/d", "m/c"}, {"m/b", "m/a"}, {"m/c", "m/a"}} {
		if pos[edge[0]] > pos[edge[1]] {
			t.Errorf("%s ordered after its importer %s: %v", edge[0], edge[1], pos)
		}
	}
}

// writeTestModule materializes a throwaway module from path -> contents.
func writeTestModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, content := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o777); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o666); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// crossModule is a two-package module: a hot root in sim whose only
// allocation lives in concentrator.
func crossModule(t *testing.T) string {
	return writeTestModule(t, map[string]string{
		"go.mod": "module xmod\n\ngo 1.22\n",
		"internal/concentrator/c.go": `package concentrator

func Route(n int) map[int]int {
	m := make(map[int]int, n)
	for i := 0; i < n; i++ {
		m[i] = i
	}
	return m
}
`,
		"internal/sim/hot.go": `package sim

import "xmod/internal/concentrator"

//ftlint:hotpath
func Step(n int) int {
	return len(concentrator.Route(n))
}
`,
	})
}

// TestRunAnalyzersCrossPackage drives the standalone path end to end:
// Load resolves both packages, topoOrder puts the callee first, and the
// in-memory fact store carries its witness into the sim pass.
func TestRunAnalyzersCrossPackage(t *testing.T) {
	dir := crossModule(t)
	pkgs, err := Load(dir, "./...")
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if len(pkgs) != 2 {
		t.Fatalf("Load returned %d packages, want 2", len(pkgs))
	}
	diags, err := RunAnalyzers(pkgs, []*Analyzer{HotAlloc})
	if err != nil {
		t.Fatalf("RunAnalyzers: %v", err)
	}
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1: %v", len(diags), diags)
	}
	want := "hot path reaches an allocation in another package: concentrator.Route → allocates a map"
	if got := diags[0].String(); !strings.Contains(got, want) || !strings.Contains(got, "[hotalloc]") {
		t.Errorf("diagnostic %q does not carry the cross-package witness %q", got, want)
	}
}

func TestAllAndByName(t *testing.T) {
	all := All()
	for i := 1; i < len(all); i++ {
		if all[i-1].Name >= all[i].Name {
			t.Errorf("All() not in strict name order: %q before %q", all[i-1].Name, all[i].Name)
		}
	}
	for _, a := range all {
		if ByName(a.Name) != a {
			t.Errorf("ByName(%q) did not return the analyzer", a.Name)
		}
	}
	if ByName("nope") != nil {
		t.Error(`ByName("nope") returned an analyzer`)
	}
}
