package lint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// This file is the fixture harness — the analysistest equivalent. A fixture
// is one package directory under testdata/src; expected diagnostics are
// declared inline with analysistest syntax:
//
//	rand.Intn(10) // want `global math/rand`
//
// Each backquoted or double-quoted string after "want" is a regexp that must
// match one diagnostic reported on that line. Fixture-local imports resolve
// to sibling directories under testdata/src (so a fixture can carry a
// dependency of its own); everything else resolves through compiler export data,
// exactly like whole-repo runs.

// testingT is the subset of *testing.T the harness needs, split out so the
// harness itself can be unit-tested.
type testingT interface {
	Helper()
	Errorf(format string, args ...any)
	Fatalf(format string, args ...any)
}

// RunFixture loads testdata/src/<fixture> relative to dir, applies the
// analyzer (bypassing its Match filter — fixtures choose their analyzer
// explicitly), and compares the diagnostics against the // want
// expectations in the fixture source.
//
// For a NeedsFacts analyzer, any fixture-local imports (sibling directories
// under testdata/src) are first analyzed in facts-only mode in dependency
// order, so the main fixture package sees their facts exactly as a real
// driver would — this is how the cross-package call-graph fixtures work.
func RunFixture(t testingT, a *Analyzer, dir, fixture string) {
	t.Helper()
	src := filepath.Join(dir, "testdata", "src")
	fset := token.NewFileSet()
	fi := &fixtureImporter{
		src:      src,
		fset:     fset,
		std:      importer.ForCompiler(fset, "gc", stdLookup(src)),
		packages: make(map[string]*types.Package),
	}
	pkg, err := fi.load(fixture)
	if err != nil {
		t.Fatalf("loading fixture %s: %v", fixture, err)
	}
	var diags []Diagnostic
	store := make(factStore)
	if a.NeedsFacts {
		// fi.loaded is in completion order — imports finish loading before
		// their importers — so it is already topological; the main fixture
		// package is last and skipped here.
		for _, dep := range fi.loaded {
			if dep.PkgPath == fixture {
				continue
			}
			if err := runOne(dep, a, &diags, store, true); err != nil {
				t.Fatalf("running %s on fixture dep %s: %v", a.Name, dep.PkgPath, err)
			}
		}
	}
	if err := runOne(pkg, a, &diags, store, false); err != nil {
		t.Fatalf("running %s on fixture %s: %v", a.Name, fixture, err)
	}
	diags = filterIgnored([]*Package{pkg}, diags)
	checkExpectations(t, pkg, diags)
}

// stdLookup satisfies standard-library imports from compiler export data,
// resolving lazily through `go list -export` so fixtures may import any std
// package without pre-declaring it.
func stdLookup(dir string) func(string) (io.ReadCloser, error) {
	cache := make(map[string]string)
	return func(path string) (io.ReadCloser, error) {
		if f, ok := cache[path]; ok {
			return os.Open(f)
		}
		pkgs, err := listExports(dir, path)
		if err != nil {
			return nil, err
		}
		for p, f := range pkgs {
			cache[p] = f
		}
		f, ok := cache[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(f)
	}
}

// listExports returns ImportPath -> export-data file for the pattern and its
// dependencies, via `go list -export -deps` run in dir.
func listExports(dir, pattern string) (map[string]string, error) {
	cmd := exec.Command("go", "list", "-export", "-deps",
		"-json=ImportPath,Export", pattern)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list -export %s: %v\n%s", pattern, err, stderr.String())
	}
	exports := make(map[string]string)
	dec := json.NewDecoder(bytes.NewReader(out))
	for {
		var p struct{ ImportPath, Export string }
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, err
		}
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
	}
	return exports, nil
}

// fixtureImporter resolves fixture-local packages from source and delegates
// the rest to the export-data importer.
type fixtureImporter struct {
	src      string
	fset     *token.FileSet
	std      types.Importer
	packages map[string]*types.Package
	loaded   []*Package // fixture-local packages in completion (topological) order
}

func (fi *fixtureImporter) Import(path string) (*types.Package, error) {
	if dirExists(filepath.Join(fi.src, filepath.FromSlash(path))) {
		if p, ok := fi.packages[path]; ok {
			return p, nil
		}
		pkg, err := fi.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return fi.std.Import(path)
}

// load parses and type-checks the fixture package at src/<path>.
func (fi *fixtureImporter) load(path string) (*Package, error) {
	dir := filepath.Join(fi.src, filepath.FromSlash(path))
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		f, err := parser.ParseFile(fi.fset, filepath.Join(dir, e.Name()), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("fixture %s has no Go files", path)
	}
	info := newInfo()
	conf := types.Config{Importer: fi}
	tpkg, err := conf.Check(path, fi.fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("type-checking fixture %s: %v", path, err)
	}
	fi.packages[path] = tpkg
	pkg := &Package{
		PkgPath: path,
		Dir:     dir,
		Fset:    fi.fset,
		Files:   files,
		Types:   tpkg,
		Info:    info,
	}
	fi.loaded = append(fi.loaded, pkg)
	return pkg, nil
}

func dirExists(path string) bool {
	st, err := os.Stat(path)
	return err == nil && st.IsDir()
}

// expectation is one // want regexp at a file line.
type expectation struct {
	file string
	line int
	re   *regexp.Regexp
	text string
}

// checkExpectations cross-checks diagnostics against // want comments:
// every expectation must be matched by exactly one diagnostic on its line,
// and every diagnostic must be claimed by an expectation.
func checkExpectations(t testingT, pkg *Package, diags []Diagnostic) {
	expects := parseWants(t, pkg)
	matched := make([]bool, len(diags))
	for _, e := range expects {
		found := false
		for i, d := range diags {
			if matched[i] || d.Pos.Filename != e.file || d.Pos.Line != e.line {
				continue
			}
			if e.re.MatchString(d.Message) {
				matched[i] = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", e.file, e.line, e.text)
		}
	}
	for i, d := range diags {
		if !matched[i] {
			t.Errorf("%s: unexpected diagnostic: %s", pkg.PkgPath, d)
		}
	}
}

// wantRE extracts the quoted regexps of a want comment: backquoted or
// double-quoted Go string literals.
var wantRE = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

// parseWants collects the // want expectations of every fixture file.
func parseWants(t testingT, pkg *Package) []expectation {
	var out []expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				quoted := wantRE.FindAllString(strings.TrimPrefix(text, "want "), -1)
				if len(quoted) == 0 {
					t.Fatalf("%s:%d: malformed want comment %q", pos.Filename, pos.Line, c.Text)
				}
				for _, q := range quoted {
					var lit string
					if strings.HasPrefix(q, "`") {
						lit = strings.Trim(q, "`")
					} else {
						var err error
						lit, err = strconv.Unquote(q)
						if err != nil {
							t.Fatalf("%s:%d: bad want string %s: %v", pos.Filename, pos.Line, q, err)
						}
					}
					re, err := regexp.Compile(lit)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, lit, err)
					}
					out = append(out, expectation{file: pos.Filename, line: pos.Line, re: re, text: lit})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].file != out[j].file {
			return out[i].file < out[j].file
		}
		return out[i].line < out[j].line
	})
	return out
}
