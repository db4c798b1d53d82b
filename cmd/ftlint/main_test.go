package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildFtlint compiles the ftlint binary once into a test temp dir.
func buildFtlint(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "ftlint")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("building ftlint: %v\n%s", err, out)
	}
	return bin
}

// writeModule materializes a throwaway module from path -> contents.
func writeModule(t *testing.T, files map[string]string) string {
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

const badSimSource = `package sim

import (
	"math/rand"
	"time"
)

func Shuffle(xs []int) {
	rand.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
}

func Stamp() int64 { return time.Now().UnixNano() }

func Stream() *rand.Rand { return rand.New(rand.NewSource(1)) }
`

const badMetricsSource = `package metrics

func Same(a, b float64) bool { return a == b }
`

const badServeSource = `package main

func main() { Spin(); _ = Serve(1) }

func Spin() {
	go func() {
		for {
		}
	}()
}

//ftlint:hotpath
func Serve(id int) int {
	seen := map[int]bool{id: true}
	return len(seen)
}
`

const badSchedSource = `package sched

type Schedule struct{ n int }

type Scheduler struct{ arena Schedule }

//ftlint:loan
func (s *Scheduler) OffLine() *Schedule { return &s.arena }

var last *Schedule

func Keep(s *Scheduler) { last = s.OffLine() }
`

func badModule(t *testing.T) string {
	return writeModule(t, map[string]string{
		"go.mod":                  "module badmod\n\ngo 1.22\n",
		"internal/sim/bad.go":     badSimSource,
		"internal/metrics/bad.go": badMetricsSource,
		"cmd/ftserve/bad.go":      badServeSource,
		"internal/sched/bad.go":   badSchedSource,
	})
}

// TestSmokeStandalone runs the multichecker over a known-bad module and
// asserts the non-zero exit plus one diagnostic per planted violation.
func TestSmokeStandalone(t *testing.T) {
	bin := buildFtlint(t)
	cmd := exec.Command(bin, "./...")
	cmd.Dir = badModule(t)
	out, err := cmd.CombinedOutput()
	exit, ok := err.(*exec.ExitError)
	if !ok || exit.ExitCode() != 1 {
		t.Fatalf("ftlint ./... on bad module: err=%v (want exit 1)\n%s", err, out)
	}
	for _, want := range []string{
		"[nondeterm] call to global math/rand.Shuffle",
		"[nondeterm] time.Now",
		"[seedplumbing] rand.NewSource seeded from a constant",
		"[floatcompare] floating-point == comparison",
		"[goroshutdown] goroutine is not provably joinable",
		"[loanescape] loan from //ftlint:loan (*Scheduler).OffLine stored into package-level variable",
		"[hotalloc] hot path allocates a map",
	} {
		if !strings.Contains(string(out), want) {
			t.Errorf("missing diagnostic %q in output:\n%s", want, out)
		}
	}
}

// TestSmokeCleanModule asserts the zero exit on a module that follows the
// sanctioned patterns, including a fixed seed in a test file (tests are out
// of scope by design).
func TestSmokeCleanModule(t *testing.T) {
	bin := buildFtlint(t)
	dir := writeModule(t, map[string]string{
		"go.mod": "module goodmod\n\ngo 1.22\n",
		"internal/sim/good.go": `package sim

import "math/rand"

func Stream(seed int64, node int) *rand.Rand {
	return rand.New(rand.NewSource(seed + int64(node)))
}
`,
		"internal/sim/good_test.go": `package sim

import (
	"math/rand"
	"testing"
)

func TestStream(t *testing.T) {
	want := rand.New(rand.NewSource(1)).Int63()
	if got := Stream(1, 0).Int63(); got != want {
		t.Fatalf("got %d, want %d", got, want)
	}
}
`,
	})
	cmd := exec.Command(bin, "./...")
	cmd.Dir = dir
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("ftlint on clean module: %v\n%s", err, out)
	}
}

// TestRepoClean runs ftlint over this repository itself and requires a zero
// exit: every function reachable from a //ftlint:hotpath annotation in the
// tree — including the scheduler arena's — must satisfy the hotalloc rules,
// and the other analyzers must stay quiet. This is the static half of the allocation
// contract; TestOffLineScheduleAllocs and the RouteCycle guards are the
// runtime half.
func TestRepoClean(t *testing.T) {
	if testing.Short() {
		t.Skip("full-repo lint run is covered in CI")
	}
	bin := buildFtlint(t)
	cmd := exec.Command(bin, "./...")
	cmd.Dir = filepath.Join("..", "..")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("ftlint ./... on the repository: %v\n%s", err, out)
	}
	// The interprocedural trio again, explicitly, so a future edit that drops
	// one from All() cannot silently shrink this check.
	cmd = exec.Command(bin, "-only", "hotalloc,loanescape,goroshutdown", "./...")
	cmd.Dir = filepath.Join("..", "..")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("ftlint -only hotalloc,loanescape,goroshutdown on the repository: %v\n%s", err, out)
	}
}

// TestListFlag checks the -list output names exactly the seven analyzers,
// one per line.
func TestListFlag(t *testing.T) {
	bin := buildFtlint(t)
	out, err := exec.Command(bin, "-list").CombinedOutput()
	if err != nil {
		t.Fatalf("ftlint -list: %v\n%s", err, out)
	}
	names := []string{
		"errdiscard", "floatcompare", "goroshutdown", "hotalloc",
		"loanescape", "nondeterm", "seedplumbing",
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(lines) != len(names) {
		t.Fatalf("-list printed %d lines, want %d:\n%s", len(lines), len(names), out)
	}
	for i, name := range names {
		if fields := strings.Fields(lines[i]); len(fields) == 0 || fields[0] != name {
			t.Errorf("-list line %d is %q, want analyzer %q", i+1, lines[i], name)
		}
	}
}

// TestSmokeJSON asserts the -json shape on both a dirty and a clean run: a
// sorted array of {file, line, col, analyzer, message} objects, and the
// empty (but non-null) array when nothing is found.
func TestSmokeJSON(t *testing.T) {
	bin := buildFtlint(t)
	cmd := exec.Command(bin, "-json", "./...")
	cmd.Dir = badModule(t)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err := cmd.Run()
	if exit, ok := err.(*exec.ExitError); !ok || exit.ExitCode() != 1 {
		t.Fatalf("ftlint -json ./... on bad module: err=%v (want exit 1)\n%s%s", err, stdout.String(), stderr.String())
	}
	var diags []jsonDiagnostic
	if err := json.Unmarshal(stdout.Bytes(), &diags); err != nil {
		t.Fatalf("-json output is not a diagnostic array: %v\n%s", err, stdout.String())
	}
	if len(diags) == 0 {
		t.Fatal("-json output is empty on a module full of violations")
	}
	byAnalyzer := make(map[string]int)
	for i, d := range diags {
		if d.File == "" || d.Line <= 0 || d.Col <= 0 || d.Analyzer == "" || d.Message == "" {
			t.Errorf("diagnostic %d has empty fields: %+v", i, d)
		}
		byAnalyzer[d.Analyzer]++
	}
	for _, name := range []string{"nondeterm", "floatcompare", "goroshutdown", "loanescape"} {
		if byAnalyzer[name] == 0 {
			t.Errorf("-json output has no %s diagnostics; got %v", name, byAnalyzer)
		}
	}

	clean := exec.Command(bin, "-json", "./internal/metrics/...")
	clean.Dir = writeModule(t, map[string]string{
		"go.mod":                   "module goodmod\n\ngo 1.22\n",
		"internal/metrics/good.go": "package metrics\n\nfunc Twice(x int) int { return 2 * x }\n",
	})
	out, err := clean.Output()
	if err != nil {
		t.Fatalf("ftlint -json on clean module: %v", err)
	}
	if got := strings.TrimSpace(string(out)); got != "[]" {
		t.Errorf("clean -json run printed %q, want the empty array", got)
	}
}

// crossFactsModule plants a //ftlint:hotpath root in one package whose only
// allocation lives two packages away: the diagnostic can exist only if the
// callee's allocation witness crossed both package boundaries through facts.
func crossFactsModule(t *testing.T) string {
	return writeModule(t, map[string]string{
		"go.mod": "module xmod\n\ngo 1.22\n",
		"internal/concentrator/c.go": `package concentrator

func Route(n int) map[int]int {
	m := make(map[int]int, n)
	for i := 0; i < n; i++ {
		m[i] = i
	}
	return m
}

func Relay(n int) int { return len(Route(n)) }
`,
		"internal/sim/hot.go": `package sim

import "xmod/internal/concentrator"

//ftlint:hotpath
func Step(n int) int {
	return concentrator.Relay(n)
}
`,
	})
}

const crossFactsWant = "hot path reaches an allocation in another package: concentrator.Relay → Route → allocates a map"

// TestCrossPackageFactsStandalone proves the facts path: the
// interprocedural witness survives the topological run.
func TestCrossPackageFactsStandalone(t *testing.T) {
	bin := buildFtlint(t)
	cmd := exec.Command(bin, "-only", "hotalloc", "./...")
	cmd.Dir = crossFactsModule(t)
	out, err := cmd.CombinedOutput()
	if exit, ok := err.(*exec.ExitError); !ok || exit.ExitCode() != 1 {
		t.Fatalf("ftlint on cross-package module: err=%v (want exit 1)\n%s", err, out)
	}
	if !strings.Contains(string(out), crossFactsWant) {
		t.Errorf("missing cross-package witness diagnostic %q in output:\n%s", crossFactsWant, out)
	}
}
