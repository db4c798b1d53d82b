package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTemp writes one run file and returns its path.
func writeTemp(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// oldRun is a baseline as go test -bench -benchmem prints it at GOMAXPROCS 1:
// header lines, result rows (one with an extra ReportMetric column), and the
// trailing PASS/ok lines.
const oldRun = `goos: linux
goarch: amd64
pkg: fattree
cpu: Test CPU @ 2.00GHz
BenchmarkRouteCycleSerial/n=256         	    1000	      1000 ns/op	       0 B/op	       0 allocs/op
BenchmarkRouteCycleSerial/n=1024        	     300	      4000 ns/op	       0 B/op	       0 allocs/op
BenchmarkRouteCycleImplicit/n=65536     	      10	     50000 ns/op	         2.400 B/endpoint	       0 B/op	       0 allocs/op
BenchmarkOffLineSchedule/n=256          	     100	      9000 ns/op	    4096 B/op	     100 allocs/op
PASS
ok  	fattree	4.321s
`

// newRun is oldRun as a GOMAXPROCS 4 run prints it: every name gains -4.
var newRun = strings.NewReplacer(
	"n=256 ", "n=256-4 ", "n=1024 ", "n=1024-4 ", "n=65536 ", "n=65536-4 ",
	"cpu: Test CPU", "cpu: Other CPU").Replace(oldRun)

func runDiff(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var out, errb strings.Builder
	code := run(args, &out, &errb)
	return code, out.String(), errb.String()
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"one.txt"},
		{"a.txt", "b.txt", "c.txt"},
		{"-threshold", "-3", "a.txt", "b.txt"},
		{"-threshold", "NaN", "a.txt", "b.txt"},
		{"-threshold", "+Inf", "a.txt", "b.txt"},
		{"-threshold", "-Inf", "a.txt", "b.txt"},
		{"-nope", "a.txt", "b.txt"},
	} {
		if code, _, _ := runDiff(t, args...); code != 2 {
			t.Errorf("args %v: exit %d, want 2", args, code)
		}
	}
}

func TestFileErrors(t *testing.T) {
	good := writeTemp(t, "good.txt", oldRun)
	for name, content := range map[string]string{
		"no rows":     "goos: linux\nPASS\n",
		"json":        `{"benchmarks": [{"name": "RouteCycleSerial", "n": 256}]}`,
		"no benchmem": "BenchmarkRouteCycleSerial/n=256 \t 1000 \t 1000 ns/op\n",
		"bad value":   "BenchmarkRouteCycleSerial/n=256 \t 1000 \t fast ns/op \t 0 B/op \t 0 allocs/op\n",
	} {
		bad := writeTemp(t, "bad.txt", content)
		if code, _, errb := runDiff(t, good, bad); code != 1 {
			t.Errorf("%s: exit %d, want 1 (stderr %q)", name, code, errb)
		}
	}
	if code, _, _ := runDiff(t, "/nonexistent/x.txt", good); code != 1 {
		t.Error("missing old file: want exit 1")
	}
}

func TestNoRegressions(t *testing.T) {
	a := writeTemp(t, "a.txt", oldRun)
	b := writeTemp(t, "b.txt", strings.Replace(newRun, "1000 ns/op", "1050 ns/op", 1))
	code, out, _ := runDiff(t, "-strict", a, b)
	if code != 0 || !strings.Contains(out, "no regressions") {
		t.Fatalf("exit %d, output:\n%s", code, out)
	}
	if !strings.Contains(out, "cpu=Test CPU @ 2.00GHz") || !strings.Contains(out, "cpu=Other CPU") {
		t.Errorf("header lines missing:\n%s", out)
	}
	// The -4 suffix is stripped: every row matched, none new or dropped.
	if strings.Contains(out, "new benchmark") || strings.Contains(out, "dropped benchmark") ||
		!strings.Contains(out, "BenchmarkRouteCycleImplicit/n=65536 ") {
		t.Errorf("rows not matched by name:\n%s", out)
	}
}

func TestNsPerOpRegression(t *testing.T) {
	a := writeTemp(t, "a.txt", oldRun)
	b := writeTemp(t, "b.txt", strings.Replace(newRun, "4000 ns/op", "5000 ns/op", 1))

	// Advisory by default: flagged, but exit 0.
	code, out, _ := runDiff(t, a, b)
	if code != 0 {
		t.Fatalf("advisory mode: exit %d, want 0", code)
	}
	if !strings.Contains(out, "REGRESSION: ns/op +25.0%") || !strings.Contains(out, "advisory mode") {
		t.Fatalf("regression not flagged:\n%s", out)
	}

	// -strict fails; a raised threshold clears it.
	if code, _, _ = runDiff(t, "-strict", a, b); code != 1 {
		t.Fatalf("-strict: exit %d, want 1", code)
	}
	if code, _, _ = runDiff(t, "-strict", "-threshold", "30", a, b); code != 0 {
		t.Fatalf("-threshold 30: exit %d, want 0", code)
	}
}

func TestAllocRegression(t *testing.T) {
	a := writeTemp(t, "a.txt", oldRun)
	b := writeTemp(t, "b.txt", strings.Replace(newRun,
		"1000 ns/op	       0 B/op	       0 allocs/op", "1000 ns/op	      48 B/op	       2 allocs/op", 1))
	code, out, _ := runDiff(t, "-strict", a, b)
	if code != 1 || !strings.Contains(out, "REGRESSION: allocs/op 0 -> 2") {
		t.Fatalf("alloc regression not flagged (exit %d):\n%s", code, out)
	}
}

func TestOnlyFilter(t *testing.T) {
	a := writeTemp(t, "a.txt", oldRun)
	// Regress RouteCycleSerial only; a diff restricted to OffLineSchedule
	// must not see it, even under -strict.
	b := writeTemp(t, "b.txt", strings.Replace(newRun, "4000 ns/op", "9000 ns/op", 1))

	code, out, _ := runDiff(t, "-strict", "-only", "OffLineSchedule", a, b)
	if code != 0 {
		t.Fatalf("-only OffLineSchedule: exit %d, want 0\n%s", code, out)
	}
	if strings.Contains(out, "RouteCycleSerial") {
		t.Errorf("filtered-out benchmark still reported:\n%s", out)
	}
	if !strings.Contains(out, "OffLineSchedule") {
		t.Errorf("kept benchmark missing from report:\n%s", out)
	}

	// The same diff with a filter matching the regressed family fails under
	// -strict.
	if code, _, _ := runDiff(t, "-strict", "-only", "RouteCycle", a, b); code != 1 {
		t.Errorf("-only RouteCycle on a regressed family: exit %d, want 1", code)
	}

	// A pattern matching nothing is a runtime error, a malformed one a usage
	// error.
	if code, _, errb := runDiff(t, "-only", "NoSuchBench", a, b); code != 1 || !strings.Contains(errb, "matches no benchmark") {
		t.Errorf("empty -only match: exit %d stderr %q, want 1 + note", code, errb)
	}
	if code, _, _ := runDiff(t, "-only", "(", a, b); code != 2 {
		t.Errorf("invalid -only regexp: want usage error")
	}
}

// TestDroppedBenchmark: a baseline row the run lacks — a renamed or deleted
// benchmark — is reported, and fails -strict when the -only filter selects
// it, so a rename cannot silently empty a gate.
func TestDroppedBenchmark(t *testing.T) {
	a := writeTemp(t, "a.txt", oldRun)
	b := writeTemp(t, "b.txt", strings.ReplaceAll(newRun, "BenchmarkOffLineSchedule", "BenchmarkScheduleOffLine"))

	code, out, _ := runDiff(t, a, b)
	if code != 0 || !strings.Contains(out, "(dropped benchmark)") || !strings.Contains(out, "1 baseline row(s) missing") {
		t.Errorf("advisory: exit %d, want 0 and a dropped-benchmark note:\n%s", code, out)
	}
	if code, out, _ := runDiff(t, "-strict", "-threshold", "50", "-only", "OffLineSchedule", a, b); code != 1 ||
		!strings.Contains(out, "(dropped benchmark)") {
		t.Errorf("-strict with the gated row missing: exit %d, want 1 and a dropped-benchmark note\n%s", code, out)
	}
	// A missing row outside the -only family leaves that gate alone.
	if code, out, _ := runDiff(t, "-strict", "-only", "RouteCycle", a, b); code != 0 {
		t.Errorf("-strict -only RouteCycle: exit %d, want 0\n%s", code, out)
	}
}

// TestBaselineFile: the committed baseline parses, holding the nine rows the
// CI strict gates compare against, each at 0 allocs/op.
func TestBaselineFile(t *testing.T) {
	base, err := readBench(filepath.Join("..", "..", "BENCH_8.txt"))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, r := range base.Benchmarks {
		names = append(names, r.Name)
		if r.AllocsPerOp != 0 || r.NsPerOp <= 0 {
			t.Errorf("%s: %v ns/op, %d allocs/op", r.Name, r.NsPerOp, r.AllocsPerOp)
		}
	}
	want := "BenchmarkRouteCycleSerial/n=256 BenchmarkOffLineSchedule/n=256 " +
		"BenchmarkRouteCycleSerial/n=1024 BenchmarkOffLineSchedule/n=1024 " +
		"BenchmarkRouteCycleSerial/n=4096 BenchmarkOffLineSchedule/n=4096 " +
		"BenchmarkRouteCycleImplicit/n=65536 BenchmarkRouteCycleImplicit/n=262144 " +
		"BenchmarkRouteCycleImplicit/n=1048576"
	if got := strings.Join(names, " "); got != want {
		t.Errorf("baseline rows:\n got %s\nwant %s", got, want)
	}
}
