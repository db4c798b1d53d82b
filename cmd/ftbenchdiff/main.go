// Command ftbenchdiff compares two micro-benchmark runs in Go's benchmark
// text format — the output of `go test -bench -benchmem` (`make bench`
// writes one) — and flags ns/op regressions above a threshold, plus any
// allocs/op increase. BENCH_8.txt is the committed baseline.
//
// A file holds `key: value` header lines (goos, goarch, pkg, cpu, ...) and
// result rows `BenchmarkName[-P] iterations value unit [value unit ...]`;
// any other line (PASS, ok, test logs) is skipped. Rows are matched by name
// with the -P GOMAXPROCS suffix stripped, so a run on a many-core runner
// compares against a baseline recorded at GOMAXPROCS 1. Every row must carry
// ns/op and allocs/op (go test -benchmem).
//
// Usage:
//
//	ftbenchdiff old.txt new.txt             # report, always exit 0
//	ftbenchdiff -threshold 5 old.txt new.txt
//	ftbenchdiff -strict old.txt new.txt     # exit 1 if regressions found
//	ftbenchdiff -only OffLineSchedule old.txt new.txt
//
// The default mode is advisory (exit 0 even with regressions) so CI can run
// it on shared, noisy runners without failing the build; -strict turns
// regressions, and baseline rows missing from the new run, into a nonzero
// exit for environments with stable timing. -only restricts the comparison
// to benchmarks whose name matches the given regular expression, so CI can
// hold one stable family to -strict while the noisier ones stay advisory.
//
// Exit status: 0 success (or advisory regressions), 1 runtime failure or
// regressions under -strict, 2 usage error.
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"regexp"
	"strconv"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// benchResult is one result row; only the two gated metrics are kept.
type benchResult struct {
	Name        string
	NsPerOp     float64
	AllocsPerOp int64
}

// benchRun is one parsed file: its header lines in order, then its rows.
type benchRun struct {
	Header     []string
	Benchmarks []benchResult
}

// procSuffix is the -P GOMAXPROCS suffix go test appends to a row's name
// when P is not 1.
var procSuffix = regexp.MustCompile(`-\d+$`)

// headerLine matches a `key: value` configuration line: the key starts with
// a lowercase letter and holds no space or uppercase letter.
var headerLine = regexp.MustCompile(`^[a-z][^\sA-Z]*:\s`)

// filterBench keeps only the results whose name matches re.
func filterBench(rs []benchResult, re *regexp.Regexp) []benchResult {
	out := rs[:0]
	for _, r := range rs {
		if re.MatchString(r.Name) {
			out = append(out, r)
		}
	}
	return out
}

// readBench loads one run. A file without result rows and a row without
// ns/op or allocs/op are errors: each would leave a gate comparing less than
// it claims to.
func readBench(path string) (benchRun, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return benchRun{}, err
	}
	var run benchRun
	for i, text := range strings.Split(string(raw), "\n") {
		if headerLine.MatchString(text) {
			k, v, _ := strings.Cut(text, ":")
			run.Header = append(run.Header, k+"="+strings.TrimSpace(v))
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 2 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		if _, err := strconv.Atoi(fields[1]); err != nil {
			continue // a failed benchmark: "BenchmarkX-P --- FAIL: BenchmarkX-P"
		}
		res := benchResult{Name: procSuffix.ReplaceAllString(fields[0], "")}
		var hasNs, hasAllocs bool
		for j := 2; j+1 < len(fields); j += 2 {
			v, err := strconv.ParseFloat(fields[j], 64)
			if err != nil {
				return benchRun{}, fmt.Errorf("%s:%d: %s: bad value %q", path, i+1, res.Name, fields[j])
			}
			switch fields[j+1] {
			case "ns/op":
				res.NsPerOp, hasNs = v, true
			case "allocs/op":
				res.AllocsPerOp, hasAllocs = int64(v), true
			}
		}
		if !hasNs || !hasAllocs {
			return benchRun{}, fmt.Errorf("%s:%d: %s lacks ns/op or allocs/op (run go test with -benchmem)", path, i+1, res.Name)
		}
		run.Benchmarks = append(run.Benchmarks, res)
	}
	if len(run.Benchmarks) == 0 {
		return benchRun{}, fmt.Errorf("%s: no benchmark rows", path)
	}
	return run, nil
}

func headerText(h []string) string {
	if len(h) == 0 {
		return "(no header lines)"
	}
	return strings.Join(h, " ")
}

// run is the testable entry point; it returns the process exit code. The
// report is rendered into buffers and flushed with one checked write per
// stream, so a broken pipe can't silently truncate it mid-table.
func run(args []string, stdout, stderr io.Writer) int {
	var out, errb bytes.Buffer
	code := diff(args, &out, &errb)
	if _, err := stdout.Write(out.Bytes()); err != nil {
		return 1
	}
	if _, err := stderr.Write(errb.Bytes()); err != nil {
		return 1
	}
	return code
}

func diff(args []string, stdout, stderr *bytes.Buffer) int {
	fs := flag.NewFlagSet("ftbenchdiff", flag.ContinueOnError)
	fs.SetOutput(stderr)
	threshold := fs.Float64("threshold", 10, "flag ns/op regressions above this percentage")
	strict := fs.Bool("strict", false, "exit 1 when regressions or missing rows are flagged (default is advisory)")
	only := fs.String("only", "", "compare only benchmarks whose name matches this regexp")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: ftbenchdiff [-threshold pct] [-strict] [-only regexp] old.txt new.txt")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fs.Usage()
		return 2
	}
	// No delta exceeds a NaN or +Inf threshold, so either would pass any
	// regression.
	if t := *threshold; math.IsNaN(t) || math.IsInf(t, 0) || t < 0 {
		fmt.Fprintf(stderr, "ftbenchdiff: -threshold must be a finite non-negative percentage (got %v)\n", *threshold)
		return 2
	}
	var filter *regexp.Regexp
	if *only != "" {
		var err error
		if filter, err = regexp.Compile(*only); err != nil {
			fmt.Fprintf(stderr, "ftbenchdiff: invalid -only pattern: %v\n", err)
			return 2
		}
	}

	old, err := readBench(fs.Arg(0))
	if err != nil {
		fmt.Fprintf(stderr, "ftbenchdiff: %v\n", err)
		return 1
	}
	cur, err := readBench(fs.Arg(1))
	if err != nil {
		fmt.Fprintf(stderr, "ftbenchdiff: %v\n", err)
		return 1
	}
	if filter != nil {
		old.Benchmarks = filterBench(old.Benchmarks, filter)
		cur.Benchmarks = filterBench(cur.Benchmarks, filter)
		if len(old.Benchmarks) == 0 && len(cur.Benchmarks) == 0 {
			fmt.Fprintf(stderr, "ftbenchdiff: -only %q matches no benchmark on either side\n", *only)
			return 1
		}
	}

	fmt.Fprintf(stdout, "old: %s\nnew: %s\n\n", headerText(old.Header), headerText(cur.Header))
	fmt.Fprintf(stdout, "%-40s %14s %14s %9s %11s\n",
		"benchmark", "old ns/op", "new ns/op", "delta", "allocs/op")

	oldBy := make(map[string]benchResult, len(old.Benchmarks))
	for _, r := range old.Benchmarks {
		oldBy[r.Name] = r
	}

	regressions := 0
	matched := make(map[string]bool, len(cur.Benchmarks))
	for _, now := range cur.Benchmarks {
		was, ok := oldBy[now.Name]
		if !ok {
			fmt.Fprintf(stdout, "%-40s %14s %14.0f %9s %11d  (new benchmark)\n",
				now.Name, "-", now.NsPerOp, "-", now.AllocsPerOp)
			continue
		}
		matched[now.Name] = true
		delta := 0.0
		if was.NsPerOp > 0 {
			delta = 100 * (now.NsPerOp - was.NsPerOp) / was.NsPerOp
		}
		flags := ""
		if delta > *threshold {
			flags += fmt.Sprintf("  REGRESSION: ns/op +%.1f%% > %.0f%%", delta, *threshold)
			regressions++
		}
		if now.AllocsPerOp > was.AllocsPerOp {
			flags += fmt.Sprintf("  REGRESSION: allocs/op %d -> %d", was.AllocsPerOp, now.AllocsPerOp)
			regressions++
		}
		fmt.Fprintf(stdout, "%-40s %14.0f %14.0f %+8.1f%% %5d -> %-4d%s\n",
			now.Name, was.NsPerOp, now.NsPerOp, delta, was.AllocsPerOp, now.AllocsPerOp, flags)
	}
	missing := 0
	for _, was := range old.Benchmarks {
		if !matched[was.Name] {
			fmt.Fprintf(stdout, "%-40s %14.0f %14s %9s %11s  (dropped benchmark)\n",
				was.Name, was.NsPerOp, "-", "-", "-")
			missing++
		}
	}

	if regressions > 0 || missing > 0 {
		fmt.Fprintf(stdout, "\n%d regression(s) flagged (threshold %.0f%% ns/op; any allocs/op increase), %d baseline row(s) missing from the new run\n",
			regressions, *threshold, missing)
		if *strict {
			return 1
		}
		fmt.Fprintln(stdout, "advisory mode: exiting 0 (use -strict to fail on regressions and missing rows)")
		return 0
	}
	fmt.Fprintf(stdout, "\nno regressions above %.0f%% ns/op, no allocs/op increases\n", *threshold)
	return 0
}
