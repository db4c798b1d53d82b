package fattree_test

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// Smoke tests for the command-line tools and example programs: each is run
// end-to-end via `go run` at small sizes, and its output is checked for the
// landmark lines. Skipped under -short (each invocation pays a build).

// runGo executes `go run <target> <args...>` and returns combined output.
func runGo(t *testing.T, target string, args ...string) string {
	t.Helper()
	cmd := exec.Command("go", append([]string{"run", target}, args...)...)
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go run %s %v: %v\n%s", target, args, err, out)
	}
	return string(out)
}

func TestSmokeCmds(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke test")
	}
	cases := []struct {
		target string
		args   []string
		want   []string
	}{
		{"./cmd/fttopo", []string{"-n", "64", "-w", "16"},
			[]string{"universal fat-tree", "silhouette", "Hardware cost"}},
		{"./cmd/ftsim", []string{"-n", "64", "-w", "16", "-workload", "bitrev", "-policy", "offline", "-viz"},
			[]string{"schedule:", "delivered 56/56", "0 drops", "occupancy"}},
		{"./cmd/ftsim", []string{"-n", "32", "-workload", "perm", "-policy", "online"},
			[]string{"delivered", "bit-serial"}},
		{"./cmd/ftsim", []string{"-n", "32", "-workload", "perm", "-policy", "online", "-switches", "partial", "-hist"},
			[]string{"delivery latency (cycles)", "per-level utilization", "p99<="}},
		{"./cmd/ftbench", []string{"-quick", "-run", "E1"},
			[]string{"E1", "Per-level channel capacities", "suite complete"}},
		{"./cmd/ftbench", []string{"-quick", "-run", "E12", "-json"},
			[]string{`"id": "E12"`, `"rows"`}},
		{"./cmd/ftbench", []string{"-list"},
			[]string{"E1", "E25", "A2"}},
		{"./cmd/ftsim", []string{"-kary", "8,4;2,1;1,2", "-workload", "random", "-policy", "online"},
			[]string{"k-ary 8,4;2,1;1,2", "delivered 128/128"}},
		{"./cmd/ftsim", []string{"-kary", "4,4;1,1;1,1", "-policy", "online", "-viz"},
			[]string{"(-viz utilization bars are drawn for binary trees only; skipped for this non-binary tree)"}},
		{"./cmd/ftsim", []string{"-kary", "4,4;1,1;1,1", "-policy", "greedy", "-viz"},
			[]string{"(-viz schedule Gantt is drawn for binary trees only; skipped for this non-binary tree)"}},
		{"./cmd/ftsim", []string{"-n", "64", "-implicit", "-policy", "offline", "-viz"},
			[]string{"(-viz utilization bars walk per-node state; skipped under -implicit)",
				"(-viz schedule Gantt walks per-node state; skipped under -implicit)"}},
		{"./cmd/ftdesign", []string{"-n", "1024", "-radix", "36", "-budget", "60000"},
			[]string{"best: 3-tier", "one-cycle λ check: PASS"}},
		{"./cmd/ftdesign", []string{"-n", "64", "-radix", "10", "-budget", "4000", "-oversub", "2", "-all"},
			[]string{"within budget", "one-cycle λ check: PASS"}},
		{"./cmd/fttrace", []string{"-trace", "fft", "-n", "64"},
			[]string{"per-phase cost", "total:"}},
		{"./cmd/fttrace", []string{"-trace", "multigrid", "-k", "8"},
			[]string{"smooth 8x8", "prolong"}},
	}
	for _, c := range cases {
		c := c
		t.Run(strings.Join(append([]string{c.target}, c.args...), " "), func(t *testing.T) {
			t.Parallel()
			out := runGo(t, c.target, c.args...)
			for _, want := range c.want {
				if !strings.Contains(out, want) {
					t.Errorf("missing %q in output:\n%s", want, out)
				}
			}
		})
	}
}

var (
	buildCLIsOnce sync.Once
	builtCLIDir   string
	buildCLIsErr  error
	buildCLIsOut  string
)

// builtCLI compiles every cmd/ binary once per test process (go run cannot
// be used here: it collapses every nonzero child exit into its own exit 1)
// and returns the path of the named one.
func builtCLI(t *testing.T, name string) string {
	t.Helper()
	buildCLIsOnce.Do(func() {
		builtCLIDir, buildCLIsErr = os.MkdirTemp("", "fattree-cli")
		if buildCLIsErr != nil {
			return
		}
		out, err := exec.Command("go", "build", "-o", builtCLIDir, "./cmd/...").CombinedOutput()
		buildCLIsErr, buildCLIsOut = err, string(out)
	})
	if buildCLIsErr != nil {
		t.Fatalf("building CLIs: %v\n%s", buildCLIsErr, buildCLIsOut)
	}
	return filepath.Join(builtCLIDir, name)
}

// runCLIExit executes one built CLI binary and returns its exit code with
// combined output.
func runCLIExit(t *testing.T, name string, args ...string) (int, string) {
	t.Helper()
	out, err := exec.Command(builtCLI(t, name), args...).CombinedOutput()
	if err == nil {
		return 0, string(out)
	}
	exit, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("%s %v: %v\n%s", name, args, err, out)
	}
	return exit.ExitCode(), string(out)
}

// TestCLIExitCodes pins the exit-code convention shared by every CLI:
// 0 success, 1 runtime failure, 2 usage error (ftlint's "runtime failure"
// is diagnostics reported — a clean lint is its success).
func TestCLIExitCodes(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke test")
	}
	cases := []struct {
		name string
		bin  string
		args []string
		want int
	}{
		// Usage errors: malformed or unknown flag values exit 2.
		{"ftsim bad n", "ftsim", []string{"-n", "63"}, 2},
		{"ftsim unknown workload", "ftsim", []string{"-n", "16", "-workload", "nope"}, 2},
		{"ftsim unknown policy", "ftsim", []string{"-n", "16", "-policy", "nope"}, 2},
		{"ftsim unknown switches", "ftsim", []string{"-n", "16", "-switches", "nope"}, 2},
		{"ftsim bad trace cap", "ftsim", []string{"-n", "16", "-trace-out", "t.json", "-trace-cap", "0"}, 2},
		{"ftsim unknown profile", "ftsim", []string{"-n", "16", "-profile", "heap"}, 2},
		{"ftbench unknown experiment", "ftbench", []string{"-run", "NOPE"}, 2},
		{"ftbench unknown profile", "ftbench", []string{"-list", "-profile", "heap"}, 2},
		{"fttopo bad n", "fttopo", []string{"-n", "63"}, 2},
		{"fttopo w and volume", "fttopo", []string{"-n", "64", "-w", "16", "-volume", "100"}, 2},
		{"fttrace unknown trace", "fttrace", []string{"-trace", "nope"}, 2},
		{"ftlint unknown analyzer", "ftlint", []string{"-only", "nope", "./..."}, 2},
		{"ftserve bad n", "ftserve", []string{"-n", "63"}, 2},
		{"ftserve unknown workload", "ftserve", []string{"-workloads", "nope"}, 2},
		// -policy is not a flag of ftserve: refused, not ignored.
		{"ftserve unknown policy", "ftserve", []string{"-policy", "offline"}, 2},
		{"ftserve transpose odd lg", "ftserve", []string{"-n", "32", "-workloads", "transpose"}, 2},
		{"ftserve positional args", "ftserve", []string{"extra"}, 2},
		{"ftserve bad tenant name", "ftserve", []string{"-n", "16", "-tenants", "alpha,bad name"}, 2},
		{"ftserve duplicate tenants", "ftserve", []string{"-n", "16", "-tenants", "alpha,alpha"}, 2},
		{"ftserve tenants need one size", "ftserve", []string{"-n", "16,64", "-tenants", "alpha"}, 2},
		{"ftserve bad queue", "ftserve", []string{"-n", "16", "-tenants", "alpha", "-queue", "0"}, 2},
		{"ftserve bad span cap", "ftserve", []string{"-n", "16", "-tenants", "alpha", "-span-cap", "0"}, 2},
		{"ftload no tenants", "ftload", []string{"-requests", "10"}, 2},
		{"ftload no stop condition", "ftload", []string{"-tenants", "alpha"}, 2},
		{"ftload bad concurrency", "ftload", []string{"-tenants", "alpha", "-requests", "1", "-concurrency", "0"}, 2},
		{"ftload bad batch", "ftload", []string{"-tenants", "alpha", "-requests", "1", "-batch", "0"}, 2},
		{"ftload positional args", "ftload", []string{"-tenants", "alpha", "-requests", "1", "extra"}, 2},
		// The micro-benchmarks live in bench_test.go: -bench is refused.
		{"ftbench bench flag refused", "ftbench", []string{"-bench"}, 2},
		{"ftdesign bad n", "ftdesign", []string{"-n", "0", "-radix", "36", "-budget", "100"}, 2},
		{"ftdesign bad oversub", "ftdesign", []string{"-n", "64", "-radix", "36", "-budget", "100", "-oversub", "0.5"}, 2},
		{"ftdesign infeasible budget", "ftdesign", []string{"-n", "1024", "-radix", "36", "-budget", "1"}, 2},
		{"ftdesign infeasible radix", "ftdesign", []string{"-n", "1022", "-radix", "6", "-budget", "99999"}, 2},
		{"ftsim kary bad descriptor", "ftsim", []string{"-kary", "4;1;1;1;1"}, 2},
		{"ftsim kary offline policy", "ftsim", []string{"-kary", "4,4;1,1;1,1", "-policy", "offline"}, 2},
		{"ftsim kary partial switches", "ftsim", []string{"-kary", "4,4;1,1;1,1", "-switches", "partial"}, 2},
		{"ftbenchdiff no args", "ftbenchdiff", nil, 2},
		{"ftbenchdiff bad threshold", "ftbenchdiff", []string{"-threshold", "-1", "a.txt", "b.txt"}, 2},
		{"ftbenchdiff NaN threshold", "ftbenchdiff", []string{"-strict", "-threshold", "NaN", "a.txt", "b.txt"}, 2},
		{"ftbenchdiff Inf threshold", "ftbenchdiff", []string{"-strict", "-threshold", "+Inf", "a.txt", "b.txt"}, 2},

		// Runtime failures exit 1.
		{"ftsim missing schedule", "ftsim", []string{"-n", "16", "-load-schedule", "/nonexistent/s.json"}, 1},
		{"ftload unreachable server", "ftload", []string{"-addr", "127.0.0.1:9", "-tenants", "alpha",
			"-requests", "2", "-scrape", "0", "-timeout", "2s"}, 1},
		{"ftserve unlistenable addr", "ftserve", []string{"-addr", "256.256.256.256:0"}, 1},
		{"ftbenchdiff missing file", "ftbenchdiff", []string{"/nonexistent/a.txt", "/nonexistent/b.txt"}, 1},

		// Success exits 0.
		{"ftsim counters run", "ftsim", []string{"-n", "16", "-policy", "online", "-counters"}, 0},
		{"ftsim kary with implicit", "ftsim", []string{"-kary", "4,4;1,1;1,1", "-implicit", "-policy", "online", "-counters"}, 0},
		{"ftdesign good spec", "ftdesign", []string{"-n", "1024", "-radix", "36", "-budget", "60000"}, 0},
		{"ftsim kary greedy", "ftsim", []string{"-kary", "3,4;1,1;2,1", "-workload", "reversal", "-policy", "greedy"}, 0},
		{"ftsim binary kary partial switches", "ftsim", []string{"-kary", "2,2,2;2,2,1;1,1,1", "-switches", "partial", "-policy", "offline"}, 0},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			got, out := runCLIExit(t, c.bin, c.args...)
			if got != c.want {
				t.Errorf("%s %v: exit %d, want %d\noutput:\n%s", c.bin, c.args, got, c.want, out)
			}
			if got == 0 && slices.Contains(c.args, "-counters") {
				checkConservationLine(t, out)
			}
		})
	}
}

// checkConservationLine finds the -counters report's first line in out and
// checks the law it prints: offered = delivered + dropped + deferred.
func checkConservationLine(t *testing.T, out string) {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		var cycles, offered, delivered, dropped, deferred, retried int
		if n, _ := fmt.Sscanf(line, "observed %d cycles: offered %d = delivered %d + dropped %d + deferred %d (retried %d)",
			&cycles, &offered, &delivered, &dropped, &deferred, &retried); n == 6 {
			if offered == 0 || offered != delivered+dropped+deferred {
				t.Errorf("conservation line does not balance: %q", line)
			}
			return
		}
	}
	t.Errorf("no -counters conservation line in output:\n%s", out)
}

// TestSmokeTraceOut runs a real simulation with -trace-out/-trace-jsonl and
// verifies the chrome://tracing file is loadable — valid JSON whose
// traceEvents all carry the mandatory ph field — and that every JSONL line
// decodes to an event with a kind.
func TestSmokeTraceOut(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke test")
	}
	dir := t.TempDir()
	trace := filepath.Join(dir, "trace.json")
	jsonl := filepath.Join(dir, "trace.jsonl")
	out := runGo(t, "./cmd/ftsim",
		"-n", "32", "-policy", "online", "-counters",
		"-trace-out", trace, "-trace-jsonl", jsonl)
	for _, want := range []string{"observed", "chrome trace written", "event stream written"} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in output:\n%s", want, out)
		}
	}

	raw, err := os.ReadFile(trace)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph  string `json:"ph"`
			Pid *int   `json:"pid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace file has no traceEvents")
	}
	for i, ev := range doc.TraceEvents {
		if ev.Ph == "" || ev.Pid == nil {
			t.Fatalf("traceEvents[%d] missing mandatory ph/pid fields", i)
		}
	}

	lines, err := os.ReadFile(jsonl)
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(strings.TrimSpace(string(lines)), "\n") {
		var ev struct {
			Kind string `json:"kind"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("jsonl line %d: %v", i+1, err)
		}
		if ev.Kind == "" {
			t.Fatalf("jsonl line %d has no kind", i+1)
		}
	}
}

// TestSmokeTenantDrain drives the multi-tenant daemon end-to-end with the
// built binaries: ftserve starts in tenant mode on an ephemeral port, ftload
// pushes a bounded run of batched requests through /v1/route with every gate
// armed (conservation scrapes, exposition validation, the p99 SLO), and
// SIGTERM then drains the daemon to a clean exit 0.
func TestSmokeTenantDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke test")
	}
	serve := exec.Command(builtCLI(t, "ftserve"),
		"-addr", "127.0.0.1:0", "-n", "16", "-tenants", "alpha,beta", "-queue", "64")
	stdout, err := serve.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := serve.Start(); err != nil {
		t.Fatal(err)
	}
	defer serve.Process.Kill() // backstop for early t.Fatal paths; no-op after Wait

	// The first stdout line announces the listen address:
	//   ftserve: serving /v1/route on http://127.0.0.1:PORT (tree 16, ...)
	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		t.Fatalf("ftserve produced no output: %v", sc.Err())
	}
	first := sc.Text()
	i, j := strings.Index(first, "http://"), strings.Index(first, " (")
	if i < 0 || j < i {
		t.Fatalf("cannot parse listen address from %q", first)
	}
	addr := first[i:j]

	// Drain the rest of stdout concurrently; the shutdown message lands here.
	var outMu sync.Mutex
	var output strings.Builder
	output.WriteString(first + "\n")
	scanDone := make(chan struct{})
	go func() {
		defer close(scanDone)
		for sc.Scan() {
			outMu.Lock()
			output.WriteString(sc.Text() + "\n")
			outMu.Unlock()
		}
	}()

	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(addr + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("ftserve never became ready at %s", addr)
		}
		time.Sleep(50 * time.Millisecond)
	}

	code, out := runCLIExit(t, "ftload",
		"-addr", addr, "-tenants", "alpha,beta", "-requests", "400",
		"-batch", "25", "-concurrency", "4", "-scrape", "200ms", "-slo-p99", "10s")
	if code != 0 {
		t.Fatalf("ftload exit %d, want 0:\n%s", code, out)
	}
	if !strings.Contains(out, "all gates passed") {
		t.Errorf("ftload output missing gate verdict:\n%s", out)
	}

	if err := serve.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case <-scanDone:
	case <-time.After(10 * time.Second):
		t.Fatal("ftserve did not exit within 10s of SIGTERM")
	}
	if err := serve.Wait(); err != nil {
		t.Fatalf("ftserve exited non-zero after SIGTERM: %v", err)
	}
	outMu.Lock()
	got := output.String()
	outMu.Unlock()
	if !strings.Contains(got, "signal received, shutting down") {
		t.Errorf("missing graceful-drain message in ftserve output:\n%s", got)
	}
}

func TestSmokeExamples(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke test")
	}
	cases := []struct {
		target string
		want   string
	}{
		{"./examples/quickstart", "0 drops"},
		{"./examples/finiteelement", "bisection width"},
		{"./examples/netsim", "Theorem 10"},
		{"./examples/permutation", "Beneš"},
		{"./examples/apps", "fft"},
		{"./examples/io", "overlapped"},
	}
	for _, c := range cases {
		c := c
		t.Run(c.target, func(t *testing.T) {
			t.Parallel()
			out := runGo(t, c.target)
			if !strings.Contains(out, c.want) {
				t.Errorf("missing %q in output:\n%s", c.want, out)
			}
		})
	}
}
