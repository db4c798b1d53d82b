package main

import (
	"bytes"
	"context"
	"errors"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestQuantile(t *testing.T) {
	for _, tc := range []struct {
		sorted  []float64
		q, want float64
	}{
		{[]float64{5}, 0.25, 5},
		{[]float64{1, 2, 3, 4}, 0.5, 2.5},
		{[]float64{1, 2, 3, 4}, 0.25, 1.75},
		{[]float64{1, 2, 3, 4}, 0.75, 3.25},
		{[]float64{1, 2, 3, 4, 5}, 0.5, 3},
		{[]float64{1, 2, 3, 4, 5}, 1, 5},
		{[]float64{1, 2, 3, 4, 5}, 0, 1},
	} {
		if got := quantile(tc.sorted, tc.q); !near(got, tc.want) {
			t.Errorf("quantile(%v, %v) = %v, want %v", tc.sorted, tc.q, got, tc.want)
		}
	}
}

func TestSummarizeHigherIsBetter(t *testing.T) {
	spec := metricSpec{Name: "throughput_rps", Better: "higher", Bound: 0.25}
	base := []float64{100, 104, 96, 100}
	change := []float64{110, 103, 108, 112}
	s := summarize(spec, base, change)
	// Pair 2 (104 -> 103) is a loss; the rest are wins.
	if s.wins != 3 {
		t.Fatalf("wins = %d, want 3", s.wins)
	}
	if want := []float64{1.1, 103.0 / 104, 108.0 / 96, 1.12}; !reflect.DeepEqual(s.ratios, want) {
		t.Fatalf("ratios = %v, want %v", s.ratios, want)
	}
	// Base sorted 96 100 100 104: median 100, q1 99, q3 101.
	if !near(s.baseMedian, 100) || !near(s.baseQ1, 99) || !near(s.baseQ3, 101) {
		t.Fatalf("base median/q1/q3 = %v/%v/%v, want 100/99/101", s.baseMedian, s.baseQ1, s.baseQ3)
	}
	// Change sorted 103 108 110 112: median 109, gain +9 > IQR 2.
	if !near(s.changeMedian, 109) || !near(s.gain, 9) || !s.exceedsIQR || !s.withinBound {
		t.Fatalf("change median %v gain %v exceedsIQR %v withinBound %v, want 109, 9, true, true",
			s.changeMedian, s.gain, s.exceedsIQR, s.withinBound)
	}
}

func TestSummarizeLowerIsBetter(t *testing.T) {
	spec := metricSpec{Name: "latency_p50_ms", Better: "lower", Bound: 0.25}
	// The change is slower: 1.3 against 1.0, beyond the 25% bound.
	s := summarize(spec, []float64{1, 1, 1}, []float64{1.3, 1.3, 0.9})
	if s.wins != 1 || !near(s.gain, -0.3) || s.exceedsIQR || s.withinBound {
		t.Fatalf("wins %d gain %v exceedsIQR %v withinBound %v, want 1, -0.3, false, false",
			s.wins, s.gain, s.exceedsIQR, s.withinBound)
	}
	// Exactly at the bound is still within it; ties are not wins.
	s = summarize(spec, []float64{2, 2}, []float64{2.5, 2})
	if s.wins != 0 || !s.withinBound {
		t.Fatalf("wins %d withinBound %v, want 0, true", s.wins, s.withinBound)
	}
	// A gain equal to the base IQR does not exceed it.
	s = summarize(spec, []float64{1, 2, 3}, []float64{0, 1, 2})
	if !near(s.gain, 1) || !near(s.baseQ3-s.baseQ1, 1) || s.exceedsIQR {
		t.Fatalf("gain %v IQR %v exceedsIQR %v, want 1, 1, false", s.gain, s.baseQ3-s.baseQ1, s.exceedsIQR)
	}
}

func TestSessionOrder(t *testing.T) {
	var got strings.Builder
	for _, s := range sessionOrder(3) {
		if s.change {
			got.WriteString("B")
		} else {
			got.WriteString("A")
		}
	}
	if got.String() != "ABBAAB" {
		t.Fatalf("session order %s, want ABBAAB", got.String())
	}
}

func TestParseResult(t *testing.T) {
	ok := "table line\n{\"correct\":true,\"attempted\":9,\"failed\":0,\"metrics\":{\"throughput_rps\":{\"value\":812.5,\"unit\":\"1/s\"}}}\n"
	r, err := parseResult(ok)
	if err != nil || r.Metrics["throughput_rps"].Value != 812.5 {
		t.Fatalf("parseResult = %+v, %v", r, err)
	}
	for _, bad := range []string{
		"no json here",
		`{"correct":false,"attempted":9,"failed":0,"metrics":{}}`,
		`{"correct":true,"attempted":9,"failed":2,"metrics":{}}`,
	} {
		if _, err := parseResult(bad); err == nil {
			t.Errorf("parseResult(%q) accepted a failed run", bad)
		}
	}
}

func TestReadDecl(t *testing.T) {
	d, err := readDecl("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if d.RunSeconds <= 0 || len(d.EndToEnd) == 0 || d.EndToEnd[0].Name != "throughput_rps" || d.EndToEnd[0].Better != "higher" {
		t.Fatalf("declaration = %+v", d)
	}
	for _, bad := range []string{
		`{"run_seconds":40,"end_to_end":[{"name":"x","better":"up"}]}`,
		`{"run_seconds":0,"end_to_end":[{"name":"x","better":"higher"}]}`,
		`{"run_seconds":40,"end_to_end":[]}`,
	} {
		path := filepath.Join(t.TempDir(), "b.json")
		if err := os.WriteFile(path, []byte(bad), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := readDecl(path); err == nil {
			t.Errorf("readDecl accepted %s", bad)
		}
	}
}

func TestUsageErrors(t *testing.T) {
	for _, args := range [][]string{
		{},
		{"-workload", "sim-implicit"},
		{"-base", "HEAD", "-base-dir", ".", "-workload", "sim-implicit"},
		{"-base", "HEAD"},
		{"-base", "HEAD", "-workload", "sim-implicit", "-pairs", "0"},
		{"-nope"},
	} {
		var out, errb bytes.Buffer
		if err := run(context.Background(), args, &out, &errb); !errors.Is(err, errUsage) {
			t.Errorf("run(%v) = %v, want a usage error", args, err)
		}
	}
}

// TestWorktree adds and removes a worktree of a throwaway repository, with
// an ignored build directory left inside it, as a benchmark run leaves one.
func TestWorktree(t *testing.T) {
	if _, err := exec.LookPath("git"); err != nil {
		t.Skip("git not installed")
	}
	repo := t.TempDir()
	git := func(args ...string) {
		t.Helper()
		cmd := exec.Command("git", args...)
		cmd.Dir = repo
		cmd.Env = append(os.Environ(), "GIT_AUTHOR_NAME=t", "GIT_AUTHOR_EMAIL=t@t", "GIT_COMMITTER_NAME=t", "GIT_COMMITTER_EMAIL=t@t")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("git %v: %v\n%s", args, err, out)
		}
	}
	git("init", "-q")
	if err := os.WriteFile(filepath.Join(repo, ".gitignore"), []byte(".bench_build/\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	git("add", ".gitignore")
	git("commit", "-q", "-m", "init")

	dir := filepath.Join(t.TempDir(), "base")
	if err := addWorktree(context.Background(), repo, dir, "HEAD"); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Join(dir, ".bench_build", "gocache"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, ".bench_build", "gocache", "x"), []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := removeWorktree(repo, dir); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(dir); !os.IsNotExist(err) {
		t.Fatalf("worktree directory still there after removal: %v", err)
	}
	cmd := exec.Command("git", "worktree", "list", "--porcelain")
	cmd.Dir = repo
	out, err := cmd.Output()
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(out), "worktree "); n != 1 {
		t.Fatalf("git worktree list shows %d worktrees after removal, want 1:\n%s", n, out)
	}
}
