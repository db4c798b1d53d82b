// Command ftbenchpair runs the repository benchmark (perfbench/run.sh) on
// two trees in alternating pairs and reports, per end-to-end metric, how the
// working tree compares with a base revision.
//
// The base revision is checked out into a temporary git worktree, removed
// again on exit. Each tree runs its own perfbench/run.sh, so each is
// measured by the benchmark program it was committed with. Sessions go in
// A, B, B, A order (A the base, B the working tree), pair after pair, so a
// drift in host load falls on both sides alike. Per metric of
// BENCHMARK.json's end_to_end list it prints each pair's change/base ratio,
// the number of pairs the change won, the base's median and quartiles, and
// whether the change's median gain exceeds the base's interquartile range.
//
// Every run lasts BENCHMARK.json's run_seconds and uses one -seed.
//
// Usage, from the repository root:
//
//	ftbenchpair -base HEAD~1 -workload sim-implicit -pairs 10
//	ftbenchpair -base-dir /path/to/base/checkout -workload route-small
//
// -base-dir measures an existing checkout of the base instead of making a
// worktree: a tree that is not a commit of this repository, or one a
// worktree cannot be made for. Exit status: 0 with a report, 1 when a run
// fails or is not correct, 2 usage error. The report is not a verdict:
// read the wins and the gain against the base's spread.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	err := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "ftbenchpair:", err)
		if errors.Is(err, errUsage) {
			os.Exit(2)
		}
		os.Exit(1)
	}
}

// errUsage marks a command line that names no valid comparison.
var errUsage = errors.New("usage: ftbenchpair (-base rev | -base-dir dir) -workload w [-pairs k] [-seed s]")

type options struct {
	base, baseDir, workload string
	pairs                   int
	seed                    int64
}

// run parses args and runs the comparison; flag errors go to stderr.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) error {
	var o options
	fs := flag.NewFlagSet("ftbenchpair", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.base, "base", "", "base revision, checked out into a temporary git worktree")
	fs.StringVar(&o.baseDir, "base-dir", "", "existing checkout of the base (instead of -base)")
	fs.StringVar(&o.workload, "workload", "", "perfbench workload (see BENCHMARK.json)")
	fs.IntVar(&o.pairs, "pairs", 10, "pairs of runs; a pair is one base and one change run")
	fs.Int64Var(&o.seed, "seed", 1, "perfbench input seed, the same for every run")
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%w: %v", errUsage, err)
	}
	if (o.base == "") == (o.baseDir == "") || o.workload == "" || o.pairs < 1 || fs.NArg() > 0 {
		return fmt.Errorf("%w: want exactly one of -base and -base-dir, a -workload and -pairs >= 1", errUsage)
	}
	return pair(ctx, o, stdout, stderr)
}

// pair prepares the base tree, runs the sessions and prints the summary.
func pair(ctx context.Context, o options, stdout, stderr io.Writer) (err error) {
	decl, err := readDecl("BENCHMARK.json")
	if err != nil {
		return err
	}
	specs := decl.EndToEnd
	change, err := os.Getwd()
	if err != nil {
		return err
	}
	base := o.baseDir
	if base == "" {
		tmp, err := os.MkdirTemp("", "ftbenchpair-")
		if err != nil {
			return err
		}
		base = filepath.Join(tmp, "base")
		if err := addWorktree(ctx, change, base, o.base); err != nil {
			return errors.Join(err, os.RemoveAll(tmp))
		}
		defer func() {
			err = errors.Join(err, removeWorktree(change, base), os.RemoveAll(tmp))
		}()
	}
	if _, err := fmt.Fprintf(stdout, "base %s, change %s: %s, seed %d, %g s per run, %d pairs\n",
		base, change, o.workload, o.seed, decl.RunSeconds, o.pairs); err != nil {
		return err
	}

	runArgs := []string{"perfbench/run.sh", "--workload", o.workload,
		"--seed", strconv.FormatInt(o.seed, 10), "--seconds", strconv.FormatFloat(decl.RunSeconds, 'g', -1, 64), "--trace", "0"}
	values := map[string][2][]float64{} // metric -> base runs, change runs
	for _, s := range sessionOrder(o.pairs) {
		dir, name := base, "A"
		if s.change {
			dir, name = change, "B"
		}
		cmd := exec.CommandContext(ctx, "bash", runArgs...)
		cmd.Dir = dir
		cmd.Stderr = stderr
		out, err := cmd.Output()
		if err != nil {
			return fmt.Errorf("pair %d %s: %w", s.pair+1, name, err)
		}
		r, err := parseResult(string(out))
		if err != nil {
			return fmt.Errorf("pair %d %s: %w", s.pair+1, name, err)
		}
		var line strings.Builder
		fmt.Fprintf(&line, "pair %d %s:", s.pair+1, name)
		for _, spec := range specs {
			m, ok := r.Metrics[spec.Name]
			if !ok {
				return fmt.Errorf("pair %d %s: metric %s missing from the result line", s.pair+1, name, spec.Name)
			}
			v := values[spec.Name]
			side := 0
			if s.change {
				side = 1
			}
			v[side] = append(v[side], m.Value)
			values[spec.Name] = v
			fmt.Fprintf(&line, " %s=%.4g", spec.Name, m.Value)
		}
		if _, err := fmt.Fprintln(stdout, line.String()); err != nil {
			return err
		}
	}
	sums := make([]summary, len(specs))
	for i, spec := range specs {
		v := values[spec.Name]
		sums[i] = summarize(spec, v[0], v[1])
	}
	return writeSummary(stdout, sums)
}

// session is one benchmark run: its pair and its tree.
type session struct {
	pair   int
	change bool
}

// sessionOrder lists the runs of k pairs in A, B, B, A order: even pairs
// run the base first, odd pairs the change first.
func sessionOrder(k int) []session {
	out := make([]session, 0, 2*k)
	for p := 0; p < k; p++ {
		first := p%2 == 1
		out = append(out, session{p, first}, session{p, !first})
	}
	return out
}

// addWorktree checks rev out, detached, into a new worktree at dir of the
// repository at repo.
func addWorktree(ctx context.Context, repo, dir, rev string) error {
	cmd := exec.CommandContext(ctx, "git", "worktree", "add", "--detach", dir, rev)
	cmd.Dir = repo
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("git worktree add %s: %w\n%s", rev, err, out)
	}
	return nil
}

// removeWorktree deletes the worktree at dir, build outputs included, and
// its administrative entry in the repository at repo.
func removeWorktree(repo, dir string) error {
	cmd := exec.Command("git", "worktree", "remove", "--force", dir)
	cmd.Dir = repo
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("git worktree remove: %w\n%s", err, out)
	}
	return nil
}
