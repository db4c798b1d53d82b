// Command ftbench regenerates every experiment table of EXPERIMENTS.md: one
// experiment per theorem, lemma, corollary and figure of the paper, plus the
// design ablations. Run it with no arguments for the full suite, or select
// experiments by id.
//
// Usage:
//
//	ftbench                 # full suite
//	ftbench -quick          # smaller sizes
//	ftbench -run E8,E9      # selected experiments
//	ftbench -list           # list experiment ids
//	ftbench -json           # experiment tables as JSON
//	ftbench -profile cpu,mem  # with pprof profiles of the run
//
// The delivery-cycle and scheduler micro-benchmarks are in bench_test.go at
// the repository root: `go test -run '^$' -bench . -benchmem`.
//
// Exit status: 0 success, 1 runtime failure, 2 usage error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"fattree/internal/experiments"
	"fattree/internal/metrics"
	"fattree/internal/obsv"
)

func main() {
	os.Exit(run())
}

func run() (code int) {
	quick := flag.Bool("quick", false, "run with reduced problem sizes")
	runIDs := flag.String("run", "", "comma-separated experiment ids (default all)")
	list := flag.Bool("list", false, "list experiments and exit")
	seed := flag.Int64("seed", 1, "random seed for all experiments")
	asJSON := flag.Bool("json", false, "emit results as JSON")
	profile := flag.String("profile", "", "comma-separated profiles to record: cpu|mem|trace")
	profileOut := flag.String("profile-out", "ftbench", "base path for -profile output files")
	flag.Parse()

	if *profile != "" {
		for _, k := range strings.Split(*profile, ",") {
			switch strings.TrimSpace(k) {
			case "cpu", "mem", "trace":
			default:
				fmt.Fprintf(os.Stderr, "ftbench: unknown -profile kind %q (want cpu|mem|trace)\n", k)
				return 2
			}
		}
		stop, err := obsv.StartProfiles(*profile, *profileOut)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ftbench: %v\n", err)
			return 1
		}
		defer func() {
			if err := stop(); err != nil {
				fmt.Fprintf(os.Stderr, "ftbench: %v\n", err)
				if code == 0 {
					code = 1
				}
				return
			}
			fmt.Printf("profiles written to %s.*\n", *profileOut)
		}()
	}

	all := experiments.All()
	if *list {
		for _, e := range all {
			fmt.Printf("%-4s %s (%s)\n", e.ID, e.Title, e.Source)
		}
		return 0
	}

	selected := all
	if *runIDs != "" {
		selected = nil
		for _, id := range strings.Split(*runIDs, ",") {
			e, ok := experiments.ByID(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "ftbench: unknown experiment %q (use -list)\n", id)
				return 2
			}
			selected = append(selected, e)
		}
	}

	opts := experiments.Options{Quick: *quick, Seed: *seed}
	if *asJSON {
		type jsonExperiment struct {
			ID     string           `json:"id"`
			Title  string           `json:"title"`
			Source string           `json:"source"`
			Tables []*metrics.Table `json:"tables"`
		}
		out := make([]jsonExperiment, 0, len(selected))
		for _, e := range selected {
			out = append(out, jsonExperiment{
				ID: e.ID, Title: e.Title, Source: e.Source, Tables: e.Run(opts),
			})
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(out); err != nil {
			fmt.Fprintf(os.Stderr, "ftbench: %v\n", err)
			return 1
		}
		return 0
	}

	start := time.Now()
	for _, e := range selected {
		t0 := time.Now()
		if err := e.RunAndPrint(os.Stdout, opts); err != nil {
			fmt.Fprintf(os.Stderr, "ftbench: %v\n", err)
			return 1
		}
		fmt.Printf("(%s took %v)\n\n", e.ID, time.Since(t0).Round(time.Millisecond))
	}
	fmt.Printf("suite complete: %d experiments in %v\n", len(selected), time.Since(start).Round(time.Millisecond))
	return 0
}
