// Command ftsim runs a single delivery experiment on a fat-tree: choose a
// topology, a workload, a scheduling policy and a switch implementation, and
// it reports delivery cycles, drops, load factor, the theoretical bounds, and
// the bit-serial time.
//
// Usage examples:
//
//	ftsim -n 256 -w 64 -workload bitrev -policy offline
//	ftsim -n 1024 -w 1024 -workload perm -policy online -switches partial
//	ftsim -n 256 -w 32 -workload local -k 2048 -radius 4 -policy offlinebig
//	ftsim -n 256 -counters -trace-out trace.json   # open in chrome://tracing
//	ftsim -implicit -n 1048576 -workload random -k 16384 -policy online
//	ftsim -kary "8,4;2,1;1,2" -workload random -policy online
//
// Exit status: 0 success, 1 runtime failure, 2 usage error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"fattree"
	"fattree/internal/core"
	"fattree/internal/viz"
)

func main() {
	n := flag.Int("n", 256, "number of processors (power of two)")
	w := flag.Int("w", 0, "root capacity (default n/4)")
	implicit := flag.Bool("implicit", false,
		"keep no per-node state: attach the per-level observer and skip the -viz walkers, so -n can reach 2^20 in bounded memory")
	kary := flag.String("kary", "",
		"simulate a k-ary fat-tree instead of the binary universal profile: \"down;up;parallel[;root]\" with one comma-separated entry per tier, e.g. \"8,4;2,1;1,2\" (overrides -n and -w; a non-binary descriptor requires ideal switches and -policy greedy|online)")
	workloadName := flag.String("workload", "perm", "workload: perm|random|bitrev|transpose|shuffle|reversal|local|hotspot|nn|alltoall")
	k := flag.Int("k", 0, "message count for random/local/hotspot (default 4n)")
	radius := flag.Int("radius", 4, "radius for -workload local")
	seed := flag.Int64("seed", 1, "random seed")
	policy := flag.String("policy", "offline", "delivery policy: offline|offlinebig|greedy|online")
	switches := flag.String("switches", "ideal", "concentrator kind: ideal|partial")
	payload := flag.Int("payload", 32, "payload bits per message (bit-serial timing)")
	showViz := flag.Bool("viz", false, "render per-level utilization bars and schedule occupancy")
	saveSchedule := flag.String("save-schedule", "", "write the compiled schedule to this file (JSON)")
	loadSchedule := flag.String("load-schedule", "", "load a precompiled schedule instead of scheduling")
	counters := flag.Bool("counters", false, "print the per-level observability counter report after the run")
	hist := flag.Bool("hist", false, "print latency/congestion histogram summaries after the run")
	histJSON := flag.String("hist-json", "", "write the full observability snapshot (counters + histograms) as JSON to this file")
	traceOut := flag.String("trace-out", "", "write a chrome://tracing trace_event JSON file of the run")
	traceJSONL := flag.String("trace-jsonl", "", "write the raw event stream as JSON Lines")
	traceCap := flag.Int("trace-cap", 1<<16, "event ring capacity for -trace-out/-trace-jsonl (oldest events overwritten)")
	profile := flag.String("profile", "", "comma-separated profiles to record: cpu|mem|trace")
	profileOut := flag.String("profile-out", "ftsim", "base path for -profile output files")
	flag.Parse()

	var karyDesc fattree.KaryDesc
	if *kary != "" {
		var err error
		karyDesc, err = parseKaryDesc(*kary)
		if err != nil {
			usage("bad -kary descriptor: %v", err)
		}
		*n = 1
		for _, d := range karyDesc.Down {
			*n *= d
		}
	} else if *n < 2 || *n&(*n-1) != 0 {
		usage("-n must be a power of two >= 2 (got %d)", *n)
	}
	if *kary != "" && *n&(*n-1) != 0 {
		switch *workloadName {
		case "bitrev", "transpose", "shuffle":
			usage("-workload %s needs a power-of-two processor count; this -kary descriptor has n=%d", *workloadName, *n)
		}
	}
	if *w == 0 {
		*w = *n / 4
		if *w < 1 {
			*w = 1
		}
	}
	if *k == 0 {
		*k = 4 * *n
	}

	var obs *fattree.Observer
	var stopProfiles func() error

	// Every binary tree, -kary ones included, routes on the streaming plane
	// and takes the Theorem 1 scheduler and partial switches; other arities
	// take neither. Under -implicit the two visualizations that walk
	// per-node state are skipped (they would build exactly the O(n) tables
	// -implicit exists to avoid): vizTree stays nil. It stays nil for a
	// non-binary tree too (the viz walkers are binary).
	var ft *fattree.FatTree
	if *kary != "" {
		ft = fattree.NewKary(karyDesc)
	} else {
		ft = fattree.NewUniversal(*n, *w)
	}
	binary := core.HeapIndexed(ft)
	if !binary {
		switch *policy {
		case "offline", "offlinebig":
			usage("-policy %s needs the binary Theorem 1 scheduler; use -policy greedy or online with a non-binary -kary", *policy)
		}
		if *switches == "partial" {
			usage("-switches partial models the binary Section IV hardware; non-binary k-ary topologies route with ideal switches")
		}
	}
	var vizTree *fattree.FatTree
	if binary && !*implicit {
		vizTree = ft
	}
	ms := buildWorkload(*workloadName, *n, *k, *radius, *seed)
	lam := fattree.LoadFactor(ft, ms)
	kindNote := ""
	if *implicit {
		kindNote = " (implicit)"
	}
	if *kary != "" {
		kindNote = fmt.Sprintf(" (k-ary %s)", *kary)
	}
	fmt.Printf("fat-tree n=%d w=%d%s   workload %s: %d messages, λ = %.2f (lower bound on cycles)\n",
		*n, ft.RootCapacity(), kindNote, *workloadName, len(ms), lam)
	if *showViz {
		switch {
		case vizTree != nil:
			viz.Utilization(os.Stdout, vizTree, ms)
		case !binary:
			fmt.Println("(-viz utilization bars are drawn for binary trees only; skipped for this non-binary tree)")
		default:
			fmt.Println("(-viz utilization bars walk per-node state; skipped under -implicit)")
		}
	}

	kind := fattree.SwitchIdeal
	if *switches == "partial" {
		kind = fattree.SwitchPartial
	} else if *switches != "ideal" {
		usage("unknown -switches %q", *switches)
	}

	if *counters || *hist || *histJSON != "" || *traceOut != "" || *traceJSONL != "" {
		// The per-level observer folds per-node counters into per-level
		// arrays — O(levels) instead of O(n), required at -implicit scales.
		if *implicit {
			obs = fattree.NewObserverCompact(ft)
		} else {
			obs = fattree.NewObserver(ft)
		}
		if *traceOut != "" || *traceJSONL != "" {
			if *traceCap < 1 {
				usage("-trace-cap must be >= 1 (got %d)", *traceCap)
			}
			obs.EnableTrace(*traceCap)
		}
	}
	if *profile != "" {
		for _, k := range strings.Split(*profile, ",") {
			switch strings.TrimSpace(k) {
			case "cpu", "mem", "trace":
			default:
				usage("unknown -profile kind %q (want cpu|mem|trace)", k)
			}
		}
		var err error
		stopProfiles, err = fattree.StartProfiles(*profile, *profileOut)
		if err != nil {
			fail("%v", err)
		}
	}

	engine := fattree.NewEngineWithOptions(ft, kind, *seed, fattree.Options{Observer: obs})

	var stats fattree.Stats
	var cycles []fattree.MessageSet
	switch *policy {
	case "offline", "offlinebig", "greedy":
		var s *fattree.Schedule
		if *loadSchedule != "" {
			f, err := os.Open(*loadSchedule)
			if err != nil {
				fail("%v", err)
			}
			s, err = fattree.ReadSchedule(f, ft)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				fail("%v", err)
			}
			fmt.Printf("loaded precompiled schedule from %s\n", *loadSchedule)
		} else {
			switch *policy {
			case "offline":
				s = fattree.ScheduleOffline(ft, ms)
			case "offlinebig":
				s = fattree.ScheduleOfflineBig(ft, ms)
			default:
				s = fattree.ScheduleGreedy(ft, ms)
			}
		}
		if err := s.Verify(ms); err != nil {
			fail("schedule invalid: %v", err)
		}
		if *saveSchedule != "" {
			f, err := os.Create(*saveSchedule)
			if err != nil {
				fail("%v", err)
			}
			if _, err := s.WriteTo(f); err != nil {
				fail("writing schedule: %v", err)
			}
			// A close error on the write path means lost buffered data.
			if err := f.Close(); err != nil {
				fail("writing schedule: %v", err)
			}
			fmt.Printf("schedule written to %s\n", *saveSchedule)
		}
		fmt.Printf("schedule: %d delivery cycles (bound %.1f, utilization %.2f)\n",
			s.Length(), s.Bound, s.Utilization())
		if *showViz {
			switch {
			case vizTree != nil:
				viz.ScheduleGantt(os.Stdout, vizTree, s.Cycles)
			case !binary:
				fmt.Println("(-viz schedule Gantt is drawn for binary trees only; skipped for this non-binary tree)")
			default:
				fmt.Println("(-viz schedule Gantt walks per-node state; skipped under -implicit)")
			}
		}
		stats = fattree.RunSchedule(engine, s)
		cycles = s.Cycles
	case "online":
		stats = fattree.RunOnline(engine, ms)
		if *showViz {
			viz.CycleProfile(os.Stdout, stats.PerCycle)
		}
	default:
		usage("unknown -policy %q", *policy)
	}

	fmt.Printf("delivered %d/%d in %d cycles, %d drops, %d deferrals\n",
		stats.Delivered, len(ms), stats.Cycles, stats.Drops, stats.Deferrals)
	if cycles != nil {
		fmt.Printf("bit-serial time: %d ticks total (payload %d bits, max cycle %d ticks)\n",
			fattree.ScheduleTicks(ft, cycles, *payload), *payload, fattree.MaxCycleTicks(ft, *payload))
	} else {
		fmt.Printf("bit-serial time: <= %d ticks (%d cycles × %d ticks/cycle)\n",
			stats.Cycles*fattree.MaxCycleTicks(ft, *payload), stats.Cycles, fattree.MaxCycleTicks(ft, *payload))
	}

	if stopProfiles != nil {
		if err := stopProfiles(); err != nil {
			fail("%v", err)
		}
		fmt.Printf("profiles written to %s.*\n", *profileOut)
	}
	if *counters {
		fmt.Println()
		if err := obs.Report(os.Stdout); err != nil {
			fail("%v", err)
		}
	}
	if *hist {
		fmt.Println()
		if err := obs.Snapshot().WriteHistSummary(os.Stdout); err != nil {
			fail("%v", err)
		}
	}
	if *histJSON != "" {
		snap := obs.Snapshot()
		writeFile(*histJSON, func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(snap)
		})
		fmt.Printf("observability snapshot written to %s\n", *histJSON)
	}
	if *traceOut != "" {
		writeFile(*traceOut, obs.WriteChromeTrace)
		fmt.Printf("chrome trace written to %s (open via chrome://tracing or ui.perfetto.dev)\n", *traceOut)
	}
	if *traceJSONL != "" {
		writeFile(*traceJSONL, obs.WriteJSONL)
		fmt.Printf("event stream written to %s\n", *traceJSONL)
	}
}

// writeFile creates path and streams write's output into it, failing the run
// on any error (a close error on the write path means lost buffered data).
func writeFile(path string, write func(io.Writer) error) {
	f, err := os.Create(path)
	if err != nil {
		fail("%v", err)
	}
	err = write(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fail("writing %s: %v", path, err)
	}
}

func buildWorkload(name string, n, k, radius int, seed int64) fattree.MessageSet {
	switch name {
	case "perm":
		return fattree.RandomPermutation(n, seed)
	case "random":
		return fattree.Random(n, k, seed)
	case "bitrev":
		return fattree.BitReversal(n)
	case "transpose":
		return fattree.Transpose(n)
	case "shuffle":
		return fattree.Shuffle(n)
	case "reversal":
		return fattree.Reversal(n)
	case "local":
		return fattree.KLocal(n, k, radius, seed)
	case "hotspot":
		return fattree.HotSpot(n, k, seed)
	case "nn":
		return fattree.NearestNeighbor(n)
	case "alltoall":
		return fattree.AllToAll(n)
	}
	usage("unknown -workload %q", name)
	return nil
}

// parseKaryDesc parses the -kary descriptor "down;up;parallel[;root]": three
// (or four) semicolon-separated fields, the first three comma-separated lists
// with one entry per tier, the optional fourth the root channel capacity.
func parseKaryDesc(s string) (fattree.KaryDesc, error) {
	var d fattree.KaryDesc
	fields := strings.Split(s, ";")
	if len(fields) != 3 && len(fields) != 4 {
		return d, fmt.Errorf("want \"down;up;parallel[;root]\", got %d field(s)", len(fields))
	}
	parseList := func(name, field string) ([]int, error) {
		parts := strings.Split(field, ",")
		out := make([]int, 0, len(parts))
		for _, p := range parts {
			var v int
			if _, err := fmt.Sscanf(strings.TrimSpace(p), "%d", &v); err != nil {
				return nil, fmt.Errorf("%s entry %q is not an integer", name, p)
			}
			out = append(out, v)
		}
		return out, nil
	}
	var err error
	if d.Down, err = parseList("down", fields[0]); err != nil {
		return d, err
	}
	if d.Up, err = parseList("up", fields[1]); err != nil {
		return d, err
	}
	if d.Parallel, err = parseList("parallel", fields[2]); err != nil {
		return d, err
	}
	if len(d.Up) != len(d.Down) || len(d.Parallel) != len(d.Down) {
		return d, fmt.Errorf("tier counts disagree: down=%d up=%d parallel=%d",
			len(d.Down), len(d.Up), len(d.Parallel))
	}
	if len(fields) == 4 {
		if _, err := fmt.Sscanf(strings.TrimSpace(fields[3]), "%d", &d.Root); err != nil {
			return d, fmt.Errorf("root entry %q is not an integer", fields[3])
		}
	}
	for i, v := range d.Down {
		if v < 2 {
			return d, fmt.Errorf("down[%d] = %d; every tier needs >= 2 children", i, v)
		}
		if d.Up[i] < 1 || d.Parallel[i] < 1 {
			return d, fmt.Errorf("up[%d]/parallel[%d] must be >= 1", i, i)
		}
	}
	if d.Root < 0 {
		return d, fmt.Errorf("root capacity %d must be >= 0", d.Root)
	}
	return d, nil
}

// usage reports a command-line mistake (bad flag value) and exits 2; fail
// reports a runtime failure (I/O, invalid schedule) and exits 1 — the exit
// convention shared by every CLI in this repository.
func usage(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "ftsim: "+format+"\n", args...)
	os.Exit(2)
}

func fail(format string, args ...interface{}) {
	fmt.Fprintf(os.Stderr, "ftsim: "+format+"\n", args...)
	os.Exit(1)
}
