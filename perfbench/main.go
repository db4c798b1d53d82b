// Command perfbench is the repository benchmark. It drives one workload for
// a fixed time and prints, as the last line of standard output, one JSON
// object: whether every output was correct, operations attempted and
// failed, and the metrics of the run — the end-to-end metrics by default,
// or with --trace 1 the per-layer ledger of a separately traced run.
//
// Workloads (README.md explains why each exists):
//
//	route-small   ftserve -tenants a,b -n 64; named perm requests, alternating tenants
//	sim-implicit  RunOnline on a 2^20-endpoint implicit tree, in a child process
//
// Run it through run.sh, which builds this program and cmd/ftserve first
// and pins the benchmark to one CPU:
//
//	bash perfbench/run.sh --workload route-small --seed 7 --seconds 40 --trace 0
//
// Exit status: 0 with a result line, 1 on any error (no result line).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics a user of the system sees, reported by every
// untraced run on every workload.
var endToEnd = []metricSpec{
	{"throughput_rps", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p99_ms", "ms"},
	{"setup_s", "s"},
	{"mem_peak_mb", "MiB"},
}

// perLayer is the traced run's ledger. A layer a workload never reaches
// reports 0 with 0 samples (README.md maps each metric to its workload).
var perLayer = []metricSpec{
	{"rim.handler_us_p50", "us"},
	{"rim.respond_us_p50", "us"},
	{"rim.transport_us_p50", "us"},
	{"rim.body_kb_per_req", "KiB"},
	{"queue.wait_us_p50", "us"},
	{"queue.wait_us_p99", "us"},
	{"queue.rejected", "count"},
	{"engine.ms_p50", "ms"},
	{"engine.ms_p99", "ms"},
	{"engine.cycles_per_req", "count"},
	{"engine.offers_per_req", "count"},
	{"engine.retry_ratio", "ratio"},
	{"engine.delivered_ratio", "ratio"},
	{"engine.ns_per_offer", "ns"},
	{"switch.requests_per_req", "count"},
	{"switch.grant_ratio", "ratio"},
	{"workload.build_us", "us"},
	{"core.validate_us", "us"},
	{"sim.serve_ms", "ms"},
	{"sim.cycle_us", "us"},
	{"stream.cycles_per_call", "count"},
	{"stream.ns_per_offer", "ns"},
	{"stream.allocs_per_call", "count"},
	{"stream.bytes_per_endpoint", "B"},
	{"obsv.scrape_ms", "ms"},
	{"obsv.scrape_kb", "KiB"},
	{"server.allocs_per_req", "count"},
	{"server.alloc_kb_per_req", "KiB"},
	{"server.gc_per_1k_req", "count"},
	{"server.cpu_us_per_req", "us"},
	{"trace.overhead_pct", "%"},
	{"trace.residual_pct", "%"},
	{"host.steal_ms", "ms"},
}

// entry is one measured value and the number of samples behind it.
type entry struct {
	Value   float64 `json:"value"`
	Samples int     `json:"samples"`
}

// ledger collects a run's metrics by name.
type ledger map[string]entry

func (l ledger) set(name string, v float64, samples int) { l[name] = entry{v, samples} }

// setPercentile records the num/den percentile of xs under name when the
// percentile rule allows it, and reports whether it did.
func (l ledger) setPercentile(name string, xs []float64, num, den int) bool {
	v, ok := percentile(sorted(xs), num, den)
	if ok {
		l.set(name, v, len(xs))
	}
	return ok
}

// tally counts operations attempted and failed, keeping the first few
// failure reasons for standard error.
type tally struct {
	attempted, failed int64
	reasons           []string
}

// check records one operation; ok false counts it as failed with why.
func (t *tally) check(ok bool, format string, args ...any) {
	t.attempted++
	if !ok {
		t.fail(format, args...)
	}
}

// fail records a failure of an operation already counted as attempted.
func (t *tally) fail(format string, args ...any) {
	t.failed++
	if len(t.reasons) < 10 {
		t.reasons = append(t.reasons, fmt.Sprintf(format, args...))
	}
}

// options are the command line of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	out      string // directory holding ftserve and receiving trace files
	cpu      int    // the CPU the benchmark runs on
}

// steal returns the cumulative steal time (s) of the benchmark's CPU.
func (o options) steal() float64 { return cpuSteal(fmt.Sprintf("cpu%d", o.cpu)) }

func main() {
	var o options
	var traceFlag int
	var child bool
	var slice int
	flag.StringVar(&o.workload, "workload", "", "route-small | sim-implicit")
	flag.Int64Var(&o.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	flag.Float64Var(&o.seconds, "seconds", 30, "measured seconds")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting the per-layer ledger")
	flag.StringVar(&o.out, "out", ".bench_build", "build directory holding ftserve; trace files land here")
	flag.BoolVar(&child, "sim-child", false, "internal: run as a sim-implicit worker process")
	flag.IntVar(&slice, "slice", 0, "internal: session index of a child process")
	flag.Parse()
	o.trace = traceFlag == 1
	if (traceFlag != 0 && traceFlag != 1) || o.seconds <= 0 || flag.NArg() > 0 {
		fatal(fmt.Errorf("usage: perfbench --workload W --seed N --seconds S --trace 0|1"))
	}
	var err error
	if o.cpu, err = benchCPU(); err != nil {
		fatal(err)
	}
	if child {
		if err := runSimChild(o, slice); err != nil {
			fatal(err)
		}
		return
	}

	stealBefore := o.steal()
	var l ledger
	var t *tally
	switch o.workload {
	case "route-small":
		l, t, err = runRoute(routeSmall, o)
	case "sim-implicit":
		l, t, err = runSim(o)
	default:
		err = fmt.Errorf("unknown --workload %q (want route-small | sim-implicit)", o.workload)
	}
	if err != nil {
		fatal(err)
	}
	steal := o.steal() - stealBefore
	l.set("host.steal_ms", steal*1e3, 1)
	fmt.Printf("host: num_cpu=%d bench_cpu=%d gomaxprocs=%d go=%s steal_ms=%.1f\n",
		machineCPUs(), o.cpu, runtime.GOMAXPROCS(0), runtime.Version(), steal*1e3)
	for _, r := range t.reasons {
		fmt.Fprintln(os.Stderr, "perfbench: failed:", r)
	}
	if err := report(l, t, o.trace); err != nil {
		fatal(err)
	}
}

// report prints the ledger as a table, then the result line. An untraced
// run that could not fill every end-to-end metric is an error: a missing
// p99 means the run was too short for the percentile rule.
func report(l ledger, t *tally, traced bool) error {
	specs := endToEnd
	if traced {
		specs = perLayer
	}
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{t.failed == 0 && t.attempted > 0, t.attempted, t.failed, map[string]metric{}}
	names := make([]string, 0, len(l))
	for name := range l {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Printf("%-28s %14.4f  samples=%d\n", name, l[name].Value, l[name].Samples)
	}
	for _, s := range specs {
		e, ok := l[s.name]
		if !ok && !traced {
			return fmt.Errorf("%s was not measured (too few samples for the percentile rule? raise --seconds)", s.name)
		}
		out.Metrics[s.name] = metric{e.Value, s.unit}
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// benchClock returns a monotonic nanosecond clock starting now.
func benchClock() func() int64 {
	epoch := time.Now()
	return func() int64 { return int64(time.Since(epoch)) }
}

// tracePath names the Chrome trace_event file of a traced run.
func tracePath(o options) string {
	return filepath.Join(o.out, fmt.Sprintf("trace-%s-seed%d.json", o.workload, o.seed))
}
