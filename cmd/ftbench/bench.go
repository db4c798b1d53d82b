package main

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"fattree"
)

// This file is ftbench's micro-benchmark mode (-bench): the delivery-cycle
// and off-line-scheduler benchmarks tracked by EXPERIMENTS.md §A4, measured
// with the standard testing.Benchmark harness and emitted as a table or, with
// -json, as machine-readable records (make bench-json writes BENCH_6.json).
// The benchmark bodies mirror BenchmarkRouteCycleSerial,
// BenchmarkRouteCycleImplicit and BenchmarkOffLineSchedule in bench_test.go
// so the two entry points measure the same work. With -hist, the serial delivery cycle additionally runs with
// an observer attached and the resulting latency/congestion histograms are
// reported (text) or embedded per record (JSON).

// benchMeta records where and when a benchmark snapshot was taken, so
// BENCH_*.json files are comparable across machines and PRs (ftbenchdiff
// prints both sides' meta before the numbers).
type benchMeta struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	Timestamp  string `json:"timestamp_utc"`
}

func currentBenchMeta() benchMeta {
	return benchMeta{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Timestamp:  time.Now().UTC().Format(time.RFC3339),
	}
}

// benchResult is one micro-benchmark measurement. Hist is only set for the
// observed serial delivery cycle under -hist; BytesPerEndpoint only for the
// RouteCycleImplicit rows, where the retained-heap footprint per endpoint is
// the tracked figure (2^20 endpoints in bounded memory).
type benchResult struct {
	Name             string                `json:"name"`
	N                int                   `json:"n"`
	Iterations       int                   `json:"iterations"`
	NsPerOp          float64               `json:"ns_per_op"`
	BytesPerOp       int64                 `json:"bytes_per_op"`
	AllocsPerOp      int64                 `json:"allocs_per_op"`
	BytesPerEndpoint float64               `json:"bytes_per_endpoint,omitempty"`
	Hist             *fattree.ObsvSnapshot `json:"hist,omitempty"`
}

// benchDoc is the -json output shape since PR 5. ftbenchdiff also accepts
// the bare []benchResult array emitted before the meta header existed.
type benchDoc struct {
	Meta       benchMeta     `json:"meta"`
	Benchmarks []benchResult `json:"benchmarks"`
}

// benchSizes are the processor counts every micro-benchmark runs at.
var benchSizes = []int{256, 1024, 4096}

// implicitBenchSizes are the large-n rows of the streaming engine, which
// keeps no per-node state, so the rows also pin its retained bytes per
// endpoint.
var implicitBenchSizes = []int{1 << 16, 1 << 18, 1 << 20}

// runMicroBenchmarks measures the suite and writes it to stdout.
func runMicroBenchmarks(asJSON, withHist bool) error {
	var results []benchResult
	for _, n := range benchSizes {
		var obs *fattree.Observer
		if withHist {
			// Same deterministic topology the benchmark builds internally.
			obs = fattree.NewObserver(fattree.NewUniversal(n, n/4))
		}
		serial := measureBench("RouteCycleSerial", n, routeCycleBench(n, obs))
		if obs != nil {
			snap := obs.Snapshot()
			serial.Hist = &snap
		}
		results = append(results,
			serial,
			measureBench("OffLineSchedule", n, offLineBench(n)),
		)
	}
	for _, n := range implicitBenchSizes {
		results = append(results, implicitRouteBench(n))
	}
	if asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(benchDoc{Meta: currentBenchMeta(), Benchmarks: results})
	}
	fmt.Printf("%-22s %8s %14s %12s %12s %12s\n",
		"benchmark", "n", "ns/op", "B/op", "allocs/op", "B/endpoint")
	for _, r := range results {
		perEndpoint := "-"
		if r.BytesPerEndpoint > 0 {
			perEndpoint = fmt.Sprintf("%.1f", r.BytesPerEndpoint)
		}
		fmt.Printf("%-22s %8d %14.0f %12d %12d %12s\n",
			r.Name, r.N, r.NsPerOp, r.BytesPerOp, r.AllocsPerOp, perEndpoint)
	}
	if withHist {
		for _, r := range results {
			if r.Hist == nil {
				continue
			}
			fmt.Printf("\n%s n=%d observed histograms:\n", r.Name, r.N)
			if err := r.Hist.WriteHistSummary(os.Stdout); err != nil {
				return err
			}
		}
	}
	return nil
}

// measureBench runs one benchmark function under the standard harness.
func measureBench(name string, n int, fn func(*testing.B)) benchResult {
	r := testing.Benchmark(fn)
	return benchResult{
		Name:        name,
		N:           n,
		Iterations:  r.N,
		NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
	}
}

// routeCycleBench measures one steady-state delivery cycle on a warmed
// engine. A non-nil obs is attached to the engine (its tree must match n), so
// the measurement also covers the histogram-update cost.
func routeCycleBench(n int, obs *fattree.Observer) func(*testing.B) {
	return func(b *testing.B) {
		ft := fattree.NewUniversal(n, n/4)
		ms := fattree.RandomPermutation(n, 1)
		e := fattree.NewEngineWithOptions(ft, fattree.SwitchIdeal, 0, fattree.Options{Observer: obs})
		// Warm the scratch arena so the measured loop is steady state.
		e.RunCycle(ms)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			delivered, res := e.RunCycle(ms)
			if res.Delivered == 0 || len(delivered) != len(ms) {
				b.Fatalf("cycle delivered %d of %d", res.Delivered, len(ms))
			}
		}
	}
}

// implicitRouteBench measures the streaming engine on a universal tree at one
// large n (pinned at 0 allocs/op, like RouteCycleSerial), plus the
// retained-heap footprint per endpoint. The
// footprint is the delta of two
// GC'd heap readings around topology + engine construction and one warm-up
// cycle, so it captures exactly what the data plane retains at steady state —
// O(messages × path length) arena plus the O(levels) capacity profile,
// independent of n. The CI memory-guard pins the same figure out of
// TestSoakImplicitHugeBoundedMemory.
func implicitRouteBench(n int) benchResult {
	ms := fattree.Random(n, n/64, 1)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ft := fattree.NewUniversal(n, n/4)
	e := fattree.NewEngine(ft, fattree.SwitchIdeal, 0)
	e.RunCycle(ms) // warm the scratch arena to its high-water mark
	runtime.GC()
	runtime.ReadMemStats(&after)
	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if retained < 0 {
		retained = 0 // the first GC collected more than the engine retains
	}

	r := measureBench("RouteCycleImplicit", n, implicitCycleBench(e, ms))
	r.BytesPerEndpoint = float64(retained) / float64(n)
	return r
}

// implicitCycleBench measures one steady-state delivery cycle on a warmed
// streaming engine; random large-n sets are not one-cycle, so the invariant
// is progress plus a full delivered vector, not full delivery.
func implicitCycleBench(e *fattree.Engine, ms fattree.MessageSet) func(*testing.B) {
	return func(b *testing.B) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			delivered, res := e.RunCycle(ms)
			if res.Delivered == 0 || len(delivered) != len(ms) {
				b.Fatalf("cycle delivered %d of %d", res.Delivered, len(ms))
			}
		}
	}
}

// offLineBench measures the Theorem 1 scheduler end to end on a warmed
// reusable Scheduler — the steady state of any caller that schedules more
// than once, pinned at 0 allocs/op by TestOffLineScheduleAllocs and the CI
// bench-guard.
func offLineBench(n int) func(*testing.B) {
	return func(b *testing.B) {
		ft := fattree.NewUniversal(n, n/4)
		ms := fattree.Random(n, 4*n, 1)
		sc := fattree.NewScheduler(ft)
		// Warm the scratch arena so the measured loop is steady state.
		sc.OffLine(ms)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			s := sc.OffLine(ms)
			if s.Length() == 0 {
				b.Fatal("empty schedule")
			}
		}
	}
}
