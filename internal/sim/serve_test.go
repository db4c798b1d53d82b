package sim

import (
	"testing"

	"fattree/internal/concentrator"
	"fattree/internal/core"
	"fattree/internal/obsv"
	"fattree/internal/workload"
)

// TestRunServeMatchesRunOnline pins the request-path entry point to the
// experiment entry point: identical Cycles/Delivered/Drops/Deferrals and
// bit-identical observer counters, with PerCycle as the only sanctioned
// difference.
func TestRunServeMatchesRunOnline(t *testing.T) {
	n := 64
	ft := core.NewUniversal(n, 16)
	workloads := map[string]core.MessageSet{
		"perm":   workload.RandomPermutation(n, 1),
		"random": workload.Random(n, 4*n, 2),
		"bitrev": workload.BitReversal(n),
	}
	for name, ms := range workloads {
		oServe := obsv.New(ft)
		oOnline := obsv.New(ft)
		eServe := NewWithOptions(ft, concentrator.KindIdeal, 0, Options{Observer: oServe})
		eOnline := NewWithOptions(ft, concentrator.KindIdeal, 0, Options{Observer: oOnline})
		got := eServe.RunServe(ms)
		want := RunOnline(eOnline, ms)
		if got.Cycles != want.Cycles || got.Delivered != want.Delivered ||
			got.Drops != want.Drops || got.Deferrals != want.Deferrals {
			t.Fatalf("%s: RunServe %+v != RunOnline %+v", name, got, want)
		}
		if got.PerCycle != nil {
			t.Fatalf("%s: RunServe materialized PerCycle", name)
		}
		if !obsv.CountersEqual(oServe, oOnline) {
			t.Fatalf("%s: observer counters diverge between RunServe and RunOnline", name)
		}
	}
}

// TestRunServeSteadyStateAllocs asserts the serving contract directly: a
// warmed engine answers requests with zero heap allocations, observed and
// unobserved.
func TestRunServeSteadyStateAllocs(t *testing.T) {
	n := 128
	ft := core.NewUniversal(n, 32)
	ms := workload.RandomPermutation(n, 5)
	for name, obs := range map[string]*obsv.Observer{"unobserved": nil, "observed": obsv.New(ft)} {
		e := NewWithOptions(ft, concentrator.KindIdeal, 0, Options{Observer: obs})
		e.RunServe(ms) // warm the scratch arena
		allocs := testing.AllocsPerRun(10, func() {
			if st := e.RunServe(ms); st.Delivered != len(ms) {
				t.Fatalf("incomplete delivery: %+v", st)
			}
		})
		if allocs != 0 {
			t.Errorf("%s RunServe: %.1f allocs/op, want 0", name, allocs)
		}
	}
}

// TestRetryLoopAllocs bounds the per-call allocations of the experiment-side
// retry loops on a warmed, unobserved engine: what remains is the seeded
// RNG, the shuffle closure and the growth of Stats.PerCycle, independent of
// how many messages each cycle carries.
func TestRetryLoopAllocs(t *testing.T) {
	n := 64
	ft := core.NewUniversal(n, 16)
	e := New(ft, concentrator.KindIdeal, 0)
	const maxAllocs = 16

	ms := workload.Random(n, 4*n, 3)
	RunOnlineRandom(e, ms, 5) // warm the scratch arena
	allocs := testing.AllocsPerRun(10, func() {
		if st := RunOnlineRandom(e, ms, 5); st.Delivered != len(ms) {
			t.Fatalf("incomplete delivery: %+v", st)
		}
	})
	t.Logf("RunOnlineRandom: %.1f allocs/op", allocs)
	if allocs > maxAllocs {
		t.Errorf("RunOnlineRandom: %.1f allocs/op, want <= %d", allocs, maxAllocs)
	}

	arrivals := workload.Random(n, n/4, 7)
	fixed := func(int) core.MessageSet { return arrivals }
	RunOpenLoop(e, fixed, 400, 9) // warm the scratch arena
	allocs = testing.AllocsPerRun(10, func() {
		if st := RunOpenLoop(e, fixed, 400, 9); st.Delivered == 0 {
			t.Fatalf("open loop delivered nothing: %+v", st)
		}
	})
	t.Logf("RunOpenLoop over 400 cycles: %.1f allocs/op", allocs)
	if allocs > maxAllocs {
		t.Errorf("RunOpenLoop over 400 cycles: %.1f allocs/op, want <= %d", allocs, maxAllocs)
	}
}

// TestEngineWorkersIgnored pins that Options.Workers no longer changes how an
// engine runs: streaming and k-ary engines built with eight workers route every
// level on the calling goroutine, so a warmed RunCycle and RunServe allocate
// nothing. A goroutine per switch would allocate on every level.
func TestEngineWorkersIgnored(t *testing.T) {
	n := 64
	binary := core.NewUniversal(n, 16)
	kary := core.NewKary(core.KaryDesc{Down: []int{4, 4, 4}, Up: []int{2, 2, 1}, Parallel: []int{1, 1, 1}})
	for name, tree := range map[string]core.Topology{"stream": binary, "kary": kary} {
		ms := workload.Random(tree.Processors(), 2*tree.Processors(), 3)
		e := NewWithOptions(tree, concentrator.KindIdeal, 0, Options{Workers: 8})
		e.RunCycle(ms) // warm the scratch arena
		e.RunServe(ms)
		if allocs := testing.AllocsPerRun(10, func() { e.RunCycle(ms) }); allocs != 0 {
			t.Errorf("%s RunCycle: %.1f allocs/op, want 0", name, allocs)
		}
		if allocs := testing.AllocsPerRun(10, func() { e.RunServe(ms) }); allocs != 0 {
			t.Errorf("%s RunServe: %.1f allocs/op, want 0", name, allocs)
		}
	}
}

// TestRunServeOfferBudget pins the serving work bound: a request far larger
// than its tree can carry stops once its offers reach serveOfferBudget and
// reports itself unfinished, while the same engine still serves the next
// small request in full.
func TestRunServeOfferBudget(t *testing.T) {
	n := 16
	ft := core.NewUniversal(n, n/4)
	e := New(ft, concentrator.KindIdeal, 0)
	huge := workload.Random(n, 100000, 1)
	st := e.RunServe(huge)
	if st.Delivered >= len(huge) {
		t.Fatalf("over-budget request delivered in full: %+v", st)
	}
	if offers := st.Cycles * len(huge); offers > serveOfferBudget {
		t.Fatalf("%d cycles × %d messages = %d offers, budget %d", st.Cycles, len(huge), offers, serveOfferBudget)
	}
	small := workload.RandomPermutation(n, 2)
	if st := e.RunServe(small); st.Delivered != len(small) {
		t.Fatalf("small request after an over-budget one: %+v", st)
	}
}
