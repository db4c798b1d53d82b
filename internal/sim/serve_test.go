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
// bit-identical observer counters for every worker count, with PerCycle as
// the only sanctioned difference.
func TestRunServeMatchesRunOnline(t *testing.T) {
	n := 64
	ft := core.NewUniversal(n, 16)
	workloads := map[string]core.MessageSet{
		"perm":   workload.RandomPermutation(n, 1),
		"random": workload.Random(n, 4*n, 2),
		"bitrev": workload.BitReversal(n),
	}
	for name, ms := range workloads {
		for _, workers := range []int{1, 2, 4} {
			oServe := obsv.New(ft)
			oOnline := obsv.New(ft)
			eServe := NewWithOptions(ft, concentrator.KindIdeal, 0, Options{Workers: workers, Observer: oServe})
			eOnline := NewWithOptions(ft, concentrator.KindIdeal, 0, Options{Workers: workers, Observer: oOnline})
			got := eServe.RunServe(ms)
			want := RunOnline(eOnline, ms)
			if got.Cycles != want.Cycles || got.Delivered != want.Delivered ||
				got.Drops != want.Drops || got.Deferrals != want.Deferrals {
				t.Fatalf("%s workers=%d: RunServe %+v != RunOnline %+v", name, workers, got, want)
			}
			if got.PerCycle != nil {
				t.Fatalf("%s workers=%d: RunServe materialized PerCycle", name, workers)
			}
			if !obsv.CountersEqual(oServe, oOnline) {
				t.Fatalf("%s workers=%d: observer counters diverge between RunServe and RunOnline", name, workers)
			}
		}
	}
}

// TestRunServeWorkerEquivalence pins the serving determinism contract: the
// same request sequence replayed at different worker counts leaves
// bit-identical observer counters.
func TestRunServeWorkerEquivalence(t *testing.T) {
	n := 64
	ft := core.NewUniversal(n, 16)
	requests := []core.MessageSet{
		workload.RandomPermutation(n, 3),
		workload.Random(n, 2*n, 4),
		workload.Transpose(n),
	}
	serve := func(workers int) *obsv.Observer {
		o := obsv.New(ft)
		e := NewWithOptions(ft, concentrator.KindIdeal, 0, Options{Workers: workers, Observer: o})
		for _, ms := range requests {
			if st := e.RunServe(ms); st.Delivered != len(ms) {
				t.Fatalf("workers=%d: delivered %d of %d", workers, st.Delivered, len(ms))
			}
		}
		return o
	}
	base := serve(1)
	for _, workers := range []int{2, 4, 8} {
		if !obsv.CountersEqual(base, serve(workers)) {
			t.Fatalf("workers=%d: counters diverge from serial", workers)
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
		e := NewWithOptions(ft, concentrator.KindIdeal, 0, Options{Workers: 1, Observer: obs})
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
	e := NewWithOptions(ft, concentrator.KindIdeal, 0, Options{Workers: 1})
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
