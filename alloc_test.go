package fattree_test

import (
	"testing"

	"fattree"
)

// TestRouteCycleSerialZeroAllocs is the runtime half of the observability
// cost contract (the hotalloc ftlint analyzer is the static half): with the
// observer disabled, a warmed engine's delivery cycle performs zero heap
// allocations at every standard size. The CI bench-guard job additionally
// asserts the same figure out of BenchmarkRouteCycleSerial's -benchmem
// output.
func TestRouteCycleSerialZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc guard is covered at full size in CI")
	}
	for _, n := range []int{256, 1024, 4096} {
		ft := fattree.NewUniversal(n, n/4)
		ms := fattree.RandomPermutation(n, 1)
		e := fattree.NewEngine(ft, fattree.SwitchIdeal, 0)
		e.RunCycle(ms) // warm the scratch arena
		allocs := testing.AllocsPerRun(10, func() {
			if _, res := e.RunCycle(ms); res.Delivered == 0 {
				t.Fatal("cycle delivered nothing")
			}
		})
		if allocs != 0 {
			t.Errorf("n=%d: %v allocs/op with observers disabled, want 0", n, allocs)
		}
	}
}

// TestRouteCycleImplicitZeroAllocs extends the contract to large trees: at
// 2^16 and 2^18 endpoints with sparse random traffic, a warmed delivery cycle
// performs zero heap allocations.
// The CI bench-guard job additionally asserts the same figure out of
// BenchmarkRouteCycleImplicit's -benchmem output.
func TestRouteCycleImplicitZeroAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc guard is covered at full size in CI")
	}
	for _, n := range []int{1 << 16, 1 << 18} {
		ft := fattree.NewUniversal(n, n/4)
		ms := fattree.Random(n, n/64, 1)
		e := fattree.NewEngine(ft, fattree.SwitchIdeal, 0)
		e.RunCycle(ms) // warm the scratch arena
		allocs := testing.AllocsPerRun(10, func() {
			if _, res := e.RunCycle(ms); res.Delivered == 0 {
				t.Fatal("cycle delivered nothing")
			}
		})
		if allocs != 0 {
			t.Errorf("n=%d: %v allocs/op on the streaming engine, want 0", n, allocs)
		}
	}
}

// TestRunOnlineImplicitAllocs pins BenchmarkRunOnlineImplicit's
// allocations: a warmed RunOnline on the 2^20-endpoint tree allocates
// exactly once, the Stats.PerCycle profile it hands to the caller, sized
// once from the per-cycle counts the engine keeps in its scratch. The retry
// loop and the streaming plane under it allocate nothing (RunServe, which
// skips the profile, is pinned at 0 by BenchmarkServeRoute).
func TestRunOnlineImplicitAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc guard is covered at full size in CI")
	}
	const n = 1 << 20
	ft := fattree.NewUniversal(n, n/4)
	ms := fattree.Random(n, n/1024, 1)
	e := fattree.NewEngine(ft, fattree.SwitchIdeal, 0)
	fattree.RunOnline(e, ms) // warm the scratch arena
	var cycles int
	allocs := testing.AllocsPerRun(10, func() {
		stats := fattree.RunOnline(e, ms)
		if stats.Delivered != len(ms) {
			t.Fatalf("delivered %d of %d", stats.Delivered, len(ms))
		}
		cycles = len(stats.PerCycle)
	})
	if allocs != 1 {
		t.Errorf("%v allocs/op over %d cycles, want exactly 1 (the per-cycle profile)", allocs, cycles)
	}
}

// TestOffLineScheduleAllocs pins the scheduler half of the allocation
// contract: a warmed reusable Scheduler runs the full Theorem 1 pipeline —
// λ computation, LCA grouping, repeated even-bisection, one-cycle assembly —
// at zero steady-state heap allocations, both unobserved and with the
// per-level counters attached, at every standard size. The CI bench-guard job
// additionally asserts the same figure out of BenchmarkOffLineSchedule's
// -benchmem output, and ftbenchdiff -strict pins the ns/op.
func TestOffLineScheduleAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc guard is covered at full size in CI")
	}
	for _, n := range []int{256, 1024, 4096} {
		ft := fattree.NewUniversal(n, n/4)
		ms := fattree.Random(n, 4*n, 1)
		sc := fattree.NewScheduler(ft)
		sc.OffLine(ms) // warm the scratch arena
		allocs := testing.AllocsPerRun(10, func() {
			if s := sc.OffLine(ms); s.Length() == 0 {
				t.Fatal("empty schedule")
			}
		})
		if allocs != 0 {
			t.Errorf("n=%d: %v allocs/op unobserved, want 0", n, allocs)
		}
		// Observed path: counters are flat-array adds at the serial merge
		// points, so attaching an observer must not reintroduce allocation.
		o := fattree.NewObserver(ft)
		sc.OffLineObserved(ms, o) // warm the observed path
		allocs = testing.AllocsPerRun(10, func() {
			if s := sc.OffLineObserved(ms, o); s.Length() == 0 {
				t.Fatal("empty schedule")
			}
		})
		if allocs != 0 {
			t.Errorf("n=%d: %v allocs/op observed, want 0", n, allocs)
		}
	}
}

// TestOffLineCompactAllocs extends the guard to the production entry point:
// scheduling plus greedy compaction on a warmed scheduler stays at zero.
func TestOffLineCompactAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("alloc guard is covered at full size in CI")
	}
	n := 1024
	ft := fattree.NewUniversal(n, n/4)
	ms := fattree.Random(n, 4*n, 1)
	sc := fattree.NewScheduler(ft)
	sc.OffLineCompact(ms) // warm both arenas
	allocs := testing.AllocsPerRun(10, func() {
		if s := sc.OffLineCompact(ms); s.Length() == 0 {
			t.Fatal("empty schedule")
		}
	})
	if allocs != 0 {
		t.Errorf("%v allocs/op for OffLineCompact, want 0", allocs)
	}
}

// TestRouteCycleObservedSteadyStateAllocs pins the "cheap when enabled" half:
// counters are flat-array adds and trace events are fixed-slot ring writes,
// so even an observed steady-state cycle allocates nothing once the ring has
// been created — per-node and per-level, with and without a ring (ring-less
// per-node is what every ftserve tenant carries).
func TestRouteCycleObservedSteadyStateAllocs(t *testing.T) {
	n := 256
	ft := fattree.NewUniversal(n, n/4)
	ms := fattree.RandomPermutation(n, 1)
	for _, g := range []struct {
		name string
		bind func(*fattree.FatTree) *fattree.Observer
	}{{"per-node", fattree.NewObserver}, {"per-level", fattree.NewObserverCompact}} {
		for _, ring := range []bool{false, true} {
			o := g.bind(ft)
			if ring {
				o.EnableTrace(1 << 12)
			}
			e := fattree.NewEngineWithOptions(ft, fattree.SwitchIdeal, 0,
				fattree.Options{Observer: o})
			e.RunCycle(ms) // warm the arena and fill the ring to steady state
			allocs := testing.AllocsPerRun(10, func() {
				if _, res := e.RunCycle(ms); res.Delivered == 0 {
					t.Fatal("cycle delivered nothing")
				}
			})
			if allocs != 0 {
				t.Errorf("%s observer, ring %v: %v allocs/op, want 0 (recording must not allocate)", g.name, ring, allocs)
			}
		}
	}
}
