package sched

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"fattree/internal/core"
	"fattree/internal/workload"
)

// TestOfflineScheduleProperty fuzzes the Theorem 1 scheduler across random
// tree shapes and workloads: the schedule must always be a valid partition
// into one-cycle sets, within the Theorem 1 bound, and at least λ.
func TestOfflineScheduleProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 << (3 + rng.Intn(4)) // 8..64
		ft := workload.RandomTreeProfile(n, 12, seed)
		var ms core.MessageSet
		switch rng.Intn(4) {
		case 0:
			ms = workload.Random(n, 1+rng.Intn(6*n), seed+1)
		case 1:
			ms = workload.RandomPermutation(n, seed+1)
		case 2:
			ms = workload.LevelStress(n, rng.Intn(ft.Levels()), 1+rng.Intn(3*n), seed+1)
		default:
			ms = workload.Funnel(n, rng.Intn(n/2), 1+rng.Intn(n/2), 1+rng.Intn(2*n), seed+1)
		}
		s := OffLine(ft, ms)
		if err := s.Verify(ms); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		lam := core.LoadFactor(ft, ms)
		if float64(s.Length()) < lam {
			return false
		}
		bound := 2 * (math.Ceil(lam) + 1) * float64(ft.Levels())
		return float64(s.Length()) <= bound
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestSchedulerReuseProperty fuzzes the arena reuse contract: one Scheduler
// fed a random sequence of shrinking and regrowing workloads (random tree
// profiles included) must produce, at every phase, a schedule bit-identical
// to a fresh scheduler's on the same input — dirty slabs, stretched tables,
// and stale boundary lists from earlier phases must never leak into a result.
func TestSchedulerReuseProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 << (3 + rng.Intn(4)) // 8..64
		ft := workload.RandomTreeProfile(n, 12, seed)
		sc := NewScheduler(ft)
		sizes := []int{4 * n, n / 2, 1, 6 * n, 0, 2 * n}
		for phase, size := range sizes {
			ms := workload.Random(n, size, seed+int64(phase))
			fresh := OffLine(ft, ms)
			reused := sc.OffLine(ms)
			if err := reused.Verify(ms); err != nil {
				t.Logf("seed %d phase %d: %v", seed, phase, err)
				return false
			}
			if !reflect.DeepEqual(fresh, reused) {
				t.Logf("seed %d phase %d (size %d): reused schedule differs from fresh", seed, phase, size)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestOfflineBigProperty fuzzes the Corollary 2 scheduler: always a valid
// partition (the overflow fix-up guarantees it on any tree), never below λ.
func TestOfflineBigProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 << (3 + rng.Intn(3)) // 8..32
		ft := workload.RandomTreeProfile(n, 20, seed)
		ms := workload.Random(n, 1+rng.Intn(5*n), seed+1)
		s := OffLineBig(ft, ms)
		if err := s.Verify(ms); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return float64(s.Length()) >= core.LoadFactor(ft, ms)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestEvenBisectProperty fuzzes the bisection primitive at random internal
// nodes with random crossing sets: exact partition, per-channel floor/ceil
// split.
func TestEvenBisectProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 << (3 + rng.Intn(4))
		ft := core.NewConstant(n, 1)
		level := rng.Intn(ft.Levels())
		v := 1<<uint(level) + rng.Intn(1<<uint(level))
		lo, hi := ft.SubtreeLeaves(v)
		mid := (lo + hi) / 2
		k := 1 + rng.Intn(60)
		q := make(core.MessageSet, 0, k)
		for i := 0; i < k; i++ {
			src := lo + rng.Intn(mid-lo)
			dst := mid + rng.Intn(hi-mid)
			q = append(q, core.Message{Src: src, Dst: dst})
		}
		a, b := EvenBisect(ft, v, q)
		if !core.Concat(a, b).Equal(q) {
			return false
		}
		la, lb := core.NewLoads(ft, a), core.NewLoads(ft, b)
		ok := true
		ft.Channels(func(c core.Channel) {
			total := la.Load(c) + lb.Load(c)
			if la.Load(c) != total/2 && la.Load(c) != (total+1)/2 {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// TestLevelStressNoLogFactor verifies a structural property of the level-
// parallel Theorem 1 implementation: when every message's LCA sits at one
// level, only that level contributes delivery cycles, so d <= 2(ceil(λ)+1)
// with no lg n factor — subtrees at the same level route simultaneously.
func TestLevelStressNoLogFactor(t *testing.T) {
	n := 64
	ft := core.NewUniversal(n, 32)
	for level := 0; level < ft.Levels(); level++ {
		ms := workload.LevelStress(n, level, 96, int64(level+1))
		s := OffLine(ft, ms)
		if err := s.Verify(ms); err != nil {
			t.Fatalf("level %d: %v", level, err)
		}
		lam := core.LoadFactor(ft, ms)
		bound := 2 * (math.Ceil(lam) + 1)
		if float64(s.Length()) > bound {
			t.Errorf("level %d: d=%d exceeds the single-level bound %.0f (λ=%.2f)",
				level, s.Length(), bound, lam)
		}
	}
}

// TestGreedyMatchesFullFitsReference checks Greedy's path-only capacity
// check against a reference copy that re-checks every channel of the trial
// cycle (Loads.Fits) for each placement: on random message sets, external
// messages included, over binary trees (random profiles, some with channel
// overrides) and k-ary trees, both must build the same cycles.
func TestGreedyMatchesFullFitsReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var ft *core.FatTree
		if rng.Intn(2) == 0 {
			n := 1 << (2 + rng.Intn(5)) // 4..64
			ft = workload.RandomTreeProfile(n, 6, seed)
			for range rng.Intn(4) {
				ft.SetChannelCapacity(1+rng.Intn(ft.Nodes()), 1+rng.Intn(4))
			}
		} else {
			tiers := 1 + rng.Intn(3)
			desc := core.KaryDesc{
				Down:     make([]int, tiers),
				Up:       make([]int, tiers),
				Parallel: make([]int, tiers),
				Root:     1 + rng.Intn(4),
			}
			for i := range tiers {
				desc.Down[i], desc.Up[i], desc.Parallel[i] = 2+rng.Intn(3), 1+rng.Intn(3), 1+rng.Intn(2)
			}
			ft = core.NewKary(desc)
		}
		n := ft.Processors()
		ms := make(core.MessageSet, 1+rng.Intn(4*n))
		for i := range ms {
			src, dst := rng.Intn(n), rng.Intn(n-1)
			if dst >= src {
				dst++
			}
			switch rng.Intn(8) {
			case 0:
				src = core.External
			case 1:
				dst = core.External
			}
			ms[i] = core.Message{Src: src, Dst: dst}
		}
		got, want := Greedy(ft, ms).Cycles, greedyFullFits(ft, ms)
		if !reflect.DeepEqual(got, want) {
			t.Logf("seed %d: Greedy built %d cycles, the full-Fits reference %d", seed, len(got), len(want))
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// greedyFullFits is the reference for Greedy: the same first-fit placement,
// with every trial placement re-checking the whole trial cycle (Loads.Fits).
func greedyFullFits(ft *core.FatTree, ms core.MessageSet) []core.MessageSet {
	var loads []*core.Loads
	var cycles []core.MessageSet
	for _, m := range ms {
		placed := false
		for i, l := range loads {
			l.Add(m)
			if l.Fits() {
				cycles[i] = append(cycles[i], m)
				placed = true
				break
			}
			l.Remove(m)
		}
		if !placed {
			loads = append(loads, core.NewLoads(ft, core.MessageSet{m}))
			cycles = append(cycles, core.MessageSet{m})
		}
	}
	return cycles
}
