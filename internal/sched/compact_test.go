package sched

import (
	"math/rand"
	"testing"
	"testing/quick"

	"fattree/internal/core"
	"fattree/internal/workload"
)

func TestCompactPreservesValidity(t *testing.T) {
	for _, n := range []int{64, 256} {
		ft := core.NewUniversal(n, n/4)
		for seed := int64(0); seed < 3; seed++ {
			ms := workload.Random(n, 5*n, seed)
			s := OffLineCompact(ft, ms)
			if err := s.Verify(ms); err != nil {
				t.Fatalf("n=%d seed=%d: %v", n, seed, err)
			}
		}
	}
}

func TestCompactNeverLonger(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 << (3 + rng.Intn(4))
		ft := workload.RandomTreeProfile(n, 10, seed)
		ms := workload.Random(n, 1+rng.Intn(5*n), seed+1)
		plain := OffLine(ft, ms)
		packed := Compact(plain)
		if err := packed.Verify(ms); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		return packed.Length() <= plain.Length() &&
			float64(packed.Length()) >= core.LoadFactor(ft, ms)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestCompactActuallyHelpsOnMultiLevelTraffic(t *testing.T) {
	// Traffic spread over all levels: the level-sequential schedule wastes
	// slots that compaction reclaims.
	n := 256
	ft := core.NewUniversal(n, n/4)
	ms := core.Concat(
		workload.KLocal(n, 2*n, 2, 1),
		workload.RandomPermutation(n, 2),
		workload.LevelStress(n, 3, n, 3),
	)
	plain := OffLine(ft, ms)
	packed := Compact(plain)
	if packed.Length() >= plain.Length() {
		t.Errorf("compaction did not help: %d vs %d cycles", packed.Length(), plain.Length())
	}
}

func TestUtilizationRisesWithCompaction(t *testing.T) {
	ft := core.NewUniversal(128, 32)
	ms := core.Concat(
		workload.KLocal(128, 256, 2, 1),
		workload.RandomPermutation(128, 2),
	)
	plain := OffLine(ft, ms)
	packed := Compact(plain)
	up, pp := plain.Utilization(), packed.Utilization()
	if pp < up {
		t.Errorf("compaction lowered utilization: %.3f -> %.3f", up, pp)
	}
	if up <= 0 || up > 1 {
		t.Errorf("utilization out of range: %v", up)
	}
}

func TestUtilizationEmpty(t *testing.T) {
	ft := core.NewConstant(8, 1)
	s := OffLine(ft, nil)
	if s.Utilization() != 0 {
		t.Errorf("empty schedule utilization %v", s.Utilization())
	}
}

func TestCompactIdempotent(t *testing.T) {
	ft := core.NewUniversal(64, 16)
	ms := workload.Random(64, 300, 9)
	once := Compact(OffLine(ft, ms))
	twice := Compact(once)
	if twice.Length() != once.Length() {
		t.Errorf("compaction not idempotent: %d -> %d", once.Length(), twice.Length())
	}
}

// TestParallelValid checks on random tree profiles that the Theorem 1
// schedule is a valid partition of its input.
func TestParallelValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 << (3 + rng.Intn(3))
		ft := workload.RandomTreeProfile(n, 8, seed)
		ms := workload.Random(n, 1+rng.Intn(4*n), seed+1)
		s := OffLine(ft, ms)
		return s.Verify(ms) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
