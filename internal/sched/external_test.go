package sched

import (
	"testing"
	"testing/quick"

	"fattree/internal/core"
	"fattree/internal/workload"
)

func TestEvenBisectExternalSplitsEvenly(t *testing.T) {
	ft := core.NewUniversal(64, 8)
	var q core.MessageSet
	for p := 0; p < 40; p++ {
		q = append(q, core.Message{Src: p % 64, Dst: core.External})
	}
	a, b := EvenBisectExternal(ft, q)
	if !core.Concat(a, b).Equal(q) {
		t.Fatalf("not a partition")
	}
	la, lb := core.NewLoads(ft, a), core.NewLoads(ft, b)
	ft.Channels(func(c core.Channel) {
		if d := la.Load(c) - lb.Load(c); d < -1 || d > 1 {
			t.Errorf("channel %v split %d vs %d", c, la.Load(c), lb.Load(c))
		}
	})
	// The root channel itself must split within one.
	if d := la.Load(core.Channel{Node: 1, Dir: core.Up}) - lb.Load(core.Channel{Node: 1, Dir: core.Up}); d < -1 || d > 1 {
		t.Errorf("root channel split unevenly")
	}
}

func TestEvenBisectExternalRejectsMixed(t *testing.T) {
	ft := core.NewConstant(8, 1)
	defer func() {
		if recover() == nil {
			t.Errorf("mixed directions accepted")
		}
	}()
	EvenBisectExternal(ft, core.MessageSet{
		{Src: 0, Dst: core.External},
		{Src: core.External, Dst: 1},
	})
}

func TestSchedulersHandleExternalTraffic(t *testing.T) {
	ft := core.NewUniversal(64, 8)
	ms := core.Concat(
		workload.ExternalIO(64, 30, 30, 1),
		workload.RandomPermutation(64, 2),
	)
	for name, f := range map[string]func(*core.FatTree, core.MessageSet) *Schedule{
		"OffLine":    OffLine,
		"OffLineBig": OffLineBig,
		"Greedy":     Greedy,
	} {
		s := f(ft, ms)
		if err := s.Verify(ms); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if float64(s.Length()) < s.LoadFactor {
			t.Errorf("%s: beats λ", name)
		}
	}
}

func TestExternalScheduleRootBound(t *testing.T) {
	// k outputs through a w-root: the schedule needs >= ceil(k/w) cycles and
	// the even bisection should achieve close to it.
	ft := core.NewUniversal(64, 8)
	var ms core.MessageSet
	for i := 0; i < 64; i++ {
		ms = append(ms, core.Message{Src: i, Dst: core.External})
	}
	s := OffLine(ft, ms)
	if err := s.Verify(ms); err != nil {
		t.Fatalf("%v", err)
	}
	if s.Length() < 8 { // 64/8
		t.Errorf("d = %d below the root bound 8", s.Length())
	}
	if s.Length() > 16 {
		t.Errorf("d = %d far above the root bound 8", s.Length())
	}
}

func TestExternalScheduleProperty(t *testing.T) {
	f := func(seed int64) bool {
		ft := workload.RandomTreeProfile(32, 8, seed)
		mod := func(m int64) int {
			v := int(seed % m)
			if v < 0 {
				v = -v
			}
			return v + 1
		}
		ms := core.Concat(
			workload.ExternalIO(32, mod(13), mod(7), seed),
			workload.Random(32, 40, seed+1),
		)
		s := OffLine(ft, ms)
		return s.Verify(ms) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestCompactHandlesExternal(t *testing.T) {
	ft := core.NewUniversal(32, 8)
	ms := core.Concat(workload.ExternalIO(32, 10, 10, 3), workload.Random(32, 60, 4))
	s := OffLineCompact(ft, ms)
	if err := s.Verify(ms); err != nil {
		t.Fatalf("%v", err)
	}
}
