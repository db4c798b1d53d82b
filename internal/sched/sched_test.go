package sched

import (
	"math"
	"math/rand"
	"testing"

	"fattree/internal/core"
	"fattree/internal/workload"
)

// crossingSet builds k random messages crossing node v of t left-to-right.
func crossingSet(t *core.FatTree, v, k int, seed int64) core.MessageSet {
	rng := rand.New(rand.NewSource(seed))
	lo, _ := t.SubtreeLeaves(2 * v)
	_, hi := t.SubtreeLeaves(2*v + 1)
	mid := (lo + hi) / 2
	ms := make(core.MessageSet, 0, k)
	for i := 0; i < k; i++ {
		src := lo + rng.Intn(mid-lo)
		dst := mid + rng.Intn(hi-mid)
		ms = append(ms, core.Message{Src: src, Dst: dst})
	}
	return ms
}

func TestEvenBisectSplitsEveryChannelEvenly(t *testing.T) {
	ft := core.NewConstant(64, 1)
	for _, v := range []int{1, 2, 5, 12} {
		for trial := int64(0); trial < 10; trial++ {
			q := crossingSet(ft, v, 50+int(trial)*13, trial)
			a, b := EvenBisect(ft, v, q)
			if len(a)+len(b) != len(q) {
				t.Fatalf("node %d: bisect lost messages: %d + %d != %d", v, len(a), len(b), len(q))
			}
			if !core.Concat(a, b).Equal(q) {
				t.Fatalf("node %d: bisect is not a partition", v)
			}
			la, lb := core.NewLoads(ft, a), core.NewLoads(ft, b)
			ft.Channels(func(c core.Channel) {
				d := la.Load(c) - lb.Load(c)
				if d < -1 || d > 1 {
					t.Errorf("node %d trial %d: channel %v split %d vs %d",
						v, trial, c, la.Load(c), lb.Load(c))
				}
				// The paper's sharper form: load(a,c) = ceil(load(q,c)/2).
				total := la.Load(c) + lb.Load(c)
				if la.Load(c) != (total+1)/2 && la.Load(c) != total/2 {
					t.Errorf("node %d: channel %v: halves %d/%d of %d not floor/ceil",
						v, c, la.Load(c), lb.Load(c), total)
				}
			})
		}
	}
}

func TestEvenBisectSmallCases(t *testing.T) {
	ft := core.NewConstant(8, 1)
	// Empty.
	a, b := EvenBisect(ft, 1, nil)
	if a != nil || b != nil {
		t.Errorf("empty bisect should return nils")
	}
	// Singleton.
	a, b = EvenBisect(ft, 1, core.MessageSet{{Src: 0, Dst: 7}})
	if len(a) != 1 || len(b) != 0 {
		t.Errorf("singleton bisect: %d/%d", len(a), len(b))
	}
	// A pair from the same source must split across halves (leaf channel
	// load 2 must split 1/1).
	a, b = EvenBisect(ft, 1, core.MessageSet{{Src: 0, Dst: 7}, {Src: 0, Dst: 6}})
	if len(a) != 1 || len(b) != 1 {
		t.Errorf("same-source pair split %d/%d, want 1/1", len(a), len(b))
	}
}

func TestEvenBisectRightToLeft(t *testing.T) {
	ft := core.NewConstant(16, 1)
	// All sources in the right subtree of the root.
	q := core.MessageSet{{Src: 8, Dst: 0}, {Src: 9, Dst: 1}, {Src: 10, Dst: 2}, {Src: 11, Dst: 3}, {Src: 8, Dst: 1}, {Src: 9, Dst: 0}}
	a, b := EvenBisect(ft, 1, q)
	if len(a)+len(b) != len(q) {
		t.Fatalf("lost messages")
	}
	la, lb := core.NewLoads(ft, a), core.NewLoads(ft, b)
	ft.Channels(func(c core.Channel) {
		if d := la.Load(c) - lb.Load(c); d < -1 || d > 1 {
			t.Errorf("channel %v split unevenly: %d vs %d", c, la.Load(c), lb.Load(c))
		}
	})
}

func TestEvenBisectRejectsNonCrossing(t *testing.T) {
	ft := core.NewConstant(8, 1)
	defer func() {
		if recover() == nil {
			t.Errorf("expected panic for non-crossing message")
		}
	}()
	// {0,1} has LCA below the root — not a root crossing.
	EvenBisect(ft, 1, core.MessageSet{{Src: 0, Dst: 7}, {Src: 0, Dst: 1}})
}

func TestEvenBisectDuplicates(t *testing.T) {
	ft := core.NewConstant(8, 1)
	q := core.MessageSet{{Src: 0, Dst: 7}, {Src: 0, Dst: 7}, {Src: 0, Dst: 7}, {Src: 0, Dst: 7}}
	a, b := EvenBisect(ft, 1, q)
	if len(a) != 2 || len(b) != 2 {
		t.Errorf("duplicate set split %d/%d, want 2/2", len(a), len(b))
	}
}

func schedulersUnderTest() map[string]func(*core.FatTree, core.MessageSet) *Schedule {
	return map[string]func(*core.FatTree, core.MessageSet) *Schedule{
		"OffLine":    OffLine,
		"OffLineBig": OffLineBig,
		"Greedy":     Greedy,
	}
}

func TestSchedulesAreValidPartitions(t *testing.T) {
	trees := map[string]*core.FatTree{
		"constant2":  core.NewConstant(64, 2),
		"universal":  core.NewUniversal(64, 16),
		"full":       core.NewUniversal(64, 64),
		"skinny":     core.NewConstant(64, 1),
		"doubling":   core.NewDoubling(64),
		"overridden": func() *core.FatTree { ft := core.NewConstant(64, 4); ft.SetChannelCapacity(3, 1); return ft }(),
	}
	workloads := map[string]core.MessageSet{
		"perm":     workload.RandomPermutation(64, 1),
		"reversal": workload.Reversal(64),
		"random":   workload.Random(64, 300, 2),
		"hotspot":  workload.HotSpot(64, 50, 3),
		"local":    workload.KLocal(64, 200, 2, 4),
		"empty":    nil,
	}
	for tn, ft := range trees {
		for wn, ms := range workloads {
			for sn, f := range schedulersUnderTest() {
				s := f(ft, ms)
				if err := s.Verify(ms); err != nil {
					t.Errorf("%s/%s/%s: %v", tn, wn, sn, err)
				}
			}
		}
	}
}

func TestTheorem1Bound(t *testing.T) {
	// d <= 2(ceil(λ)+1)·lg n for the Theorem 1 scheduler.
	for _, n := range []int{16, 64, 256} {
		ft := core.NewConstant(n, 1)
		for seed := int64(0); seed < 5; seed++ {
			ms := workload.Random(n, 4*n, seed)
			s := OffLine(ft, ms)
			lam := core.LoadFactor(ft, ms)
			bound := 2 * (math.Ceil(lam) + 1) * float64(ft.Levels())
			if float64(s.Length()) > bound {
				t.Errorf("n=%d seed=%d: d=%d exceeds Theorem 1 bound %.0f (λ=%.1f)",
					n, seed, s.Length(), bound, lam)
			}
			if float64(s.Length()) < lam {
				t.Errorf("n=%d seed=%d: d=%d below the λ lower bound %.1f — schedule invalid?",
					n, seed, s.Length(), lam)
			}
		}
	}
}

func TestCorollary2Bound(t *testing.T) {
	// With cap(c) >= α·lg n everywhere, d <= 2(α/(α-1))·λ(M) (and at least 1).
	for _, n := range []int{64, 256} {
		lgn := core.Lg(n)
		for _, alpha := range []int{2, 4} {
			ft := core.NewConstant(n, alpha*lgn)
			for seed := int64(0); seed < 5; seed++ {
				ms := workload.Random(n, 8*n, seed)
				s := OffLineBig(ft, ms)
				if err := s.Verify(ms); err != nil {
					t.Fatalf("n=%d α=%d: invalid schedule: %v", n, alpha, err)
				}
				lam := core.LoadFactor(ft, ms)
				bound := 2 * float64(alpha) / float64(alpha-1) * lam
				if bound < 1 {
					bound = 1
				}
				if float64(s.Length()) > bound+1e-9 {
					t.Errorf("n=%d α=%d seed=%d: d=%d exceeds Corollary 2 bound %.2f (λ=%.2f)",
						n, alpha, seed, s.Length(), bound, lam)
				}
			}
		}
	}
}

func TestOffLineBigAvoidsLogFactor(t *testing.T) {
	// On a fat-tree with big channels (α = 2), Corollary 2 schedules cost at
	// most 4λ + O(1) cycles — far below the λ·lg n worst case of Theorem 1.
	n := 256
	ft := core.NewConstant(n, 2*core.Lg(n))
	ms := workload.Random(n, 16*n, 7)
	big := OffLineBig(ft, ms)
	if err := big.Verify(ms); err != nil {
		t.Fatalf("invalid: %v", err)
	}
	lam := core.LoadFactor(ft, ms)
	if float64(big.Length()) > 4*lam+4 {
		t.Errorf("OffLineBig d=%d exceeds 4λ+4 = %.1f", big.Length(), 4*lam+4)
	}
	if float64(big.Length()) > lam*float64(ft.Levels())/2 {
		t.Errorf("OffLineBig d=%d did not clearly avoid the lg n factor (λ·lg n/2 = %.0f)",
			big.Length(), lam*float64(ft.Levels())/2)
	}
}

func TestScheduleLowerBound(t *testing.T) {
	// No scheduler can beat ceil(λ): spot-check the three of them.
	n := 64
	ft := core.NewUniversal(n, 16)
	ms := workload.BitReversal(n)
	lam := core.LoadFactor(ft, ms)
	for name, f := range schedulersUnderTest() {
		if d := f(ft, ms).Length(); float64(d) < lam {
			t.Errorf("%s: %d cycles < λ = %.2f — impossible, schedule must be invalid", name, d, lam)
		}
	}
}

func TestOffLineDeterminism(t *testing.T) {
	ft := core.NewUniversal(128, 32)
	ms := workload.Random(128, 500, 9)
	a, b := OffLine(ft, ms), OffLine(ft, ms)
	if a.Length() != b.Length() {
		t.Fatalf("nondeterministic schedule length: %d vs %d", a.Length(), b.Length())
	}
	for i := range a.Cycles {
		if !a.Cycles[i].Equal(b.Cycles[i]) {
			t.Fatalf("cycle %d differs between runs", i)
		}
	}
}

func TestOneCycleInputSchedulesInFewCycles(t *testing.T) {
	// A message set with λ' <= 1 on a big-channel tree (the Corollary 2
	// regime: every capacity >= 2·lg n) schedules in one delivery cycle.
	n := 64
	ft := core.NewConstant(n, 2*core.Lg(n))
	ms := workload.NearestNeighbor(n)
	if core.LoadFactorWithSlack(ft, ms, core.Lg(n)) > 1 {
		t.Fatalf("precondition: λ' > 1 for nearest-neighbour on the big-channel tree")
	}
	s := OffLineBig(ft, ms)
	if s.Length() != 1 {
		t.Errorf("λ'<=1 input scheduled in %d cycles by OffLineBig, want 1", s.Length())
	}
}

func TestVerifyCatchesBadPartition(t *testing.T) {
	ft := core.NewConstant(8, 1)
	ms := core.MessageSet{{Src: 0, Dst: 7}, {Src: 1, Dst: 6}}
	s := &Schedule{Tree: ft, Cycles: []core.MessageSet{{{Src: 0, Dst: 7}}}}
	if err := s.Verify(ms); err == nil {
		t.Errorf("Verify accepted a lossy schedule")
	}
	s2 := &Schedule{Tree: ft, Cycles: []core.MessageSet{ms}}
	if err := s2.Verify(ms); err == nil {
		t.Errorf("Verify accepted an over-capacity cycle")
	}
}

func TestGreedyWorseOrEqualButValid(t *testing.T) {
	n := 128
	ft := core.NewConstant(n, 1)
	ms := workload.BitReversal(n)
	g := Greedy(ft, ms)
	if err := g.Verify(ms); err != nil {
		t.Fatalf("greedy invalid: %v", err)
	}
	o := OffLine(ft, ms)
	// Greedy has no guarantee; just record if it's dramatically better, which
	// would indicate the off-line schedule is broken.
	if g.Length()*4 < o.Length() {
		t.Errorf("greedy (%d) beats off-line (%d) by >4x — check OffLine", g.Length(), o.Length())
	}
}

func TestMessagesAccounting(t *testing.T) {
	ft := core.NewConstant(16, 1)
	ms := workload.Random(16, 100, 1)
	s := OffLine(ft, ms)
	if s.Messages() != len(ms) {
		t.Errorf("Messages() = %d, want %d", s.Messages(), len(ms))
	}
}
