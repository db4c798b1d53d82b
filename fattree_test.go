// Integration tests of the public API: every facade entry point is exercised
// the way a downstream user would, and the cross-package invariants (schedule
// validity on hardware, universality bounds) are re-checked at the API
// surface.
package fattree_test

import (
	"math"
	"testing"

	"fattree"
)

func TestPublicTopologyAPI(t *testing.T) {
	ft := fattree.NewUniversal(64, 16)
	if ft.Processors() != 64 || ft.RootCapacity() != 16 {
		t.Fatalf("topology basics wrong: %v", ft)
	}
	if fattree.UniversalCapacity(64, 16, 0) != 16 {
		t.Errorf("UniversalCapacity root mismatch")
	}
	custom := fattree.New(8, func(k int) int { return k + 1 })
	if custom.CapacityAtLevel(3) != 4 {
		t.Errorf("custom profile not honoured")
	}
	if fattree.NewConstant(8, 2).TotalWires() != 60 {
		t.Errorf("constant tree wires wrong")
	}
	if fattree.NewDoubling(8).RootCapacity() != 8 {
		t.Errorf("doubling root wrong")
	}
	if fattree.Lg(1000) != 10 {
		t.Errorf("Lg wrong")
	}
}

func TestPublicSchedulingPipeline(t *testing.T) {
	ft := fattree.NewUniversal(128, 32)
	ms := fattree.Concat(
		fattree.RandomPermutation(128, 1),
		fattree.KLocal(128, 100, 4, 2),
	)
	lam := fattree.LoadFactor(ft, ms)
	if lam <= 0 {
		t.Fatalf("λ = %v", lam)
	}
	for name, f := range map[string]func(*fattree.FatTree, fattree.MessageSet) *fattree.Schedule{
		"offline": fattree.ScheduleOffline,
		"big":     fattree.ScheduleOfflineBig,
		"greedy":  fattree.ScheduleGreedy,
	} {
		s := f(ft, ms)
		if err := s.Verify(ms); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if float64(s.Length()) < lam {
			t.Errorf("%s: beats the λ lower bound — invalid", name)
		}
	}
}

func TestPublicHardwarePipeline(t *testing.T) {
	ft := fattree.NewUniversal(64, 32)
	ms := fattree.BitReversal(64)
	stats, s := fattree.DeliverOffline(ft, ms)
	if stats.Drops != 0 || stats.Delivered != len(ms) || stats.Cycles != s.Length() {
		t.Fatalf("offline hardware delivery wrong: %+v", stats)
	}
	online := fattree.RunOnline(fattree.NewEngine(ft, fattree.SwitchPartial, 3), ms)
	if online.Delivered != len(ms) {
		t.Fatalf("online partial delivery incomplete: %+v", online)
	}
}

func TestPublicCostModel(t *testing.T) {
	n := 1024
	if fattree.UniversalVolume(n, n) != fattree.HypercubeVolume(n) {
		t.Errorf("w=n volume should equal hypercube volume")
	}
	w := fattree.RootCapacityForVolume(n, fattree.MeshVolume(n))
	if w < 1 || w > n {
		t.Errorf("root capacity out of range: %d", w)
	}
	ft := fattree.NewUniversalOfVolume(n, fattree.HypercubeVolume(n))
	if ft.RootCapacity() < n/8 {
		t.Errorf("hypercube-volume tree too narrow: %d", ft.RootCapacity())
	}
	box := fattree.NodeBox(64, 2)
	if math.Abs(box.Volume()-512) > 1 {
		t.Errorf("node box volume %v", box.Volume())
	}
	if fattree.UniversalComponents(n, n) < n {
		t.Errorf("component count too small")
	}
	if fattree.ComponentsBound(n, n) <= 0 || fattree.ButterflyVolume(n) <= 0 ||
		fattree.TreeVolume(n) <= 0 || fattree.VolumeLowerBoundFromBisection(n, n/2) <= 0 {
		t.Errorf("cost figures must be positive")
	}
}

func TestPublicDecomposition(t *testing.T) {
	l := fattree.GridLayout(64, 4096)
	dt := fattree.CutPlanes(l, 1)
	bt := fattree.BalanceDecomposition(dt)
	if bt.Procs != 64 {
		t.Fatalf("balanced tree procs %d", bt.Procs)
	}
	heights := fattree.MaximalSubtrees(fattree.Interval{Lo: 3, Hi: 11})
	if len(heights) == 0 {
		t.Fatalf("no subtrees")
	}
	colors := []bool{true, false, true, false}
	a, b := fattree.SplitPearls(func(i int) bool { return colors[i] }, []fattree.Interval{{Lo: 0, Hi: 4}})
	if len(a) == 0 || len(b) == 0 {
		t.Fatalf("pearls split degenerate")
	}
}

func TestPublicUniversality(t *testing.T) {
	for _, net := range []fattree.Network{
		fattree.NewHypercube(32),
		fattree.NewShuffleExchange(32),
		fattree.NewButterfly(32),
	} {
		r := fattree.SimulateOnFatTree(net, fattree.RandomPermutation(32, 5), 1)
		if r.Slowdown <= 0 || r.Slowdown > 8*r.PolylogBound {
			t.Errorf("%s: slowdown %.1f outside envelope %.1f", net.Name(), r.Slowdown, r.PolylogBound)
		}
	}
	id := fattree.IdentifyProcessors(fattree.NewMesh(16), 1)
	if id.Tree.Processors() != 16 {
		t.Errorf("identification tree size %d", id.Tree.Processors())
	}
	_, s := fattree.EmbedFixedConnections(fattree.NewMesh(16), 1)
	if s.Messages() != 48 { // 4x4 mesh: 24 undirected links, both directions
		t.Errorf("mesh embedding found %d link messages, want 48", s.Messages())
	}
	// The binary tree routes through internal switches only, so it has no
	// processor-to-processor links — an empty embedding, by design.
	_, sTree := fattree.EmbedFixedConnections(fattree.NewBinaryTree(16), 1)
	if sTree.Messages() != 0 {
		t.Errorf("leaf-processor tree should embed no direct links")
	}
}

func TestPublicWorkloads(t *testing.T) {
	n := 64
	ft := fattree.NewConstant(n, 1)
	for name, ms := range map[string]fattree.MessageSet{
		"perm":      fattree.RandomPermutation(n, 1),
		"random":    fattree.Random(n, 100, 2),
		"bitrev":    fattree.BitReversal(n),
		"transpose": fattree.Transpose(n),
		"shuffle":   fattree.Shuffle(n),
		"reversal":  fattree.Reversal(n),
		"alltoall":  fattree.AllToAll(8),
		"local":     fattree.KLocal(n, 100, 4, 3),
		"nn":        fattree.NearestNeighbor(n),
		"hotspot":   fattree.HotSpot(n, 20, 4),
	} {
		if err := ms.Validate(ft); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	mesh := fattree.NewGridMesh(8, 8)
	if len(mesh.ExchangeStep()) == 0 {
		t.Errorf("empty FEM exchange")
	}
	if fattree.NewGridMeshShuffled(8, 8, 1).BisectionWidth(64) < mesh.BisectionWidth(64) {
		t.Errorf("shuffled mesh should not have smaller bisection")
	}
}

func TestPublicTiming(t *testing.T) {
	ft := fattree.NewConstant(64, 1)
	m := fattree.Message{Src: 0, Dst: 63}
	if fattree.MessageTicks(ft, m, 8) != 12+8+2 {
		t.Errorf("message ticks wrong")
	}
	ms := fattree.MessageSet{m}
	if fattree.CycleTicks(ft, ms, 8) != fattree.MessageTicks(ft, m, 8) {
		t.Errorf("cycle ticks wrong")
	}
	if fattree.MaxCycleTicks(ft, 8) < fattree.CycleTicks(ft, ms, 8) {
		t.Errorf("max cycle ticks below actual")
	}
	if fattree.ScheduleTicks(ft, []fattree.MessageSet{ms, ms}, 8) != 2*fattree.CycleTicks(ft, ms, 8) {
		t.Errorf("schedule ticks wrong")
	}
}

func TestPublicLoadsAndChannels(t *testing.T) {
	ft := fattree.NewConstant(8, 1)
	ms := fattree.MessageSet{{Src: 0, Dst: 7}}
	loads := fattree.NewLoads(ft, ms)
	up := fattree.Channel{Node: 8, Dir: fattree.Up}
	if loads.Load(up) != 1 {
		t.Errorf("load accounting wrong")
	}
	if !fattree.IsOneCycle(ft, ms) {
		t.Errorf("single message must be one-cycle")
	}
	f, arg := loads.MaxFactor()
	if f != 1 || arg.Node == 0 {
		t.Errorf("max factor wrong: %v at %v", f, arg)
	}
}
