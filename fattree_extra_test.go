// Facade tests for the extension surface: 2-D family, open-loop operation,
// schedule serialization, buffered delivery, ECMP Clos, traces, faults.
package fattree_test

import (
	"bytes"
	"testing"

	"fattree"
)

func TestFacade2DFamily(t *testing.T) {
	ft := fattree.NewUniversal2D(256, 16)
	if ft.RootCapacity() != 16 {
		t.Errorf("2-D root capacity %d", ft.RootCapacity())
	}
	if fattree.Universal2DCapacity(256, 16, 2) < fattree.UniversalCapacity(256, 16, 2) {
		t.Errorf("2-D profile should dominate 3-D level by level for equal w")
	}
	if fattree.UniversalArea(256, 16) != 16*4*16*4 {
		t.Errorf("area formula wrong: %v", fattree.UniversalArea(256, 16))
	}
	if w := fattree.RootCapacityForArea(256, fattree.MeshArea(256)); w < 1 || w > 256 {
		t.Errorf("area inversion out of range: %d", w)
	}
	l := fattree.GridLayout2D(64, 256)
	dt := fattree.CutLines(l, 1)
	if dt.Procs() != 64 {
		t.Errorf("cut-lines tree procs %d", dt.Procs())
	}
	if fattree.NewUniversal2DOfArea(64, 64).Processors() != 64 {
		t.Errorf("area constructor wrong")
	}
}

func TestFacadeOpenLoop(t *testing.T) {
	ft := fattree.NewUniversal(64, 16)
	e := fattree.NewEngine(ft, fattree.SwitchIdeal, 0)
	stats := fattree.RunOpenLoop(e, fattree.UniformArrivals(ft, 4, 1), 50, 2)
	if stats.Delivered+stats.Backlog != stats.Offered {
		t.Errorf("conservation violated: %+v", stats)
	}
}

func TestFacadeScheduleSerialization(t *testing.T) {
	ft := fattree.NewUniversal(32, 8)
	ms := fattree.RandomPermutation(32, 1)
	s := fattree.ScheduleOffline(ft, ms)
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatalf("%v", err)
	}
	loaded, err := fattree.ReadSchedule(&buf, ft)
	if err != nil {
		t.Fatalf("%v", err)
	}
	if err := loaded.Verify(ms); err != nil {
		t.Fatalf("%v", err)
	}
}

func TestFacadeBufferedAndCompact(t *testing.T) {
	ft := fattree.NewUniversal(64, 16)
	ms := fattree.Random(64, 200, 3)
	buf := fattree.RunBuffered(ft, ms, 4)
	if buf.Delivered != len(ms) {
		t.Fatalf("buffered incomplete: %+v", buf)
	}
	s := fattree.ScheduleOfflineCompact(ft, ms)
	if err := s.Verify(ms); err != nil {
		t.Fatalf("%v", err)
	}
	if s.Utilization() <= 0 {
		t.Errorf("utilization %v", s.Utilization())
	}
}

func TestFacadeECMPAndNetworks(t *testing.T) {
	for _, net := range []fattree.Network{
		fattree.NewClos(16),
		fattree.NewClosECMP(16, 1),
		fattree.NewTorus(16),
		fattree.NewMesh3D(64),
		fattree.NewCCC(24),
		fattree.NewFatTreeNetwork(fattree.NewUniversal(32, 8)),
	} {
		ms := fattree.RandomPermutation(net.Procs(), 2)
		res := fattree.DeliverOnNetwork(net, ms)
		if res.Cycles == 0 && len(ms) > 0 {
			t.Errorf("%s: no cycles", net.Name())
		}
	}
}

func TestFacadeFaultsAndOnline(t *testing.T) {
	ft := fattree.NewUniversal(64, 16)
	e := fattree.NewEngine(ft, fattree.SwitchIdeal, 0)
	e.InjectLoss(0.05, 1)
	ms := fattree.RandomPermutation(64, 4)
	stats := fattree.RunOnlineRandom(e, ms, 5)
	if stats.Delivered != len(ms) {
		t.Fatalf("lossy online incomplete: %+v", stats)
	}
	if fattree.OnlineBound(ft, 10, 2) <= 20 {
		t.Errorf("online bound too small")
	}
}

func TestFacadeTicksExtras(t *testing.T) {
	ft := fattree.NewUniversal(64, 16)
	ms := fattree.Random(64, 100, 7)
	s := fattree.ScheduleOffline(ft, ms)
	serial := fattree.ScheduleTicks(ft, s.Cycles, 8)
	piped := fattree.PipelinedScheduleTicks(ft, s.Cycles, 8)
	if piped > serial {
		t.Errorf("pipelined %d > serial %d", piped, serial)
	}
}
