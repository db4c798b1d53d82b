package sim

import (
	"reflect"
	"testing"
	"unsafe"

	"fattree/internal/concentrator"
	"fattree/internal/core"
	"fattree/internal/sched"
	"fattree/internal/workload"
)

// TestFlightSize pins the flight record at five ints (40 bytes on a 64-bit
// host): a flight copies no message, which the hooks read from the cycle's
// offer, and keeps no wire history, which only an observer's event ring
// records. A field added back fails here.
func TestFlightSize(t *testing.T) {
	if size := unsafe.Sizeof(flight{}); size > 40 {
		t.Fatalf("flight is %d bytes, want at most 40", size)
	}
}

func TestSingleMessageDelivers(t *testing.T) {
	ft := core.NewConstant(8, 1)
	e := New(ft, concentrator.KindIdeal, 0)
	delivered, res := e.RunCycle(core.MessageSet{{Src: 0, Dst: 7}})
	if !delivered[0] || res.Delivered != 1 || res.Dropped != 0 {
		t.Fatalf("single message not delivered: %+v", res)
	}
}

func TestSiblingMessage(t *testing.T) {
	// A message between siblings turns at the leaf parent without ascending.
	ft := core.NewConstant(8, 1)
	e := New(ft, concentrator.KindIdeal, 0)
	delivered, res := e.RunCycle(core.MessageSet{{Src: 2, Dst: 3}})
	if !delivered[0] || res.Dropped != 0 {
		t.Fatalf("sibling message failed: %+v", res)
	}
}

func TestCongestionDropsExcess(t *testing.T) {
	// Two cross-root messages from the same half on a capacity-1 tree: the
	// level-1 up channel fits one; the other is dropped.
	ft := core.NewConstant(8, 1)
	e := New(ft, concentrator.KindIdeal, 0)
	ms := core.MessageSet{{Src: 0, Dst: 7}, {Src: 2, Dst: 6}}
	delivered, res := e.RunCycle(ms)
	if res.Delivered != 1 {
		t.Fatalf("want exactly 1 delivered, got %+v", res)
	}
	if delivered[0] == delivered[1] {
		t.Fatalf("exactly one message should survive")
	}
	if res.Dropped != 1 {
		t.Fatalf("want 1 drop, got %d", res.Dropped)
	}
}

func TestInjectionDeferral(t *testing.T) {
	// Three messages from one source on a leaf channel of capacity 2: one is
	// deferred before entering the network.
	ft := core.NewConstant(8, 2)
	e := New(ft, concentrator.KindIdeal, 0)
	ms := core.MessageSet{{Src: 0, Dst: 5}, {Src: 0, Dst: 6}, {Src: 0, Dst: 7}}
	_, res := e.RunCycle(ms)
	if res.Deferred != 1 {
		t.Fatalf("want 1 deferral, got %+v", res)
	}
}

func TestOneCycleSetDeliversWithoutLoss(t *testing.T) {
	// Any one-cycle message set must route in a single cycle on ideal
	// switches — the Section III guarantee.
	for _, n := range []int{16, 64} {
		ft := core.NewUniversal(n, n)
		e := New(ft, concentrator.KindIdeal, 0)
		ms := workload.Reversal(n)
		if !core.IsOneCycle(ft, ms) {
			t.Fatalf("precondition: reversal not one-cycle on w=n tree")
		}
		delivered, res := e.RunCycle(ms)
		for i, ok := range delivered {
			if !ok {
				t.Fatalf("n=%d: message %v lost from a one-cycle set (%+v)", n, ms[i], res)
			}
		}
	}
}

func TestRunOnlineDeliversEverything(t *testing.T) {
	for _, tree := range []*core.FatTree{
		core.NewConstant(32, 1),
		core.NewUniversal(32, 8),
		core.NewDoubling(32),
	} {
		e := New(tree, concentrator.KindIdeal, 0)
		ms := workload.Random(32, 200, 5)
		stats := RunOnline(e, ms)
		if stats.Delivered != len(ms) {
			t.Fatalf("%v: delivered %d of %d", tree, stats.Delivered, len(ms))
		}
		if stats.Cycles < 1 {
			t.Fatalf("no cycles recorded")
		}
	}
}

func TestRunScheduleZeroDropsOnIdealSwitches(t *testing.T) {
	// The central integration: a Theorem 1 schedule through the Fig. 3 node
	// hardware with ideal concentrators loses nothing and uses exactly the
	// scheduled number of cycles.
	for _, n := range []int{16, 64, 128} {
		ft := core.NewUniversal(n, n/4)
		ms := workload.Random(n, 5*n, int64(n))
		s := sched.OffLine(ft, ms)
		if err := s.Verify(ms); err != nil {
			t.Fatalf("n=%d: bad schedule: %v", n, err)
		}
		e := New(ft, concentrator.KindIdeal, 0)
		stats := RunSchedule(e, s)
		if stats.Drops != 0 || stats.Deferrals != 0 {
			t.Errorf("n=%d: schedule play lost messages: %+v", n, stats)
		}
		if stats.Cycles != s.Length() {
			t.Errorf("n=%d: played %d cycles for a %d-cycle schedule", n, stats.Cycles, s.Length())
		}
		if stats.Delivered != len(ms) {
			t.Errorf("n=%d: delivered %d of %d", n, stats.Delivered, len(ms))
		}
	}
}

func TestDeliverOffline(t *testing.T) {
	ft := core.NewUniversal(64, 16)
	ms := workload.BitReversal(64)
	stats, s := DeliverOffline(ft, ms)
	if stats.Delivered != len(ms) || stats.Drops != 0 {
		t.Fatalf("offline delivery incomplete: %+v", stats)
	}
	if stats.Cycles != s.Length() {
		t.Fatalf("cycles %d != schedule %d", stats.Cycles, s.Length())
	}
}

func TestPartialSwitchesEventuallyDeliver(t *testing.T) {
	// With Pippenger-style partial concentrators some extra drops occur, but
	// a light workload still completes.
	ft := core.NewUniversal(32, 16)
	e := New(ft, concentrator.KindPartial, 7)
	ms := workload.RandomPermutation(32, 3)
	stats := RunOnline(e, ms)
	if stats.Delivered != len(ms) {
		t.Fatalf("partial switches stalled: %+v", stats)
	}
}

func TestOnlineMatchesLoadFactorOrder(t *testing.T) {
	// Online greedy delivery should finish within a small multiple of
	// λ·lg n cycles on ideal switches for random traffic.
	n := 64
	ft := core.NewConstant(n, 2)
	ms := workload.Random(n, 6*n, 11)
	lam := core.LoadFactor(ft, ms)
	e := New(ft, concentrator.KindIdeal, 0)
	stats := RunOnline(e, ms)
	limit := int(8 * (lam + 1) * float64(ft.Levels()))
	if stats.Cycles > limit {
		t.Errorf("online delivery took %d cycles; λ=%.1f suggests <= %d", stats.Cycles, lam, limit)
	}
}

func TestTicksModel(t *testing.T) {
	ft := core.NewConstant(64, 1)
	// Cross-root message: path 2·lg n = 12 channels.
	m := core.Message{Src: 0, Dst: 63}
	if got := MessageTicks(ft, m, 32); got != 12+32+2 {
		t.Errorf("MessageTicks = %d, want 46", got)
	}
	// Sibling message is much faster.
	if got := MessageTicks(ft, core.Message{Src: 0, Dst: 1}, 32); got != 2+32+2 {
		t.Errorf("sibling MessageTicks = %d, want 36", got)
	}
	if CycleTicks(ft, nil, 8) != 0 {
		t.Errorf("empty cycle should take 0 ticks")
	}
	ms := core.MessageSet{{Src: 0, Dst: 1}, {Src: 0, Dst: 63}}
	if CycleTicks(ft, ms, 8) != MessageTicks(ft, core.Message{Src: 0, Dst: 63}, 8) {
		t.Errorf("cycle ticks should be the max message")
	}
	if MaxCycleTicks(ft, 8) < CycleTicks(ft, ms, 8) {
		t.Errorf("MaxCycleTicks below an actual cycle")
	}
}

func TestCycleTicksIsLogarithmic(t *testing.T) {
	// Doubling n adds exactly 2 ticks (two more channels on the longest
	// path): the O(lg n) delivery-cycle time of Section II.
	prev := 0
	for _, n := range []int{4, 8, 16, 32, 64, 128} {
		ft := core.NewConstant(n, 1)
		ticks := MaxCycleTicks(ft, 0)
		if prev != 0 && ticks != prev+2 {
			t.Errorf("n=%d: ticks %d, want %d", n, ticks, prev+2)
		}
		prev = ticks
	}
}

func TestScheduleTicksTotal(t *testing.T) {
	ft := core.NewUniversal(32, 8)
	ms := workload.Random(32, 100, 13)
	s := sched.OffLine(ft, ms)
	total := ScheduleTicks(ft, s.Cycles, 16)
	if total <= 0 {
		t.Fatalf("non-positive total ticks")
	}
	if total > s.Length()*MaxCycleTicks(ft, 16) {
		t.Fatalf("total ticks exceed cycles × max-cycle bound")
	}
}

func TestPipelinedTicks(t *testing.T) {
	ft := core.NewUniversal(64, 16)
	ms := workload.Random(64, 300, 21)
	s := sched.OffLine(ft, ms)
	serial := ScheduleTicks(ft, s.Cycles, 16)
	piped := PipelinedScheduleTicks(ft, s.Cycles, 16)
	if piped > serial {
		t.Errorf("pipelining made things worse: %d > %d", piped, serial)
	}
	if piped <= 0 {
		t.Errorf("non-positive pipelined ticks")
	}
	// Single cycle: pipelining changes nothing meaningful.
	one := []core.MessageSet{{{Src: 0, Dst: 63}}}
	if PipelinedScheduleTicks(ft, one, 16) < CycleTicks(ft, one[0], 16) {
		t.Errorf("single-cycle pipelined ticks below the cycle's duration")
	}
	if PipelinedScheduleTicks(ft, nil, 16) != 0 {
		t.Errorf("empty schedule should take 0 ticks")
	}
}

func TestLocalTrafficUsesShortCycles(t *testing.T) {
	// The telephone-exchange advantage: local traffic completes its cycles in
	// fewer ticks than global traffic because paths are short.
	n := 256
	ft := core.NewConstant(n, 4)
	local := workload.KLocal(n, 300, 2, 17)
	global := workload.BitReversal(n)
	if CycleTicks(ft, local, 8) >= CycleTicks(ft, global, 8) {
		t.Errorf("local cycle (%d ticks) not faster than global (%d ticks)",
			CycleTicks(ft, local, 8), CycleTicks(ft, global, 8))
	}
}

// TestBinaryKaryRoutesOnStreamPlane pins that shape, not constructor, is
// what the engine sees: NewKary on the all-binary descriptor of a profile
// builds the profile's tree, so it takes partial switches and loss
// injection, and runs exactly as the profile-built tree does.
func TestBinaryKaryRoutesOnStreamPlane(t *testing.T) {
	ft := core.NewUniversal(16, 4)
	caps := ft.LevelCapTable()
	desc := core.KaryDesc{Down: make([]int, ft.Levels()), Up: make([]int, ft.Levels()),
		Parallel: make([]int, ft.Levels()), Root: caps[0]}
	for i := range desc.Down {
		desc.Down[i], desc.Up[i], desc.Parallel[i] = 2, caps[i+1], 1
	}
	ms := workload.Random(16, 64, 3)
	run := func(tree *core.FatTree) Stats {
		e := New(tree, concentrator.KindPartial, 5)
		e.InjectLoss(0.05, 6)
		return e.Run(ms)
	}
	if want, got := run(ft), run(core.NewKary(desc)); !reflect.DeepEqual(got, want) {
		t.Fatalf("binary NewKary tree diverges from the profile-built tree\nprofile %+v\nkary    %+v", want, got)
	}
}
