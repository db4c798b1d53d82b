// Benchmarks regenerating every experiment of the paper (one per
// table/figure; see DESIGN.md §3 and EXPERIMENTS.md), plus micro-benchmarks
// of the core primitives. Run with:
//
//	go test -bench=. -benchmem
package fattree_test

import (
	"io"
	"runtime"
	"testing"

	"fattree"
	"fattree/internal/experiments"
)

// benchExperiment runs one experiment per iteration at quick sizes.
func benchExperiment(b *testing.B, id string) {
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := e.RunAndPrint(io.Discard, experiments.Options{Quick: true, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkE1Topology(b *testing.B)        { benchExperiment(b, "E1") }
func BenchmarkE2Concentrator(b *testing.B)    { benchExperiment(b, "E2") }
func BenchmarkE3OfflineSchedule(b *testing.B) { benchExperiment(b, "E3") }
func BenchmarkE4BigChannels(b *testing.B)     { benchExperiment(b, "E4") }
func BenchmarkE5Hardware(b *testing.B)        { benchExperiment(b, "E5") }
func BenchmarkE6Decomposition(b *testing.B)   { benchExperiment(b, "E6") }
func BenchmarkE7Balanced(b *testing.B)        { benchExperiment(b, "E7") }
func BenchmarkE8Universality(b *testing.B)    { benchExperiment(b, "E8") }
func BenchmarkE9NonUniversal(b *testing.B)    { benchExperiment(b, "E9") }
func BenchmarkE10Locality(b *testing.B)       { benchExperiment(b, "E10") }
func BenchmarkE11Permutation(b *testing.B)    { benchExperiment(b, "E11") }
func BenchmarkE12BitSerial(b *testing.B)      { benchExperiment(b, "E12") }
func BenchmarkE13Online(b *testing.B)         { benchExperiment(b, "E13") }
func BenchmarkE14CCC(b *testing.B)            { benchExperiment(b, "E14") }
func BenchmarkE15Layout(b *testing.B)         { benchExperiment(b, "E15") }
func BenchmarkE16Applications(b *testing.B)   { benchExperiment(b, "E16") }
func BenchmarkE17Faults(b *testing.B)         { benchExperiment(b, "E17") }
func BenchmarkE18Mesh3D(b *testing.B)         { benchExperiment(b, "E18") }
func BenchmarkE19Buffered(b *testing.B)       { benchExperiment(b, "E19") }
func BenchmarkE20Online(b *testing.B)         { benchExperiment(b, "E20") }
func BenchmarkE21ExternalIO(b *testing.B)     { benchExperiment(b, "E21") }
func BenchmarkE22Clos(b *testing.B)           { benchExperiment(b, "E22") }
func BenchmarkE23Portability(b *testing.B)    { benchExperiment(b, "E23") }
func BenchmarkE24AreaUniversal(b *testing.B)  { benchExperiment(b, "E24") }
func BenchmarkE25Saturation(b *testing.B)     { benchExperiment(b, "E25") }
func BenchmarkA1ProfileAblation(b *testing.B) { benchExperiment(b, "A1") }
func BenchmarkA2SwitchAblation(b *testing.B)  { benchExperiment(b, "A2") }

// Micro-benchmarks of the primitives the experiments are built from.

func BenchmarkLoadFactor(b *testing.B) {
	ft := fattree.NewUniversal(1024, 256)
	ms := fattree.Random(1024, 4096, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if fattree.LoadFactor(ft, ms) <= 0 {
			b.Fatal("bad load factor")
		}
	}
}

func BenchmarkEvenBisect(b *testing.B) {
	ft := fattree.NewConstant(1024, 1)
	// Root-crossing messages.
	var ms fattree.MessageSet
	for p := 0; p < 512; p++ {
		ms = append(ms, fattree.Message{Src: p, Dst: 1023 - p})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, c := fattree.EvenBisect(ft, 1, ms)
		if len(a)+len(c) != len(ms) {
			b.Fatal("bisect lost messages")
		}
	}
}

func BenchmarkCompact(b *testing.B) {
	n := 1024
	ft := fattree.NewUniversal(n, n/4)
	ms := fattree.Random(n, 4*n, 1)
	s := fattree.ScheduleOffline(ft, ms)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if fattree.CompactSchedule(s).Length() == 0 {
			b.Fatal("empty schedule")
		}
	}
}

func BenchmarkRunBuffered(b *testing.B) {
	ft := fattree.NewUniversal(256, 64)
	ms := fattree.RandomPermutation(256, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if fattree.RunBuffered(ft, ms, 4).Delivered != len(ms) {
			b.Fatal("incomplete")
		}
	}
}

func BenchmarkScheduleOfflineBig(b *testing.B) {
	n := 256
	ft := fattree.NewConstant(n, 2*fattree.Lg(n))
	ms := fattree.Random(n, 8*n, 1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := fattree.ScheduleOfflineBig(ft, ms)
		if s.Length() == 0 {
			b.Fatal("empty schedule")
		}
	}
}

// BenchmarkRunOnline measures the whole greedy retry loop (RunOnline) on a
// reused engine: a random permutation on ideal switches, delivered over as
// many cycles as contention needs. Recorded in EXPERIMENTS.md under "A3 —
// engine execution". The partial/n=64 row runs 256 random messages on the
// paper's partial concentrators, where every node run is routed through
// its materialized switch. The kary/n=4096 row runs the permutation on a
// radix-16 tree (three tiers of 16 children) whose channels follow the
// universal profile of the n=4096 row, where every down step places its
// winners for up to 16 children and every merge is 16-way.
func BenchmarkRunOnline(b *testing.B) {
	for _, n := range []int{256, 1024, 4096} {
		b.Run("n="+itoa(n), func(b *testing.B) {
			ft := fattree.NewUniversal(n, n/4)
			benchRunOnline(b, fattree.NewEngine(ft, fattree.SwitchIdeal, 0), fattree.RandomPermutation(n, 1))
		})
	}
	b.Run("partial/n=64", func(b *testing.B) {
		ft := fattree.NewUniversal(64, 16)
		benchRunOnline(b, fattree.NewEngine(ft, fattree.SwitchPartial, 0), fattree.Random(64, 256, 1))
	})
	b.Run("kary/n=4096", func(b *testing.B) {
		const n = 4096
		desc := fattree.KaryDesc{Down: []int{16, 16, 16}, Up: make([]int, 3), Parallel: []int{1, 1, 1},
			Root: fattree.UniversalCapacity(n, n/4, 0)}
		for i := range desc.Up {
			desc.Up[i] = fattree.UniversalCapacity(n, n/4, 4*(i+1)) // a tier spans four binary levels
		}
		ft := fattree.NewKary(desc)
		benchRunOnline(b, fattree.NewEngine(ft, fattree.SwitchIdeal, 0), fattree.RandomPermutation(n, 1))
	})
}

// benchRunOnline is one BenchmarkRunOnline row: RunOnline of ms on e,
// warmed once so the measured loop is steady state.
func benchRunOnline(b *testing.B, e *fattree.Engine, ms fattree.MessageSet) {
	fattree.RunOnline(e, ms) // warm the scratch arena
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if stats := fattree.RunOnline(e, ms); stats.Delivered != len(ms) {
			b.Fatalf("delivered %d of %d", stats.Delivered, len(ms))
		}
	}
}

// BenchmarkRouteCycleSerial isolates one delivery cycle (no retry loop), the
// hottest unit of work in the repository: an ideal-switch permutation on the
// streaming plane at the standard sizes. allocs/op is the tracked figure:
// the cycle data plane is required to reach zero steady-state heap
// allocation (the first iteration warms the engine's scratch arena).
// Recorded in EXPERIMENTS.md under "A4 — allocation-free delivery cycles".
func BenchmarkRouteCycleSerial(b *testing.B) {
	for _, n := range []int{256, 1024, 4096} {
		b.Run("n="+itoa(n), func(b *testing.B) {
			ft := fattree.NewUniversal(n, n/4)
			ms := fattree.RandomPermutation(n, 1)
			e := fattree.NewEngine(ft, fattree.SwitchIdeal, 0)
			// Warm the scratch arena so the measured loop is steady state.
			e.RunCycle(ms)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				delivered, res := e.RunCycle(ms)
				if res.Delivered == 0 || len(delivered) != len(ms) {
					b.Fatalf("cycle delivered %d of %d", res.Delivered, len(ms))
				}
			}
		})
	}
}

// BenchmarkRouteCycleImplicit isolates one steady-state delivery cycle of
// sparse random traffic (n/64 messages) on the streaming plane at scales
// where no per-node state fits in memory. Like RouteCycleSerial it is pinned
// at 0 allocs/op by the CI bench-guard. Each row also reports B/endpoint, the
// heap the tree and a warmed engine retain per endpoint: the delta of two
// GC'd HeapAlloc readings around construction and one warm-up cycle, taken
// outside the timer. It counts the O(messages) flight table and key lists
// plus the O(levels) capacity profile, so with m = n/64 it stays near
// constant across rows. EXPERIMENTS.md §A6 records it, and
// TestSoakImplicitHugeBoundedMemory pins it at 2^20.
func BenchmarkRouteCycleImplicit(b *testing.B) {
	for _, n := range []int{1 << 16, 1 << 18, 1 << 20} {
		b.Run("n="+itoa(n), func(b *testing.B) {
			ms := fattree.Random(n, n/64, 1)
			var before, after runtime.MemStats
			runtime.GC()
			runtime.ReadMemStats(&before)
			ft := fattree.NewUniversal(n, n/4)
			e := fattree.NewEngine(ft, fattree.SwitchIdeal, 0)
			// Warm the scratch arena to its high-water mark, so the measured
			// loop is steady state and the footprint includes it.
			e.RunCycle(ms)
			runtime.GC()
			runtime.ReadMemStats(&after)
			// Clamped at 0: the first GC may collect more than the engine
			// retains.
			retained := max(int64(after.HeapAlloc)-int64(before.HeapAlloc), 0)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				delivered, res := e.RunCycle(ms)
				if res.Delivered == 0 || len(delivered) != len(ms) {
					b.Fatalf("cycle delivered %d of %d", res.Delivered, len(ms))
				}
			}
			b.ReportMetric(float64(retained)/float64(n), "B/endpoint")
		})
	}
}

// BenchmarkRunOnlineImplicit is the go test twin of perfbench's sim-implicit
// workload: one RunOnline call of n/1024 random messages on a warmed engine
// over the 2^20-endpoint universal tree, a few sparse cycles on the
// streaming plane per call. Its one alloc/op is the Stats.PerCycle profile
// RunOnline returns, as TestRunOnlineImplicitAllocs and the CI bench-guard
// pin.
func BenchmarkRunOnlineImplicit(b *testing.B) {
	const n = 1 << 20
	ft := fattree.NewUniversal(n, n/4)
	ms := fattree.Random(n, n/1024, 1)
	e := fattree.NewEngine(ft, fattree.SwitchIdeal, 0)
	fattree.RunOnline(e, ms) // warm the scratch arena
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if stats := fattree.RunOnline(e, ms); stats.Delivered != len(ms) {
			b.Fatalf("delivered %d of %d", stats.Delivered, len(ms))
		}
	}
}

// BenchmarkServeRoute measures the steady-state request path of the
// multi-tenant daemon: queue accounting, span pushes, one RunServe call on a
// warmed persistent engine with its observer attached, and the RED merge —
// exactly the work cmd/ftserve performs per /v1/route request after dequeue.
// allocs/op is the tracked figure and must stay at 0 (pinned here by the CI
// bench-guard and by TestServeRouteAllocs in cmd/ftserve). The rows build the
// engine as cmd/ftserve does: a universal tree with a per-node observer.
func BenchmarkServeRoute(b *testing.B) {
	for _, n := range []int{64, 256} {
		ft := fattree.NewUniversal(n, n/4)
		b.Run("n="+itoa(n), func(b *testing.B) { benchServeRoute(b, ft) })
	}
}

// benchServeRoute is one BenchmarkServeRoute row on tree ft.
func benchServeRoute(b *testing.B, ft *fattree.FatTree) {
	n := ft.Processors()
	obs := fattree.NewObserver(ft)
	eng := fattree.NewEngineWithOptions(ft, fattree.SwitchIdeal, 1,
		fattree.Options{Observer: obs})
	red := fattree.NewRED()
	spans := fattree.NewSpanRing(4096)
	ms := fattree.RandomPermutation(n, 1)
	// Warm the scratch arena so the measured loop is steady state.
	eng.RunServe(ms)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		trace := uint64(i + 1)
		enq := spans.Now()
		red.QueueEnter()
		deq := spans.Now()
		red.QueueExit((deq - enq) / 1000)
		spans.Push(fattree.Span{
			Trace: trace, Kind: fattree.SpanQueue, Start: enq, Dur: deq - enq,
		})
		st := eng.RunServe(ms)
		end := spans.Now()
		if st.Delivered != len(ms) {
			b.Fatalf("request delivered %d of %d", st.Delivered, len(ms))
		}
		red.ObserveRequest(int64(st.Cycles), (end-deq)/1000, trace, false)
		spans.Push(fattree.Span{
			Trace: trace, Kind: fattree.SpanEngine, Start: deq, Dur: end - deq,
			Cycles: int32(st.Cycles), Msgs: int32(len(ms)),
		})
	}
}

// BenchmarkOffLineSchedule tracks the Theorem 1 scheduler's allocation
// behaviour alongside its speed at the three standard sizes. The schedule is
// produced by a warmed reusable Scheduler — the steady state of any caller
// that schedules more than once — so allocs/op is required to stay at zero
// (pinned by TestOffLineScheduleAllocs and the CI bench-guard).
func BenchmarkOffLineSchedule(b *testing.B) {
	for _, n := range []int{256, 1024, 4096} {
		ft := fattree.NewUniversal(n, n/4)
		ms := fattree.Random(n, 4*n, 1)
		b.Run("n="+itoa(n), func(b *testing.B) {
			sc := fattree.NewScheduler(ft)
			// Warm the scratch arena so the measured loop is steady state.
			sc.OffLine(ms)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s := sc.OffLine(ms)
				if s.Length() == 0 {
					b.Fatal("empty schedule")
				}
			}
		})
	}
}

func BenchmarkDeliverHypercube(b *testing.B) {
	net := fattree.NewHypercube(256)
	ms := fattree.BitReversal(256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := fattree.DeliverOnNetwork(net, ms)
		if r.Cycles == 0 {
			b.Fatal("no cycles")
		}
	}
}

func BenchmarkTheorem10Pipeline(b *testing.B) {
	net := fattree.NewHypercube(64)
	ms := fattree.RandomPermutation(64, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := fattree.SimulateOnFatTree(net, ms, 1)
		if r.FatTreeCycles == 0 {
			b.Fatal("no cycles")
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
