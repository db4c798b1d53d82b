package fattree_test

import (
	"reflect"
	"runtime"
	"testing"

	"fattree"
)

// Soak tests exercise the library at supercomputer-ish scales; skipped under
// -short so the ordinary suite stays fast.

func TestSoakLargeSchedule(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	n := 8192
	ft := fattree.NewUniversal(n, 1024)
	ms := fattree.Random(n, 4*n, 1)
	s := fattree.ScheduleOffline(ft, ms)
	if err := s.Verify(ms); err != nil {
		t.Fatalf("%v", err)
	}
	packed := fattree.CompactSchedule(s)
	if err := packed.Verify(ms); err != nil {
		t.Fatalf("compacted: %v", err)
	}
	lam := fattree.LoadFactor(ft, ms)
	if float64(packed.Length()) < lam {
		t.Fatalf("impossible: d < λ")
	}
	t.Logf("n=%d: λ=%.1f, d=%d, compacted=%d, utilization=%.2f",
		n, lam, s.Length(), packed.Length(), packed.Utilization())
}

func TestSoakLargeHardwarePlayback(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	n := 2048
	ft := fattree.NewUniversal(n, 256)
	ms := fattree.Concat(
		fattree.RandomPermutation(n, 2),
		fattree.ExternalIO(n, n/4, n/4, 3),
	)
	s := fattree.ScheduleOffline(ft, ms)
	stats := fattree.RunSchedule(fattree.NewEngine(ft, fattree.SwitchIdeal, 0), s)
	if stats.Drops != 0 || stats.Delivered != len(ms) {
		t.Fatalf("large playback failed: %+v", stats)
	}
}

func TestSoakLargeUniversality(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	n := 1024
	r := fattree.SimulateOnFatTree(fattree.NewHypercube(n), fattree.RandomPermutation(n, 5), 1)
	if r.Slowdown > 4*r.PolylogBound {
		t.Fatalf("slowdown %.1f outside envelope %.1f at n=%d", r.Slowdown, r.PolylogBound, n)
	}
	t.Logf("n=%d: slowdown %.1f, envelope %.1f, normalized %.3f",
		n, r.Slowdown, r.PolylogBound, r.Slowdown/r.PolylogBound)
}

// TestSoakImplicitHugeBoundedMemory is the bounded-memory soak and the CI
// memory-guard: a 2^20-endpoint universal fat-tree simulated to
// completion in bounded time, with three pinned properties. First, the
// retained heap for the topology plus a warmed streaming engine stays under a
// hard bytes/endpoint ceiling (the measured figure is ~9 B/endpoint, see
// EXPERIMENTS.md §A6; the ceiling leaves room for allocator jitter, not for a
// per-node table — any O(n) state blows through it immediately). Second,
// a fresh engine with a per-level observer attached reproduces the
// unobserved run. Third, the conservation law exported at /metrics holds on
// the per-level observer's counters: every offered message is delivered, dropped, or
// deferred.
func TestSoakImplicitHugeBoundedMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	const (
		n       = 1 << 20
		ceiling = 16.0 // bytes/endpoint, under 2x the measured steady state
	)
	ms := fattree.Random(n, n/64, 3)

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ft := fattree.NewUniversal(n, n/4)
	serial := fattree.NewEngine(ft, fattree.SwitchIdeal, 0)
	serial.RunCycle(ms) // warm the scratch arena to its high-water mark
	runtime.GC()
	runtime.ReadMemStats(&after)
	perEndpoint := (float64(after.HeapAlloc) - float64(before.HeapAlloc)) / float64(n)
	if perEndpoint > ceiling {
		t.Fatalf("engine retains %.1f bytes/endpoint at n=2^20, ceiling %.0f", perEndpoint, ceiling)
	}
	t.Logf("n=2^20: %.1f bytes/endpoint retained (ceiling %.0f)", perEndpoint, ceiling)

	// Random sets contend (ideal switches resolve arbitration by dropping,
	// and Run retries), so full delivery — not zero drops — is the invariant.
	ref := serial.Run(ms)
	if ref.Delivered != len(ms) {
		t.Fatalf("serial huge run incomplete: %+v", ref)
	}
	o := fattree.NewObserverCompact(ft)
	e := fattree.NewEngineWithOptions(ft, fattree.SwitchIdeal, 0, fattree.Options{Observer: o})
	if stats := e.Run(ms); !reflect.DeepEqual(stats, ref) {
		t.Fatalf("observed run diverges\nplain    %+v\nobserved %+v", ref, stats)
	}
	c := &o.C
	if c.Offered != c.Delivered+c.Dropped+c.Deferred {
		t.Fatalf("conservation broken: offered %d != delivered %d + dropped %d + deferred %d",
			c.Offered, c.Delivered, c.Dropped, c.Deferred)
	}
	if int(c.Delivered) != len(ms) {
		t.Fatalf("observer counted %d deliveries, want %d", c.Delivered, len(ms))
	}
}

// TestSoakImplicitHugeSetupAlloc is the set-up half of the memory guard: a
// fresh serial engine on a 2^20-endpoint tree with 2^18 root wires, running
// its first RunOnline on 1024 random messages, must allocate in proportion to
// that traffic, not to the channel widths (~2 MiB). Wire guards sized at 8
// bytes per wire of every routed channel allocated ~128 MiB here.
func TestSoakImplicitHugeSetupAlloc(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	const (
		n       = 1 << 20
		ceiling = 4 << 20 // bytes
	)
	ms := fattree.Random(n, n/1024, 11)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	e := fattree.NewEngine(fattree.NewUniversal(n, 1<<18), fattree.SwitchIdeal, 0)
	stats := fattree.RunOnline(e, ms)
	runtime.ReadMemStats(&after)
	if stats.Delivered != len(ms) {
		t.Fatalf("first RunOnline incomplete: %+v", stats)
	}
	allocated := after.TotalAlloc - before.TotalAlloc
	if allocated > ceiling {
		t.Fatalf("set-up and first RunOnline allocated %d bytes, ceiling %d", allocated, ceiling)
	}
	t.Logf("set-up and first RunOnline allocated %.2f MiB (ceiling %d MiB)", float64(allocated)/(1<<20), ceiling>>20)
}

func TestSoakBufferedBigTree(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test")
	}
	n := 1024
	ft := fattree.NewUniversal(n, 256)
	ms := fattree.Random(n, 8*n, 7)
	stats := fattree.RunBuffered(ft, ms, 8)
	if stats.Delivered != len(ms) {
		t.Fatalf("buffered soak incomplete: %+v", stats)
	}
}
