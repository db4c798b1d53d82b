package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"fattree/internal/concentrator"
	"fattree/internal/core"
	"fattree/internal/sched"
	"fattree/internal/workload"
)

// The parallel delivery-cycle path must be bit-identical to the serial
// reference path: same delivered messages, same drop/deferral counts, same
// per-cycle outcomes, same wire assignments — for any worker count, for ideal
// and partial concentrators, with and without transient-fault injection.
// These tests are the proof the speedup rests on.

// workerCounts is the sweep the equivalence property is checked across.
func workerCounts() []int {
	counts := []int{1, 2}
	if g := runtime.GOMAXPROCS(0); g != 1 && g != 2 {
		counts = append(counts, g)
	}
	return counts
}

type engineConfig struct {
	kind concentrator.Kind
	loss float64 // transient-fault rate; 0 disables InjectLoss
}

func (c engineConfig) String() string {
	kind := "ideal"
	if c.kind == concentrator.KindPartial {
		kind = "partial"
	}
	return fmt.Sprintf("%s/loss=%v", kind, c.loss)
}

func engineConfigs() []engineConfig {
	return []engineConfig{
		{concentrator.KindIdeal, 0},
		{concentrator.KindIdeal, 0.03},
		{concentrator.KindPartial, 0},
		{concentrator.KindPartial, 0.03},
	}
}

// buildEngine constructs a fresh engine for the config; serial and parallel
// runs each get their own so per-switch RNG streams start identically.
func buildEngine(t *core.FatTree, cfg engineConfig, seed int64, workers int) *Engine {
	e := NewWithOptions(t, cfg.kind, seed, Options{Workers: workers})
	if cfg.loss > 0 {
		e.InjectLoss(cfg.loss, seed+1)
	}
	return e
}

func TestRunParallelEquivalence(t *testing.T) {
	sizes := []int{64, 256, 1024}
	if testing.Short() {
		sizes = []int{64, 256}
	}
	for _, n := range sizes {
		ft := core.NewUniversal(n, n/4)
		for _, cfg := range engineConfigs() {
			ms := workload.Random(n, 3*n, int64(n))
			serial := buildEngine(ft, cfg, 42, 1)
			want := serial.Run(ms)
			for _, w := range workerCounts() {
				parallel := buildEngine(ft, cfg, 42, w)
				got := parallel.RunParallel(ms)
				if !reflect.DeepEqual(want, got) {
					t.Errorf("n=%d %v workers=%d: RunParallel diverged from Run:\nserial   %+v\nparallel %+v",
						n, cfg, w, want, got)
				}
			}
		}
	}
}

// TestRunParallelPropertySweep is a seeded quick-style sweep over random tree
// profiles and workload families: every sampled instance must satisfy the
// parallel == serial property across worker counts.
func TestRunParallelPropertySweep(t *testing.T) {
	iters := 30
	if testing.Short() {
		iters = 8
	}
	for it := 0; it < iters; it++ {
		seed := int64(1000 + it)
		rng := rand.New(rand.NewSource(seed))
		n := 1 << (4 + rng.Intn(4)) // 16..128
		ft := workload.RandomTreeProfile(n, 10, seed)
		var ms core.MessageSet
		switch rng.Intn(4) {
		case 0:
			ms = workload.Random(n, 1+rng.Intn(5*n), seed+1)
		case 1:
			ms = workload.RandomPermutation(n, seed+1)
		case 2:
			ms = workload.BitReversal(n)
		default:
			ms = workload.HotSpot(n, 1+rng.Intn(3*n), seed+1)
		}
		cfgs := engineConfigs()
		cfg := cfgs[rng.Intn(len(cfgs))]
		want := buildEngine(ft, cfg, seed, 1).Run(ms)
		for _, w := range workerCounts() {
			got := buildEngine(ft, cfg, seed, w).RunParallel(ms)
			if !reflect.DeepEqual(want, got) {
				t.Errorf("iter %d (n=%d %v workers=%d): diverged:\nserial   %+v\nparallel %+v",
					it, n, cfg, w, want, got)
			}
		}
	}
}

// TestCycleParallelMatchesSerialExact compares a single delivery cycle at
// full fidelity: per-message delivered flags, counts, the complete wire
// histories, and the bit-serial tick count of the delivered set.
func TestCycleParallelMatchesSerialExact(t *testing.T) {
	for _, n := range []int{16, 64, 256} {
		ft := core.NewUniversal(n, n/4)
		for _, cfg := range engineConfigs() {
			ms := workload.Random(n, 2*n, int64(7*n))
			serial := buildEngine(ft, cfg, 9, 1)
			wantDel, wantRes := serial.runCycle(ms, nil)
			wantHist := serial.histories(serial.scr.flights)
			for _, w := range workerCounts() {
				e := buildEngine(ft, cfg, 9, w)
				gotDel, gotRes := e.runCycle(ms, e.pool)
				gotHist := e.histories(e.scr.flights)
				if !reflect.DeepEqual(wantDel, gotDel) {
					t.Fatalf("n=%d %v workers=%d: delivered flags diverged", n, cfg, w)
				}
				if wantRes != gotRes {
					t.Fatalf("n=%d %v workers=%d: counts diverged: %+v vs %+v", n, cfg, w, wantRes, gotRes)
				}
				if !reflect.DeepEqual(wantHist, gotHist) {
					t.Fatalf("n=%d %v workers=%d: wire histories diverged", n, cfg, w)
				}
				var wantSet, gotSet core.MessageSet
				for i := range ms {
					if wantDel[i] {
						wantSet = append(wantSet, ms[i])
					}
					if gotDel[i] {
						gotSet = append(gotSet, ms[i])
					}
				}
				if CycleTicks(ft, wantSet, 32) != CycleTicks(ft, gotSet, 32) {
					t.Fatalf("n=%d %v workers=%d: tick counts diverged", n, cfg, w)
				}
			}
		}
	}
}

// TestRunCyclesParallelEquivalence plays Theorem 1 schedules through both
// paths: identical stats, and on ideal switches zero drops either way.
func TestRunCyclesParallelEquivalence(t *testing.T) {
	for _, n := range []int{64, 256} {
		ft := core.NewUniversal(n, n/4)
		ms := workload.Random(n, 4*n, int64(n)+3)
		s := sched.OffLine(ft, ms)
		if err := s.Verify(ms); err != nil {
			t.Fatalf("n=%d: bad schedule: %v", n, err)
		}
		for _, cfg := range engineConfigs() {
			want := buildEngine(ft, cfg, 5, 1).RunCycles(s.Cycles)
			for _, w := range workerCounts() {
				got := buildEngine(ft, cfg, 5, w).RunCyclesParallel(s.Cycles)
				if !reflect.DeepEqual(want, got) {
					t.Errorf("n=%d %v workers=%d: schedule playback diverged:\nserial   %+v\nparallel %+v",
						n, cfg, w, want, got)
				}
			}
			if cfg.kind == concentrator.KindIdeal && cfg.loss == 0 && (want.Drops != 0 || want.Delivered != len(ms)) {
				t.Errorf("n=%d: ideal schedule playback lost messages: %+v", n, want)
			}
		}
	}
}

// TestParallelExternalMessages covers the root-interface paths (external
// inputs inject at the root, outputs exit through it) on both cycle paths.
func TestParallelExternalMessages(t *testing.T) {
	n := 64
	ft := core.NewUniversal(n, 16)
	var ms core.MessageSet
	for p := 0; p < n; p += 2 {
		ms = append(ms, core.Message{Src: core.External, Dst: p})
		ms = append(ms, core.Message{Src: p + 1, Dst: core.External})
	}
	for _, cfg := range engineConfigs() {
		want := buildEngine(ft, cfg, 11, 1).Run(ms)
		for _, w := range workerCounts() {
			got := buildEngine(ft, cfg, 11, w).RunParallel(ms)
			if !reflect.DeepEqual(want, got) {
				t.Errorf("%v workers=%d: external traffic diverged:\nserial   %+v\nparallel %+v",
					cfg, w, want, got)
			}
		}
	}
}

// TestRunCycleDispatch pins the auto path: a one-worker engine must use the
// serial reference, a multi-worker engine the parallel path, and both must
// agree with the explicit methods.
func TestRunCycleDispatch(t *testing.T) {
	n := 64
	ft := core.NewUniversal(n, 16)
	ms := workload.RandomPermutation(n, 3)
	e1 := NewWithOptions(ft, concentrator.KindIdeal, 0, Options{Workers: 1})
	if e1.Workers() != 1 {
		t.Fatalf("Workers() = %d, want 1", e1.Workers())
	}
	e4 := NewWithOptions(ft, concentrator.KindIdeal, 0, Options{Workers: 4})
	if e4.Workers() != 4 {
		t.Fatalf("Workers() = %d, want 4", e4.Workers())
	}
	d1, r1 := e1.RunCycle(ms)
	d4, r4 := e4.RunCycle(ms)
	if !reflect.DeepEqual(d1, d4) || r1 != r4 {
		t.Fatalf("RunCycle dispatch diverged: %+v vs %+v", r1, r4)
	}
	if def := New(ft, concentrator.KindIdeal, 0); def.Workers() != runtime.GOMAXPROCS(0) {
		t.Fatalf("New defaults to %d workers, want GOMAXPROCS", def.Workers())
	}
}
