package sim

import (
	"fmt"
	"reflect"
	"testing"

	"fattree/internal/concentrator"
	"fattree/internal/core"
	"fattree/internal/sched"
	"fattree/internal/workload"
)

// A run's outcome depends only on the tree, the seed, and the message order:
// two fresh engines built alike produce the same stats, for ideal and partial
// concentrators, with and without transient-fault injection.

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

// buildEngine constructs a fresh engine for the config, so per-switch RNG
// streams start from the seed.
func buildEngine(t *core.FatTree, cfg engineConfig, seed int64) *Engine {
	e := New(t, cfg.kind, seed)
	if cfg.loss > 0 {
		e.InjectLoss(cfg.loss, seed+1)
	}
	return e
}

// TestRunCyclesParallelEquivalence plays Theorem 1 schedules through the
// engine: on lossy or partial switches every loser is carried and drained
// until all messages are delivered, a replay on a fresh engine is identical,
// and on ideal lossless switches nothing is dropped.
func TestRunCyclesParallelEquivalence(t *testing.T) {
	for _, n := range []int{64, 256} {
		ft := core.NewUniversal(n, n/4)
		ms := workload.Random(n, 4*n, int64(n)+3)
		s := sched.OffLine(ft, ms)
		if err := s.Verify(ms); err != nil {
			t.Fatalf("n=%d: bad schedule: %v", n, err)
		}
		for _, cfg := range engineConfigs() {
			want := buildEngine(ft, cfg, 5).RunCycles(s.Cycles)
			if got := buildEngine(ft, cfg, 5).RunCycles(s.Cycles); !reflect.DeepEqual(want, got) {
				t.Errorf("n=%d %v: schedule playback not reproducible:\nfirst  %+v\nsecond %+v", n, cfg, want, got)
			}
			if want.Delivered != len(ms) {
				t.Errorf("n=%d %v: playback delivered %d of %d", n, cfg, want.Delivered, len(ms))
			}
			if want.Cycles < len(s.Cycles) || len(want.PerCycle) != want.Cycles {
				t.Errorf("n=%d %v: %d cycles for a %d-cycle schedule: %+v", n, cfg, want.Cycles, len(s.Cycles), want)
			}
			lossless := cfg.kind == concentrator.KindIdeal && cfg.loss == 0
			if lossless && (want.Drops != 0 || want.Cycles != len(s.Cycles)) {
				t.Errorf("n=%d: ideal schedule playback lost messages: %+v", n, want)
			}
			if cfg.loss > 0 && want.Drops == 0 {
				t.Errorf("n=%d %v: vacuous drain case, no drops: %+v", n, cfg, want)
			}
		}
	}
}

// TestParallelExternalMessages covers the root-interface paths: external
// inputs inject at the root and outputs exit through it.
func TestParallelExternalMessages(t *testing.T) {
	n := 64
	ft := core.NewUniversal(n, 16)
	var ms core.MessageSet
	for p := 0; p < n; p += 2 {
		ms = append(ms, core.Message{Src: core.External, Dst: p})
		ms = append(ms, core.Message{Src: p + 1, Dst: core.External})
	}
	for _, cfg := range engineConfigs() {
		want := buildEngine(ft, cfg, 11).Run(ms)
		if got := buildEngine(ft, cfg, 11).Run(ms); !reflect.DeepEqual(want, got) {
			t.Errorf("%v: external traffic not reproducible:\nfirst  %+v\nsecond %+v", cfg, want, got)
		}
		if want.Delivered != len(ms) {
			t.Errorf("%v: delivered %d of %d external messages: %+v", cfg, want.Delivered, len(ms), want)
		}
	}
}
