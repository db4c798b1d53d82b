package sched

import (
	"reflect"
	"testing"

	"fattree/internal/core"
	"fattree/internal/obsv"
	"fattree/internal/workload"
)

// TestOffLineObserved checks the scheduler wiring of the observability layer:
// the observed scheduler produces the identical schedule, and its per-level
// counters partition the input — every message is attributed to exactly one
// level (its LCA's, or the external block) and every cycle to the level block
// that emitted it.
func TestOffLineObserved(t *testing.T) {
	n := 32
	ft := core.NewUniversal(n, 8)
	ms := workload.Random(n, 4*n, 3)
	// Mix in external traffic so the lg n + 1 block is exercised.
	ms = append(ms, core.Message{Src: core.External, Dst: 5},
		core.Message{Src: 7, Dst: core.External})

	plain := OffLine(ft, ms)
	o := obsv.New(ft)
	observed := OffLineObserved(ft, ms, o)
	if !reflect.DeepEqual(plain, observed) {
		t.Fatal("observer changed the schedule")
	}

	msgs, cycles := int64(0), int64(0)
	for level := range o.C.LevelMessages {
		msgs += o.C.LevelMessages[level]
		cycles += o.C.LevelCycles[level]
	}
	if msgs != int64(len(ms)) {
		t.Fatalf("per-level messages sum to %d, want %d", msgs, len(ms))
	}
	if cycles != int64(plain.Length()) {
		t.Fatalf("per-level cycles sum to %d, want schedule length %d", cycles, plain.Length())
	}
	if o.C.LevelMessages[ft.Levels()+1] != 2 {
		t.Fatalf("external block holds %d messages, want 2", o.C.LevelMessages[ft.Levels()+1])
	}
}

// TestOffLineObservedArenaReuse re-checks the conservation laws on a reused
// arena-backed scheduler: across repeated observed calls on one Scheduler
// (with a different-sized set in between to dirty the slabs), every call must
// attribute exactly its input messages and exactly its schedule's cycles to
// the per-level counters — no double counting from stale arena state and no
// messages lost to recycled buffers.
func TestOffLineObservedArenaReuse(t *testing.T) {
	n := 32
	ft := core.NewUniversal(n, 8)
	ms := workload.Random(n, 4*n, 3)
	ms = append(ms, core.Message{Src: core.External, Dst: 5},
		core.Message{Src: 7, Dst: core.External})
	small := workload.Random(n, n/2, 9)

	want := OffLine(ft, ms)
	sc := NewScheduler(ft)
	o := obsv.New(ft)
	prevMsgs, prevCycles := int64(0), int64(0)
	for round := 0; round < 3; round++ {
		observed := sc.OffLineObserved(ms, o)
		if !reflect.DeepEqual(want, observed) {
			t.Fatalf("round %d: reused observed scheduler changed the schedule", round)
		}
		msgs, cycles := int64(0), int64(0)
		for level := range o.C.LevelMessages {
			msgs += o.C.LevelMessages[level]
			cycles += o.C.LevelCycles[level]
		}
		// Counters are cumulative; each round must add exactly one run's worth.
		if msgs-prevMsgs != int64(len(ms)) {
			t.Fatalf("round %d: %d messages attributed, want %d", round, msgs-prevMsgs, len(ms))
		}
		if cycles-prevCycles != int64(want.Length()) {
			t.Fatalf("round %d: %d cycles attributed, want %d", round, cycles-prevCycles, want.Length())
		}
		prevMsgs, prevCycles = msgs, cycles
		// Dirty the arena with an unobserved, differently sized workload.
		sc.OffLine(small)
	}
}
