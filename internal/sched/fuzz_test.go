package sched

import (
	"reflect"
	"testing"

	"fattree/internal/core"
)

// decodeFuzzMessages turns raw fuzz bytes into a valid message set on a
// deterministic tree: byte 0 picks the tree size and root capacity, then
// each subsequent byte pair is a (src, dst) candidate; self-loops are
// skipped so the set always validates.
func decodeFuzzMessages(data []byte) (*core.FatTree, core.MessageSet) {
	shape := byte(0)
	if len(data) > 0 {
		shape = data[0]
		data = data[1:]
	}
	n := 8 << (shape % 3)        // 8, 16, 32
	w := 1 << (1 + (shape>>2)%4) // 2, 4, 8, 16
	ft := core.NewUniversal(n, w)
	var ms core.MessageSet
	for i := 0; i+1 < len(data) && len(ms) < 4*n; i += 2 {
		src, dst := int(data[i])%n, int(data[i+1])%n
		if src == dst {
			continue
		}
		ms = append(ms, core.Message{Src: src, Dst: dst})
	}
	return ft, ms
}

// sameSchedule fails the test unless got is bit-identical to want — same
// cycles in the same order, same bound, same load factor. Loan semantics make
// call order matter: compare a scheduler's result before its next call.
func sameSchedule(t *testing.T, label string, want, got *Schedule) {
	t.Helper()
	if len(got.Cycles) != len(want.Cycles) {
		t.Fatalf("%s: %d cycles, want %d", label, len(got.Cycles), len(want.Cycles))
	}
	for c := range want.Cycles {
		if !reflect.DeepEqual(want.Cycles[c], got.Cycles[c]) {
			t.Fatalf("%s: cycle %d differs:\nwant %v\ngot  %v",
				label, c, want.Cycles[c], got.Cycles[c])
		}
	}
	if want.Bound != got.Bound || want.LoadFactor != got.LoadFactor {
		t.Fatalf("%s: bound/load-factor mismatch", label)
	}
}

// FuzzSchedule cross-checks the Theorem 1 scheduler against its run on the
// binary-shaped KaryFatTree twin of the tree and against a reused arena-backed Scheduler on fuzz-generated message
// sets: every schedule must verify as a valid partition of the input, and a
// reused scheduler must match a fresh one across shrinking and regrowing
// message sets (the arena reuse contract of DESIGN.md §9). Seed inputs live
// in testdata/fuzz/FuzzSchedule.
func FuzzSchedule(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 7, 3, 4})
	f.Add([]byte{1, 0, 15, 15, 0, 1, 14, 2, 13, 3, 12})
	f.Add([]byte{9, 5, 5, 5, 6, 5, 7, 5, 8, 6, 5, 7, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		ft, ms := decodeFuzzMessages(data)
		serial := OffLine(ft, ms)
		if err := serial.Verify(ms); err != nil {
			t.Fatalf("OffLine produced an invalid schedule: %v", err)
		}
		sc := NewScheduler(ft)
		sameSchedule(t, "scheduler", serial, sc.OffLine(ms))
		// Twin phase: the scheduler is pure heap-index arithmetic, so running
		// it against the binary-shaped KaryFatTree with the same capacity
		// profile must reproduce the FatTree schedule bit for bit.
		caps := ft.LevelCapTable()
		desc := core.KaryDesc{
			Down:     make([]int, ft.Levels()),
			Up:       make([]int, ft.Levels()),
			Parallel: make([]int, ft.Levels()),
			Root:     caps[0],
		}
		for i := 0; i < ft.Levels(); i++ {
			desc.Down[i], desc.Up[i], desc.Parallel[i] = 2, caps[i+1], 1
		}
		twin := OffLine(core.NewKary(desc), ms)
		if err := twin.Verify(ms); err != nil {
			t.Fatalf("OffLine on the binary-shaped k-ary twin produced an invalid schedule: %v", err)
		}
		sameSchedule(t, "kary twin", serial, twin)

		// Scheduler-reuse phases: shrink the message set, then regrow it. The
		// reused scheduler's arena has been stretched by the full set and
		// dirtied by every intermediate call; each result must still be
		// bit-identical to a fresh scheduler's. Each loan is compared before
		// the next call invalidates it.
		phases := []core.MessageSet{ms[:len(ms)/2], ms[:len(ms)/4], ms}
		for i, phase := range phases {
			fresh := OffLine(ft, phase)
			reused := sc.OffLine(phase)
			if err := reused.Verify(phase); err != nil {
				t.Fatalf("phase %d: reused scheduler produced an invalid schedule: %v", i, err)
			}
			sameSchedule(t, "reused", fresh, reused)
		}
	})
}
