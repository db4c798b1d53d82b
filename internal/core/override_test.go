package core

import (
	"fmt"
	"testing"
)

// mustPanicMsg runs fn and asserts it panics with exactly want.
func mustPanicMsg(t *testing.T, label, want string, fn func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("%s: no panic, want %q", label, want)
		}
		if got := fmt.Sprint(r); got != want {
			t.Fatalf("%s: panic %q, want %q", label, got, want)
		}
	}()
	fn()
}

// binaryTrees returns an 8-leaf FatTree and a binary-shaped KaryFatTree:
// the two Topology implementations whose node numbering is the heap's.
func binaryTrees() map[string]Topology {
	return map[string]Topology{
		"materialized": NewUniversal(8, 4),
		"binary-kary":  NewKary(KaryDesc{Down: []int{2, 2, 2}, Up: []int{2, 2, 1}, Parallel: []int{1, 1, 1}}),
	}
}

// TestSetChannelCapacityValidation pins the bugfix that made out-of-range
// validation identical across Topology implementations: a FatTree and a
// binary-shaped KaryFatTree must reject cap < 1 and v outside [1, 2n) with
// the same panics, in the same order (capacity first), and must not mutate
// anything on a rejected call. The boundary nodes 1 and 2n-1 must be
// accepted by both.
func TestSetChannelCapacityValidation(t *testing.T) {
	const n = 8
	for name, tr := range binaryTrees() {
		t.Run(name, func(t *testing.T) {
			capMsg := "core: capacity 0 must be >= 1"
			rangeMsg := fmt.Sprintf("core: node %%d out of range [1,%d)", 2*n)

			mustPanicMsg(t, "cap=0", capMsg, func() { tr.SetChannelCapacity(1, 0) })
			mustPanicMsg(t, "cap=-3", "core: capacity -3 must be >= 1", func() { tr.SetChannelCapacity(1, -3) })
			mustPanicMsg(t, "v=0", fmt.Sprintf(rangeMsg, 0), func() { tr.SetChannelCapacity(0, 2) })
			mustPanicMsg(t, "v=-1", fmt.Sprintf(rangeMsg, -1), func() { tr.SetChannelCapacity(-1, 2) })
			mustPanicMsg(t, "v=2n", fmt.Sprintf(rangeMsg, 2*n), func() { tr.SetChannelCapacity(2*n, 2) })
			// Both arguments invalid: the capacity check fires first on both
			// implementations, so error behavior cannot depend on which
			// implementation a caller holds.
			mustPanicMsg(t, "both-bad", capMsg, func() { tr.SetChannelCapacity(0, 0) })

			// Rejected calls must not have mutated the overlay.
			count := 0
			tr.Overrides(func(int, int) { count++ })
			if count != 0 {
				t.Fatalf("rejected calls left %d overrides behind", count)
			}

			// Boundary acceptance: the root and the last leaf.
			tr.SetChannelCapacity(1, 2)
			tr.SetChannelCapacity(2*n-1, 1)
			if got := tr.CapAt(1); got != 2 {
				t.Fatalf("root override not applied: %d", got)
			}
			if got := tr.CapAt(2*n - 1); got != 1 {
				t.Fatalf("leaf override not applied: %d", got)
			}
		})
	}
}

// TestFailNodeValidation pins FailNode's up-front range check on both binary
// trees: a bad index panics with one message and leaves the tree
// untouched — never half-failed.
func TestFailNodeValidation(t *testing.T) {
	const n = 8
	for name, tr := range binaryTrees() {
		t.Run(name, func(t *testing.T) {
			for _, v := range []int{0, -2, 2 * n, 100} {
				want := fmt.Sprintf("core: FailNode: node %d out of range [1,%d)", v, 2*n)
				mustPanicMsg(t, fmt.Sprintf("v=%d", v), want, func() { FailNode(tr, v) })
			}
			count := 0
			tr.Overrides(func(int, int) { count++ })
			if count != 0 {
				t.Fatalf("rejected FailNode left %d overrides behind", count)
			}

			FailNode(tr, 2) // interior node: its channel and both children collapse
			for _, v := range []int{2, 4, 5} {
				if got := tr.CapAt(v); got != 1 {
					t.Fatalf("node %d capacity %d after FailNode, want 1", v, got)
				}
			}
		})
	}
}
