//go:build !race

// The race detector's sync.Pool drops items at random, so pooled
// allocation counts hold only without it.

package workload

import "testing"

// TestGeneratorAllocs pins the pooled generators: a call allocates only its
// result, and Append into grown storage allocates nothing.
func TestGeneratorAllocs(t *testing.T) {
	seed := int64(0)
	if a := testing.AllocsPerRun(100, func() {
		seed++
		RandomPermutation(64, seed)
	}); a != 1 {
		t.Errorf("RandomPermutation(64): %.1f allocs, want 1 (its result)", a)
	}
	ms := Append(nil, "random", 64, 256, 0, 0)
	if a := testing.AllocsPerRun(100, func() {
		seed++
		ms = Append(ms[:0], "perm", 64, 0, 0, seed)
		ms = Append(ms[:0], "random", 64, 256, 0, seed)
	}); a != 0 {
		t.Errorf("Append into grown storage: %.1f allocs, want 0", a)
	}
}
