package workload

import (
	"fmt"

	"fattree/internal/core"
)

// Adversarial generators: message sets engineered to concentrate load at a
// chosen part of the tree, used by stress tests and scheduler ablations.

// LevelStress returns k messages whose least common ancestors all sit at tree
// level `level` (0 = root): each message crosses a random switch of that
// level from its left subtree to its right subtree. The load lands exactly on
// the channels at levels level+1 .. lg n, peaking just below the chosen
// switches — the knob for probing one rung of the capacity profile.
func LevelStress(n, level, k int, seed int64) core.MessageSet {
	requirePow2("LevelStress", n)
	lgn := 0
	for 1<<uint(lgn) < n {
		lgn++
	}
	if level < 0 || level >= lgn {
		panic(fmt.Sprintf("workload: LevelStress level %d outside [0,%d)", level, lgn))
	}
	requireMessages("LevelStress", k)
	rng := getSource(seed)
	defer sourcePool.Put(rng)
	subtreeLeaves := n >> uint(level+1) // leaves under each child of a level node
	ms := make(core.MessageSet, 0, k)
	for len(ms) < k {
		node := rng.intn(1 << uint(level)) // which switch at the level
		base := node * 2 * subtreeLeaves
		src := base + rng.intn(subtreeLeaves)
		dst := base + subtreeLeaves + rng.intn(subtreeLeaves)
		if rng.intn(2) == 0 {
			src, dst = dst, src
		}
		ms = append(ms, core.Message{Src: src, Dst: dst})
	}
	return ms
}

// Funnel returns k messages from uniformly random sources into a contiguous
// destination window [lo, lo+width) — a multi-processor hot region whose
// shared subtree becomes the bottleneck.
//
// Validation is up front, like every other generator here: Funnel used to
// accept n = 1 (window [0,1)) and then spin forever because every draw gave
// src == dst. requirePow2 forces n >= 2, so a src outside any window — and
// hence termination of the rejection loop — is always reachable.
func Funnel(n, lo, width, k int, seed int64) core.MessageSet {
	requirePow2("Funnel", n)
	requireMessages("Funnel", k)
	if lo < 0 || width < 1 || lo+width > n {
		panic(fmt.Sprintf("workload: Funnel window [%d,%d) outside [0,%d)", lo, lo+width, n))
	}
	rng := getSource(seed)
	defer sourcePool.Put(rng)
	ms := make(core.MessageSet, 0, k)
	for len(ms) < k {
		src := rng.intn(n)
		dst := lo + rng.intn(width)
		if src != dst {
			ms = append(ms, core.Message{Src: src, Dst: dst})
		}
	}
	return ms
}

// RandomTreeProfile builds a random but monotone (non-increasing toward the
// leaves) capacity profile for property tests: cap at level k is drawn in
// [1, maxCap] with cap(k) <= cap(k-1).
func RandomTreeProfile(n, maxCap int, seed int64) *core.FatTree {
	requirePow2("RandomTreeProfile", n)
	rng := getSource(seed)
	defer sourcePool.Put(rng)
	lgn := 0
	for 1<<uint(lgn) < n {
		lgn++
	}
	caps := make([]int, lgn+1)
	cur := 1 + rng.intn(maxCap)
	for k := 0; k <= lgn; k++ {
		caps[k] = cur
		if cur > 1 {
			cur = 1 + rng.intn(cur)
		}
	}
	return core.New(n, func(k int) int { return caps[k] })
}
