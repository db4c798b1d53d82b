package core

import (
	"fmt"
	"math/rand"
)

// This file models hardware faults, one of the engineering concerns Section
// VII raises ("problems of maintenance, fault tolerance ... must be solved").
// A wire failure narrows its channel; the fat-tree keeps routing — capacities
// merely shrink, load factors rise, and the off-line scheduler adapts because
// it only ever reads cap(c). Robustness is quantified in experiment E17.

// DegradeChannels fails wires at random: each tree edge independently, with
// the given probability, loses a severity fraction of its wires in both
// directions (capacity never drops below one — the last wire is assumed
// repairable). It returns the number of degraded edges. The fat-tree is
// modified in place via capacity overrides.
func DegradeChannels(t *FatTree, probability, severity float64, seed int64) int {
	if probability < 0 || probability > 1 || severity < 0 || severity > 1 {
		panic("core: DegradeChannels needs probability and severity in [0,1]")
	}
	rng := rand.New(rand.NewSource(seed))
	degraded := 0
	for v := 2; v <= t.Nodes(); v++ { // skip the external root channel
		if rng.Float64() >= probability {
			continue
		}
		cap := t.Capacity(Channel{Node: v, Dir: Up})
		newCap := cap - int(float64(cap)*severity+0.5)
		if newCap < 1 {
			newCap = 1
		}
		if newCap < cap {
			t.SetChannelCapacity(v, newCap)
			degraded++
		}
	}
	return degraded
}

// FailNode fails an entire switch: both channels of the edge above node v and
// the edges above its children collapse to a single wire each (the minimal
// still-connected configuration; a totally dead switch would disconnect the
// tree, which the tree topology cannot tolerate — the paper's fat-tree has no
// path diversity between a fixed leaf pair).
func FailNode(t *FatTree, v int) {
	// Validate v before mutating anything: a bad index must not leave the
	// tree half-failed (the first SetChannelCapacity would otherwise apply
	// and then panic on a child, or — for v = 0 — panic after no-op guards).
	nodes := t.Nodes()
	if v < 1 || v > nodes {
		panic(fmt.Sprintf("core: FailNode: node %d out of range [1,%d)", v, nodes+1))
	}
	t.SetChannelCapacity(v, 1)
	first, count := t.Children(v)
	for c := first; c < first+count; c++ {
		t.SetChannelCapacity(c, 1)
	}
}
