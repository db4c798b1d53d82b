// Package sched implements the off-line scheduling algorithms of Section III
// of the paper: Theorem 1 (arbitrary fat-trees, d = O(λ(M)·lg n) delivery
// cycles) and Corollary 2 (channels of capacity >= α·lg n, d <= 2(α/(α-1))·λ(M)
// delivery cycles). Both are built on an even-bisection primitive that splits
// the messages crossing a tree node into two halves whose load on *every*
// channel differs by at most one; the bisection is the paper's
// matching-and-tracing construction (strings with source and destination ends,
// hierarchical matching up the tree, then alternating assignment along traced
// strands), reminiscent of switch setting in a Beneš network.
package sched

import (
	"fmt"

	"fattree/internal/core"
)

// end encoding: message q[i] has a source end 2i and a destination end 2i+1.
// mate(e) — the other end of the same string — is e^1. The matching-and-
// tracing machinery itself (bisectPart, matchSorted, traceStrands) lives in
// scheduler.go, where the Scheduler arena drives it allocation-free; the
// exported primitives here validate their preconditions and allocate
// call-local scratch.

// EvenBisect partitions q into two message sets (a, b) such that for every
// channel c of the fat-tree, |load(a,c) - load(b,c)| <= 1, and moreover
// load(a,c) = ceil(load(q,c)/2). All messages of q must cross node v in the
// same direction: every source in one child subtree of v and every destination
// in the other. EvenBisect panics if q violates that precondition, since it is
// only ever called on the crossing sets the schedulers construct.
func EvenBisect(t *core.FatTree, v int, q core.MessageSet) (a, b core.MessageSet) {
	core.RequireHeapIndexed(t, "sched: EvenBisect")
	if len(q) == 0 {
		return nil, nil
	}
	if len(q) == 1 {
		return q.Clone(), nil
	}
	left, right := 2*v, 2*v+1
	srcChild, dstChild := left, right
	if !t.Contains(left, q[0].Src) {
		srcChild, dstChild = right, left
	}
	for _, m := range q {
		if !t.Contains(srcChild, m.Src) || !t.Contains(dstChild, m.Dst) {
			panic(fmt.Sprintf("sched: message %v does not cross node %d from subtree %d to %d",
				m, v, srcChild, dstChild))
		}
	}
	return evenBisectOwned(t, v, q, false, false)
}

// EvenBisectExternal is the analog of EvenBisect for external traffic: all
// messages of q must cross the root interface in the same direction (all
// outputs, dst == External, or all inputs, src == External). The processor
// ends are matched hierarchically over the whole tree; the external ends all
// live at the interface and are paired consecutively. Every channel's load —
// including the root channel's — splits to within one.
func EvenBisectExternal(t *core.FatTree, q core.MessageSet) (a, b core.MessageSet) {
	core.RequireHeapIndexed(t, "sched: EvenBisectExternal")
	if len(q) == 0 {
		return nil, nil
	}
	if len(q) == 1 {
		return q.Clone(), nil
	}
	outbound := q[0].Dst == core.External
	for _, m := range q {
		if !m.IsExternal() || (m.Dst == core.External) != outbound {
			panic(fmt.Sprintf("sched: message %v does not match the external direction", m))
		}
	}
	return evenBisectOwned(t, 0, q, true, outbound)
}

// evenBisectOwned runs bisectPart with freshly allocated scratch and returns
// independently owned halves (b is nil when every message lands on side 0,
// preserving the historical return shape for k <= 1 edge cases).
func evenBisectOwned(t *core.FatTree, v int, q core.MessageSet, external, outbound bool) (a, b core.MessageSet) {
	k := len(q)
	bi := bisector{
		partner: make([]int32, 2*k),
		side:    make([]int8, k),
		keys:    make([]int64, k),
	}
	out := make(core.MessageSet, k)
	la := bisectPart(t, v, q, out, &bi, external, outbound)
	a = out[:la:la]
	if la == k {
		return a, nil
	}
	return a, out[la:]
}
