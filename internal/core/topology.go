package core

import "fmt"

// HeapIndexed reports whether t is binary — every tier has arity 2 — so its
// level-order numbering is the complete-binary heap numbering: 2n-1 nodes
// with processor p at leaf n+p, Parent v/2, and level k spanning
// [2^k, 2^(k+1)). Every tree New and the profile constructors build is;
// NewKary builds one exactly when its descriptor is all-binary. Consumers
// whose algorithms are bound to the binary shape — the Theorem 1 scheduler's
// bisection machinery, the streaming simulation plane, the layout and
// visualization walkers — gate on this and keep their own bit arithmetic.
func HeapIndexed(t *FatTree) bool {
	return t.Nodes() == 2*t.Processors()-1 && t.Leaf(0) == t.Processors()
}

// RequireHeapIndexed panics unless t is binary (HeapIndexed). Entry points
// that navigate their tree with heap arithmetic (v/2, 2v, n+p, bits.Len on
// node ids) call it before doing any work, so a k-ary tree is refused up
// front instead of being misrouted.
func RequireHeapIndexed(t *FatTree, who string) {
	if !HeapIndexed(t) {
		panic(fmt.Sprintf("%s needs a binary (heap-indexed) fat-tree; got %v", who, t))
	}
}

// CapTableOf returns a freshly allocated flat capacity table for t, indexed
// by node id: table[v] is the capacity of both channels of the edge above
// node v (index 0 is unused), built from the per-level profile and the
// override overlay in effect at the call. The result is O(n) memory by
// definition — callers that must stay independent of n (the streaming
// engine, the compact observer) use LevelCapTable and CapAt instead; this
// helper exists for consumers whose own state is per-node anyway, such as
// the scheduler arena, the k-ary engine and the dense observer.
func CapTableOf(t *FatTree) []int {
	table := make([]int, t.Nodes()+1)
	caps := t.LevelCapTable()
	for k := 0; k < len(caps); k++ {
		first, count := t.LevelRange(k)
		for v := first; v < first+count; v++ {
			table[v] = caps[k]
		}
	}
	t.Overrides(func(node, cap int) { table[node] = cap })
	return table
}
