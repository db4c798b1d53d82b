package core

import "fmt"

// Topology is the interface the scheduler, simulator, and observability
// layers program against: everything they need from a fat-tree, with every
// method answerable from O(levels) state. Two implementations exist:
//
//   - FatTree, the binary fat-tree of the paper, heap-indexed and computed
//     from its per-level profile, so a 2^20-endpoint topology occupies a few
//     dozen machine words; and
//   - KaryFatTree, the generalized k-ary shape, numbered from level tables.
//
// Methods that mutate (SetChannelCapacity) or iterate per node (Channels)
// remain part of the contract; Channels is O(n) time but O(1) space and only
// per-node consumers call it.
type Topology interface {
	// Shape.
	Processors() int
	Levels() int
	Nodes() int
	InternalNodes() int

	// Navigation. The binary implementations answer these with heap-index
	// arithmetic (Parent is v/2, level k spans [2^k, 2^(k+1))); KaryFatTree
	// answers from its level-order numbering tables. Parent returns 0 for
	// the root and does not range-check (it is the hot-path primitive);
	// Children returns (0, 0) for a leaf.
	Leaf(p int) int
	ProcessorOf(v int) int
	Level(v int) int
	Parent(v int) int
	Children(v int) (first, count int)
	LevelRange(k int) (first, count int)
	SubtreeLeaves(v int) (lo, hi int)
	Contains(v, p int) bool
	LCA(p, q int) int

	// Capacities: the per-level profile plus the sparse override overlay.
	CapacityAtLevel(k int) int
	Capacity(c Channel) int
	CapAt(v int) int
	RootCapacity() int
	SetChannelCapacity(v, cap int)
	LevelCapTable() []int
	Overrides(fn func(node, cap int))
	TotalWires() int
	Channels(fn func(Channel))

	// Paths.
	PathLength(m Message) int
	Path(m Message, buf []Channel) []Channel
	ExternalPath(m Message, buf []Channel) []Channel
	AddressBits(m Message) int
	CrossesNode(v int, m Message) bool

	fmt.Stringer
}

var (
	_ Topology = (*FatTree)(nil)
	_ Topology = (*KaryFatTree)(nil)
)

// HeapIndexed reports whether t uses the complete-binary heap numbering —
// 2n-1 nodes with processor p at leaf n+p, so Parent is v/2 and level k spans
// [2^k, 2^(k+1)). A FatTree always does; a KaryFatTree does exactly when its
// descriptor is all-binary (its level-order numbering then coincides with the
// heap numbering). Consumers whose algorithms are bound to the binary shape —
// the Theorem 1 scheduler's bisection machinery, the streaming simulation
// plane — gate on this instead of on concrete types, so a binary-shaped
// KaryFatTree qualifies wherever the arithmetic does.
func HeapIndexed(t Topology) bool {
	return t.Nodes() == 2*t.Processors()-1 && t.Leaf(0) == t.Processors()
}

// CapTableOf returns a freshly allocated flat capacity table for any
// Topology, indexed by node id: table[v] is the capacity of both channels of
// the edge above node v (index 0 is unused), built from the per-level
// profile and the override overlay in effect at the call. The result is
// O(n) memory by definition — callers that must stay independent of n (the
// streaming engine, the compact observer) use LevelCapTable and CapAt
// instead; this helper exists for consumers whose own state is per-node
// anyway, such as the scheduler arena, the k-ary engine and the dense
// observer.
func CapTableOf(t Topology) []int {
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
