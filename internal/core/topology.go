package core

import "fmt"

// Topology is the interface the scheduler, simulator, and observability
// layers program against: everything they need from a fat-tree, with every
// method answerable from O(levels) state. Two implementations exist:
//
//   - FatTree, the materialized instance, which additionally offers the flat
//     O(n) CapTable consumed by the dense per-node simulation engine; and
//   - ImplicitFatTree, the computed instance, which deliberately omits it so
//     that a 2^20-endpoint topology occupies a few dozen machine words and
//     consumers are forced onto the streaming/per-level paths.
//
// Both are built from the same embedded geometry, so navigation, capacities,
// and override semantics are identical by construction. Methods that mutate
// (SetChannelCapacity) or iterate per node (Channels) remain part of the
// contract; Channels is O(n) time but O(1) space and only dense consumers
// call it.
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
	_ Topology = (*ImplicitFatTree)(nil)
	_ Topology = (*KaryFatTree)(nil)
)

// HeapIndexed reports whether t uses the complete-binary heap numbering —
// 2n-1 nodes with processor p at leaf n+p, so Parent is v/2 and level k spans
// [2^k, 2^(k+1)). FatTree and ImplicitFatTree always do; a KaryFatTree does
// exactly when its descriptor is all-binary (its level-order numbering then
// coincides with the heap numbering). Consumers whose algorithms are bound to
// the binary shape — the Theorem 1 scheduler's bisection machinery, the
// dense and streaming simulation planes — gate on this instead of on concrete
// types, so a binary-shaped KaryFatTree qualifies wherever the arithmetic
// does.
func HeapIndexed(t Topology) bool {
	return t.Nodes() == 2*t.Processors()-1 && t.Leaf(0) == t.Processors()
}

// ImplicitFatTree is the computed fat-tree: the same geometry as FatTree —
// heap-indexed navigation, the per-level capacity profile, the sparse
// override overlay — with no per-node storage and no way to demand any (it
// has no CapTable method). Use it for topologies too large to materialize;
// the simulation engine recognizes it and carries sorted flight keys from
// level to level instead of allocating per-node arrays.
type ImplicitFatTree struct {
	geom
}

// NewImplicit builds an implicit fat-tree on n processors whose channel
// capacity at level k is capAt(k). Validation matches New exactly.
func NewImplicit(n int, capAt func(level int) int) *ImplicitFatTree {
	return &ImplicitFatTree{geom: newGeom(n, capAt)}
}

// NewImplicitUniversal is NewUniversal's implicit counterpart: the Section IV
// capacity profile with root capacity w, computed on demand.
func NewImplicitUniversal(n, w int) *ImplicitFatTree {
	if w < 1 {
		panic(fmt.Sprintf("core: root capacity w = %d must be >= 1", w))
	}
	return NewImplicit(n, func(k int) int { return UniversalCapacity(n, w, k) })
}

// NewImplicitConstant is NewConstant's implicit counterpart.
func NewImplicitConstant(n, c int) *ImplicitFatTree {
	return NewImplicit(n, func(int) int { return c })
}

// NewImplicitDoubling is NewDoubling's implicit counterpart.
func NewImplicitDoubling(n int) *ImplicitFatTree {
	return NewImplicit(n, func(k int) int { return ceilDiv(n, 1<<uint(k)) })
}

// String summarizes the implicit fat-tree
// ("implicit-fat-tree(n=64, caps=[8 8 7 5 4 2 1])").
func (t *ImplicitFatTree) String() string {
	return fmt.Sprintf("implicit-fat-tree(n=%d, caps=%v)", t.n, t.caps)
}

// CapTableOf returns a flat per-node capacity table for any Topology:
// FatTree's own memoized CapTable when available, otherwise a table rebuilt
// from the per-level profile and the override overlay. The result is O(n)
// memory by definition — callers that must stay independent of n (the
// streaming engine, the compact observer) use LevelCapTable and CapAt
// instead; this helper exists for consumers whose own state is per-node
// anyway, such as the scheduler arena and the dense observer.
func CapTableOf(t Topology) []int {
	if ft, ok := t.(*FatTree); ok {
		return ft.CapTable()
	}
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
