// Package core implements the fat-tree routing network of Leiserson's 1985
// paper "Fat-Trees: Universal Networks for Hardware-Efficient Supercomputing".
//
// A fat-tree is a routing network based on a complete binary tree. A set of n
// processors is located at the leaves, and each edge of the underlying tree
// corresponds to two channels: one from parent to child and one from child to
// parent. Each channel c has a capacity cap(c), the number of wires in the
// channel, which — under bit-serial communication — is also the maximum number
// of simultaneous messages the channel can support. Going up the tree the
// capacities grow, so a fat-tree gets "thicker" toward the root, like a real
// tree.
//
// Nodes are heap-indexed: the root is node 1, the children of node v are 2v
// and 2v+1, and the leaves are nodes n..2n-1 (processor p sits at leaf n+p).
// Following the paper, every node and the channel *beneath* it share a level
// number equal to the node's distance from the root: the root and the external
// root channel are at level 0, the processors and the channels leaving them
// are at level lg n.
package core

import (
	"fmt"
	"math"
	"math/bits"
)

// Direction distinguishes the two channels of a tree edge.
type Direction int

const (
	// Up is the child-to-parent channel (toward the root).
	Up Direction = iota
	// Down is the parent-to-child channel (toward the leaves).
	Down
)

// String returns "up" or "down".
func (d Direction) String() string {
	if d == Up {
		return "up"
	}
	return "down"
}

// Channel identifies one directed channel of a fat-tree: the Up or Down half
// of the edge between Node and its parent. The root channel (Node == 1)
// connects the root to the external interface.
type Channel struct {
	Node int       // heap index of the node beneath the channel
	Dir  Direction // Up (toward root) or Down (toward leaves)
}

// String renders the channel as e.g. "up(6)" for debugging output.
func (c Channel) String() string { return fmt.Sprintf("%s(%d)", c.Dir, c.Node) }

// FatTree is a fat-tree routing network on n = 2^L processors: the
// level-uniform capacity profile plus a sparse per-channel override overlay.
// Every query — parent/child/LCA navigation, per-channel capacities, subtree
// intervals — is heap-index arithmetic over this O(levels)-sized state;
// nothing is stored per node, so a 2^20-endpoint tree occupies a few dozen
// machine words. The zero value is not usable; construct one with New,
// NewUniversal, NewConstant or NewDoubling.
type FatTree struct {
	n      int   // number of processors (power of two)
	levels int   // lg n; leaves are at level `levels`
	caps   []int // caps[k] = capacity of every channel at level k, 0 <= k <= levels

	// override holds per-channel capacity overrides (same value for both
	// directions), keyed by node index. It is nil unless SetChannelCapacity
	// has been called. Overrides let callers model irregular fat-trees; the
	// universal fat-trees of the paper are level-uniform.
	override map[int]int
}

// New builds a fat-tree on n processors whose channel capacity at level k is
// capAt(k), for 0 <= k <= lg n. n must be a power of two and at least 2, and
// capAt must return a positive capacity for every level; New panics otherwise,
// since a malformed network is a programming error, not a runtime condition.
func New(n int, capAt func(level int) int) *FatTree {
	if n < 2 || n&(n-1) != 0 {
		panic(fmt.Sprintf("core: n = %d must be a power of two and >= 2", n))
	}
	levels := bits.Len(uint(n)) - 1
	caps := make([]int, levels+1)
	for k := 0; k <= levels; k++ {
		c := capAt(k)
		if c < 1 {
			panic(fmt.Sprintf("core: capacity at level %d is %d; must be >= 1", k, c))
		}
		caps[k] = c
	}
	return &FatTree{n: n, levels: levels, caps: caps}
}

// UniversalCapacity returns the channel capacity at the given level of a
// universal fat-tree on n processors with root capacity w, per the paper's
// definition in Section IV:
//
//	cap(c at level k) = min( ceil(n / 2^k), ceil(w / 2^(2k/3)) ), at least 1.
//
// Near the leaves the first term governs and capacities double from one level
// to the next going up; within 3·lg(n/w) levels of the root the second term
// governs and capacities grow at the rate 4^(1/3) = 2^(2/3) per level, which
// is the growth rate a 3-D volume argument can support. The regimes cross at
// level k = 3·lg(n/w).
func UniversalCapacity(n, w, level int) int {
	doubling := ceilDiv(n, 1<<uint(level))
	root := int(math.Ceil(float64(w) / math.Pow(2, 2*float64(level)/3)))
	c := doubling
	if root < c {
		c = root
	}
	if c < 1 {
		c = 1
	}
	return c
}

// NewUniversal builds a universal fat-tree on n processors with root capacity
// w, using the capacity profile of Section IV. The paper requires
// n^(2/3) <= w <= n for the profile to be meaningful; values outside that
// range are accepted (the min() clamps them) so callers can explore the edges.
func NewUniversal(n, w int) *FatTree {
	if w < 1 {
		panic(fmt.Sprintf("core: root capacity w = %d must be >= 1", w))
	}
	return New(n, func(k int) int { return UniversalCapacity(n, w, k) })
}

// NewConstant builds a fat-tree whose every channel has capacity c. With c = 1
// this is the plain binary tree the paper contrasts against.
func NewConstant(n, c int) *FatTree {
	return New(n, func(int) int { return c })
}

// NewDoubling builds the pure-doubling profile cap_k = ceil(n/2^k): capacities
// double at every level all the way to the root (root capacity n). This is the
// "ablation" profile contrasted with the universal profile in the benchmarks:
// it has the same leaf behaviour but ignores the 3-D volume constraint near
// the root.
func NewDoubling(n int) *FatTree {
	return New(n, func(k int) int { return ceilDiv(n, 1<<uint(k)) })
}

// Processors returns n, the number of processors (leaves).
func (t *FatTree) Processors() int { return t.n }

// Levels returns lg n, the level number of the leaves. Channels exist at
// levels 0 (the external root channel) through Levels() (the channels between
// processors and their parent switches).
func (t *FatTree) Levels() int { return t.levels }

// Nodes returns the total number of tree nodes, 2n-1 (internal switches plus
// leaves).
func (t *FatTree) Nodes() int { return 2*t.n - 1 }

// InternalNodes returns the number of switching nodes, n-1.
func (t *FatTree) InternalNodes() int { return t.n - 1 }

// Leaf returns the heap index of processor p's leaf. It panics if p is out of
// range.
func (t *FatTree) Leaf(p int) int {
	if p < 0 || p >= t.n {
		panic(fmt.Sprintf("core: processor %d out of range [0,%d)", p, t.n))
	}
	return t.n + p
}

// ProcessorOf returns the processor number of leaf node v, or -1 if v is not a
// leaf.
func (t *FatTree) ProcessorOf(v int) int {
	if v < t.n || v >= 2*t.n {
		return -1
	}
	return v - t.n
}

// Level returns the level (distance from the root) of node v. The root has
// level 0 and leaves have level lg n.
func (t *FatTree) Level(v int) int {
	if v < 1 || v >= 2*t.n {
		panic(fmt.Sprintf("core: node %d out of range [1,%d)", v, 2*t.n))
	}
	return bits.Len(uint(v)) - 1
}

// Parent returns the parent of node v, or 0 for the root. v is not
// range-checked; it is the hot-path navigation primitive.
//
//ftlint:hotpath
func (t *FatTree) Parent(v int) int { return v >> 1 }

// Children returns the contiguous child range of node v: (2v, 2) for an
// internal node, (0, 0) for a leaf.
func (t *FatTree) Children(v int) (first, count int) {
	t.Level(v) // range-check
	if v >= t.n {
		return 0, 0
	}
	return 2 * v, 2
}

// LevelRange returns the contiguous node range of level k: [2^k, 2^(k+1)).
// It panics if k is out of range.
func (t *FatTree) LevelRange(k int) (first, count int) {
	if k < 0 || k > t.levels {
		panic(fmt.Sprintf("core: level %d out of range [0,%d]", k, t.levels))
	}
	return 1 << uint(k), 1 << uint(k)
}

// CapacityAtLevel returns the (level-uniform) capacity of channels at level k.
// Per-channel overrides are not reflected here; use Capacity for that.
func (t *FatTree) CapacityAtLevel(k int) int {
	if k < 0 || k > t.levels {
		panic(fmt.Sprintf("core: level %d out of range [0,%d]", k, t.levels))
	}
	return t.caps[k]
}

// Capacity returns the capacity of the channel c, honouring any per-channel
// override. Both directions of an edge always share one capacity, as in the
// paper (each tree edge corresponds to two channels of equal width).
func (t *FatTree) Capacity(c Channel) int {
	if t.override != nil {
		if v, ok := t.override[c.Node]; ok {
			return v
		}
	}
	return t.caps[t.Level(c.Node)]
}

// CapAt returns the capacity of both channels of the edge above node v,
// honouring overrides, without range-checking v. It is the O(1) hot-path
// accessor behind the streaming engine; callers must guarantee 1 <= v < 2n
// (bits.Len on an out-of-range index reads a wrong level or panics on the
// slice access).
//
//ftlint:hotpath
func (t *FatTree) CapAt(v int) int {
	if t.override != nil {
		if c, ok := t.override[v]; ok {
			return c
		}
	}
	return t.caps[bits.Len(uint(v))-1]
}

// LevelCapTable returns a fresh copy of the per-level capacity table:
// table[k] is the level-uniform capacity at level k, 0 <= k <= Levels().
// Per-channel overrides are not reflected; enumerate them with Overrides.
// This is the O(levels) counterpart of CapTableOf for callers that must stay
// independent of n.
func (t *FatTree) LevelCapTable() []int {
	table := make([]int, len(t.caps))
	copy(table, t.caps)
	return table
}

// Overrides calls fn for every per-channel capacity override in effect. The
// iteration order is unspecified (the overlay is a map), so callers must do
// only order-independent work — sums, corrections, copies.
func (t *FatTree) Overrides(fn func(node, cap int)) {
	for v, c := range t.override {
		fn(v, c)
	}
}

// SetChannelCapacity overrides the capacity of both channels of the edge above
// node v. cap must be >= 1 and v must be a valid heap node index in [1, 2n);
// both are validated up front (before any mutation) with the same panics on
// every Topology implementation, so a caller that survives the call on a
// FatTree behaves identically on a binary-shaped KaryFatTree.
func (t *FatTree) SetChannelCapacity(v, cap int) {
	if cap < 1 {
		panic(fmt.Sprintf("core: capacity %d must be >= 1", cap))
	}
	if v < 1 || v >= 2*t.n {
		panic(fmt.Sprintf("core: node %d out of range [1,%d)", v, 2*t.n))
	}
	if t.override == nil {
		t.override = make(map[int]int)
	}
	t.override[v] = cap
}

// RootCapacity returns the capacity of the level-0 channel between the root
// and the external interface.
func (t *FatTree) RootCapacity() int { return t.Capacity(Channel{Node: 1, Dir: Up}) }

// Channels calls fn for every directed channel of the fat-tree, in
// deterministic order (node 1..2n-1, Up then Down). The root channel (node 1)
// is included: it models the external interface. This iterator is inherently
// O(n); size-independent callers should work per level instead.
func (t *FatTree) Channels(fn func(Channel)) {
	for v := 1; v < 2*t.n; v++ {
		fn(Channel{Node: v, Dir: Up})
		fn(Channel{Node: v, Dir: Down})
	}
}

// TotalWires returns the sum of capacities over all directed channels — a
// crude "amount of communication hardware" figure used by the cost model and
// the topology inspector. It is computed in O(levels + #overrides): level k
// contributes 2^k channels per direction at the level-uniform capacity, and
// each override corrects its edge's contribution.
func (t *FatTree) TotalWires() int {
	total := 0
	for k, c := range t.caps {
		total += 2 * (1 << uint(k)) * c
	}
	for v, c := range t.override {
		total += 2 * (c - t.caps[bits.Len(uint(v))-1])
	}
	return total
}

// SubtreeLeaves returns the half-open processor interval [lo, hi) of the
// leaves under node v. For a leaf it is the single processor.
func (t *FatTree) SubtreeLeaves(v int) (lo, hi int) {
	t.Level(v) // range-check
	// Left-most descendant leaf: keep taking left children.
	l, r := v, v
	for l < t.n {
		l = 2 * l
		r = 2*r + 1
	}
	return l - t.n, r - t.n + 1
}

// Contains reports whether processor p lies in the subtree rooted at node v.
func (t *FatTree) Contains(v, p int) bool {
	lo, hi := t.SubtreeLeaves(v)
	return p >= lo && p < hi
}

// String summarizes the fat-tree ("fat-tree(n=64, caps=[8 8 7 5 4 2 1])").
func (t *FatTree) String() string {
	return fmt.Sprintf("fat-tree(n=%d, caps=%v)", t.n, t.caps)
}

// ceilDiv returns ceil(a/b) for positive a, b.
func ceilDiv(a, b int) int { return (a + b - 1) / b }

// Lg returns max(1, ceil(log2 x)) — the paper's "lg" notation, used for
// address lengths and the fictitious-capacity slack of Corollary 2.
func Lg(x int) int {
	if x <= 2 {
		return 1
	}
	return bits.Len(uint(x - 1))
}
