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
// One type, FatTree, describes every fat-tree by per-tier level tables: tier
// i fans each level-i node out to Down[i] children (SimGrid's
// down;up;parallel descriptor). The paper's binary fat-tree is the case
// Down[i] = 2, built by New and the profile constructors; NewKary builds any
// other arity. Nodes are numbered level by level: the root is node 1 and the
// children of consecutive nodes of one level occupy consecutive index ranges
// of the next. On a binary tree this is the heap numbering — the children of
// node v are 2v and 2v+1 and processor p sits at leaf n+p — which
// HeapIndexed reports, so consumers bound to the binary shape keep their own
// bit arithmetic. Following the paper, every node and the channel *beneath*
// it share a level number equal to the node's distance from the root: the
// root and the external root channel are at level 0, the processors and the
// channels leaving them are at the leaf level.
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
	Node int       // index of the node beneath the channel
	Dir  Direction // Up (toward root) or Down (toward leaves)
}

// String renders the channel as e.g. "up(6)" for debugging output.
func (c Channel) String() string { return fmt.Sprintf("%s(%d)", c.Dir, c.Node) }

// KaryDesc describes a fat-tree, one entry per tier. Tier i connects the
// level-i nodes to their level-(i+1) children; tier 0 is the root tier and
// tier len(Down)-1 is the leaf tier whose children are the processors. The
// paper's binary fat-tree with capacity profile cap(k) is Down[i] = 2,
// Up[i] = cap(i+1), Parallel[i] = 1, Root = cap(0).
type KaryDesc struct {
	// Down[i] is the number of children of every level-i node (the "down
	// links" of the SimGrid descriptor). Each entry must be >= 2.
	Down []int

	// Up[i] is the number of uplinks from each level-(i+1) node toward its
	// parent, and Parallel[i] the number of parallel wires per uplink, so the
	// channel above a level-(i+1) node has capacity Up[i]·Parallel[i]. Both
	// entries must be >= 1.
	Up       []int
	Parallel []int

	// Root is the capacity of the external root channel (the level-0 channel
	// between the root and the outside world). 0 selects the default
	// Up[0]·Parallel[0] — the same width as the channels just below the root.
	Root int
}

// FatTree is a fat-tree routing network on n = prod(Down) processors: the
// per-tier level tables plus a sparse per-channel override overlay. Every
// query — navigation, per-channel capacities, subtree intervals, paths — is
// arithmetic over this O(levels)-sized state; nothing is stored per node, so
// a 2^20-endpoint tree occupies a few dozen machine words. The zero value is
// not usable; construct one with New, NewUniversal, NewConstant, NewDoubling,
// NewUniversal2D or NewKary. Constructors panic on malformed input, and
// SetChannelCapacity/FailNode validate every argument before mutating
// anything.
type FatTree struct {
	desc   KaryDesc
	n      int   // processors, prod(Down)
	levels int   // number of tiers; leaves live at level `levels`
	nodes  int   // total node count (internal switches plus leaves)
	caps   []int // caps[k] = capacity of the channel above a level-k node

	levelFirst []int // levelFirst[k] = index of the first level-k node
	levelCount []int // levelCount[k] = number of level-k nodes
	leafStride []int // leafStride[k] = processors per level-k subtree

	// override holds per-channel capacity overrides (same value for both
	// directions), keyed by node index. It is nil unless SetChannelCapacity
	// has been called. Overrides let callers model irregular fat-trees; the
	// universal fat-trees of the paper are level-uniform.
	override map[int]int
}

// New builds a binary fat-tree on n processors whose channel capacity at
// level k is capAt(k), for 0 <= k <= lg n. n must be a power of two and at
// least 2, and capAt must return a positive capacity for every level; New
// panics otherwise, since a malformed network is a programming error, not a
// runtime condition.
func New(n int, capAt func(level int) int) *FatTree {
	if n < 2 || n&(n-1) != 0 {
		panic(fmt.Sprintf("core: n = %d must be a power of two and >= 2", n))
	}
	levels := bits.Len(uint(n)) - 1
	desc := KaryDesc{Down: make([]int, levels), Up: make([]int, levels), Parallel: make([]int, levels)}
	for k := 0; k <= levels; k++ {
		c := capAt(k)
		if c < 1 {
			panic(fmt.Sprintf("core: capacity at level %d is %d; must be >= 1", k, c))
		}
		if k == 0 {
			desc.Root = c
			continue
		}
		desc.Down[k-1], desc.Up[k-1], desc.Parallel[k-1] = 2, c, 1
	}
	return NewKary(desc)
}

// NewKary validates desc and builds the fat-tree it describes. It panics on
// a malformed descriptor — mismatched tier counts, an arity below 2, a link
// count below 1, a negative root capacity — because a malformed network is a
// programming error, exactly as in New.
func NewKary(desc KaryDesc) *FatTree {
	tiers := len(desc.Down)
	if tiers < 1 {
		panic("core: k-ary descriptor needs at least one tier")
	}
	if len(desc.Up) != tiers || len(desc.Parallel) != tiers {
		panic(fmt.Sprintf("core: k-ary descriptor tier counts disagree: down=%d up=%d parallel=%d",
			tiers, len(desc.Up), len(desc.Parallel)))
	}
	for i, d := range desc.Down {
		if d < 2 {
			panic(fmt.Sprintf("core: k-ary down[%d] = %d; every tier needs >= 2 children", i, d))
		}
		if desc.Up[i] < 1 {
			panic(fmt.Sprintf("core: k-ary up[%d] = %d; must be >= 1", i, desc.Up[i]))
		}
		if desc.Parallel[i] < 1 {
			panic(fmt.Sprintf("core: k-ary parallel[%d] = %d; must be >= 1", i, desc.Parallel[i]))
		}
	}
	if desc.Root < 0 {
		panic(fmt.Sprintf("core: k-ary root capacity %d must be >= 0 (0 selects the default)", desc.Root))
	}

	t := &FatTree{
		desc:       cloneDesc(desc),
		levels:     tiers,
		caps:       make([]int, tiers+1),
		levelFirst: make([]int, tiers+1),
		levelCount: make([]int, tiers+1),
		leafStride: make([]int, tiers+1),
	}
	t.levelFirst[0], t.levelCount[0] = 1, 1
	for k := 0; k < tiers; k++ {
		count := t.levelCount[k] * desc.Down[k]
		if count > 1<<30 {
			panic(fmt.Sprintf("core: k-ary tree too large: %d nodes at level %d", count, k+1))
		}
		t.levelCount[k+1] = count
		t.levelFirst[k+1] = t.levelFirst[k] + t.levelCount[k]
	}
	t.n = t.levelCount[tiers]
	t.nodes = t.levelFirst[tiers] + t.levelCount[tiers] - 1
	for k := 0; k <= tiers; k++ {
		t.leafStride[k] = t.n / t.levelCount[k]
	}
	t.caps[0] = desc.Root
	if t.caps[0] == 0 {
		t.caps[0] = desc.Up[0] * desc.Parallel[0]
	}
	for k := 1; k <= tiers; k++ {
		t.caps[k] = desc.Up[k-1] * desc.Parallel[k-1]
	}
	return t
}

// cloneDesc deep-copies the descriptor so later caller mutations cannot
// corrupt the built topology.
func cloneDesc(d KaryDesc) KaryDesc {
	out := KaryDesc{
		Down:     make([]int, len(d.Down)),
		Up:       make([]int, len(d.Up)),
		Parallel: make([]int, len(d.Parallel)),
		Root:     d.Root,
	}
	copy(out.Down, d.Down)
	copy(out.Up, d.Up)
	copy(out.Parallel, d.Parallel)
	return out
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

// Levels returns the level number of the leaves (lg n on a binary tree).
// Channels exist at levels 0 (the external root channel) through Levels()
// (the channels between processors and their parent switches).
func (t *FatTree) Levels() int { return t.levels }

// Nodes returns the total number of tree nodes (internal switches plus
// leaves): 2n-1 on a binary tree, fewer when tiers are wider.
func (t *FatTree) Nodes() int { return t.nodes }

// InternalNodes returns the number of switching nodes (n-1 on a binary
// tree).
func (t *FatTree) InternalNodes() int { return t.nodes - t.n }

// Leaf returns the node index of processor p's leaf. It panics if p is out
// of range.
func (t *FatTree) Leaf(p int) int {
	if p < 0 || p >= t.n {
		panic(fmt.Sprintf("core: processor %d out of range [0,%d)", p, t.n))
	}
	return t.levelFirst[t.levels] + p
}

// ProcessorOf returns the processor number of leaf node v, or -1 if v is not
// a leaf.
func (t *FatTree) ProcessorOf(v int) int {
	first := t.levelFirst[t.levels]
	if v < first || v > t.nodes {
		return -1
	}
	return v - first
}

// Level returns the level (distance from the root) of node v. The root has
// level 0 and leaves have level Levels().
func (t *FatTree) Level(v int) int {
	if v < 1 || v > t.nodes {
		panic(fmt.Sprintf("core: node %d out of range [1,%d)", v, t.nodes+1))
	}
	return t.levelOf(v)
}

// levelOf is Level without the range check, scanning from the leaf level
// first because most nodes are leaves.
//
//ftlint:hotpath
func (t *FatTree) levelOf(v int) int {
	for k := t.levels; k > 0; k-- {
		if v >= t.levelFirst[k] {
			return k
		}
	}
	return 0
}

// Parent returns the parent of node v, or 0 for the root. v is not
// range-checked; it is the hot-path navigation primitive.
//
//ftlint:hotpath
func (t *FatTree) Parent(v int) int {
	if v <= 1 {
		return 0
	}
	k := t.levelOf(v)
	return t.levelFirst[k-1] + (v-t.levelFirst[k])/t.desc.Down[k-1]
}

// Children returns the contiguous child range of node v: the first child
// index and the child count ((2v, 2) on a binary tree), or (0, 0) for a
// leaf.
func (t *FatTree) Children(v int) (first, count int) {
	k := t.Level(v)
	if k == t.levels {
		return 0, 0
	}
	return t.levelFirst[k+1] + (v-t.levelFirst[k])*t.desc.Down[k], t.desc.Down[k]
}

// LevelRange returns the contiguous node range of level k: the first index
// and the node count ([2^k, 2^(k+1)) on a binary tree). It panics if k is
// out of range.
func (t *FatTree) LevelRange(k int) (first, count int) {
	if k < 0 || k > t.levels {
		panic(fmt.Sprintf("core: level %d out of range [0,%d]", k, t.levels))
	}
	return t.levelFirst[k], t.levelCount[k]
}

// AncestorAt returns node v's ancestor at level k (v itself when k is v's
// level). It panics if v is out of range or k is below v's level.
func (t *FatTree) AncestorAt(v, k int) int {
	kv := t.Level(v)
	if k < 0 || k > kv {
		panic(fmt.Sprintf("core: level %d outside [0,%d] for node %d", k, kv, v))
	}
	lo := (v - t.levelFirst[kv]) * t.leafStride[kv]
	return t.levelFirst[k] + lo/t.leafStride[k]
}

// SubtreeLeaves returns the half-open processor interval [lo, hi) of the
// leaves under node v. For a leaf it is the single processor.
func (t *FatTree) SubtreeLeaves(v int) (lo, hi int) {
	k := t.Level(v)
	lo = (v - t.levelFirst[k]) * t.leafStride[k]
	return lo, lo + t.leafStride[k]
}

// Contains reports whether processor p lies in the subtree rooted at node v.
func (t *FatTree) Contains(v, p int) bool {
	lo, hi := t.SubtreeLeaves(v)
	return p >= lo && p < hi
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
	return t.capAtLevel(c.Node, t.Level(c.Node))
}

// CapAt returns the capacity of both channels of the edge above node v,
// honouring overrides, without range-checking v — the O(1) hot-path
// accessor. Callers must guarantee 1 <= v <= Nodes().
//
//ftlint:hotpath
func (t *FatTree) CapAt(v int) int { return t.capAtLevel(v, t.levelOf(v)) }

// capAtLevel is CapAt for a node v known to sit at level k, so per-level
// walks need not search for each node's level.
//
//ftlint:hotpath
func (t *FatTree) capAtLevel(v, k int) int {
	if t.override != nil {
		if c, ok := t.override[v]; ok {
			return c
		}
	}
	return t.caps[k]
}

// RootCapacity returns the capacity of the level-0 channel between the root
// and the external interface.
func (t *FatTree) RootCapacity() int { return t.Capacity(Channel{Node: 1, Dir: Up}) }

// SetChannelCapacity overrides the capacity of both channels of the edge above
// node v. cap must be >= 1 and v a valid node index in [1, Nodes()]; both are
// validated up front, capacity first, before any mutation.
func (t *FatTree) SetChannelCapacity(v, cap int) {
	if cap < 1 {
		panic(fmt.Sprintf("core: capacity %d must be >= 1", cap))
	}
	if v < 1 || v > t.nodes {
		panic(fmt.Sprintf("core: node %d out of range [1,%d)", v, t.nodes+1))
	}
	if t.override == nil {
		t.override = make(map[int]int)
	}
	t.override[v] = cap
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

// TotalWires returns the sum of capacities over all directed channels — a
// crude "amount of communication hardware" figure used by the cost model and
// the topology inspector. It is computed in O(levels + #overrides): level k
// contributes levelCount[k] channels per direction at the level-uniform
// capacity, and each override corrects its edge's contribution.
func (t *FatTree) TotalWires() int {
	total := 0
	for k, c := range t.caps {
		total += 2 * t.levelCount[k] * c
	}
	for v, c := range t.override {
		total += 2 * (c - t.caps[t.levelOf(v)])
	}
	return total
}

// Channels calls fn for every directed channel of the fat-tree, in
// deterministic order (node 1..Nodes(), Up then Down). The root channel
// (node 1) is included: it models the external interface. This iterator is
// inherently O(n); size-independent callers should work per level instead.
func (t *FatTree) Channels(fn func(Channel)) {
	for v := 1; v <= t.nodes; v++ {
		fn(Channel{Node: v, Dir: Up})
		fn(Channel{Node: v, Dir: Down})
	}
}

// String summarizes the fat-tree: "fat-tree(n=64, caps=[8 8 7 5 4 2 1])" for
// a binary tree, and the descriptor as well for any other arity
// ("kary-fat-tree(n=64, down=[4 4 4], up=[2 2 1], parallel=[1 1 1], caps=[2 2 2 1])").
func (t *FatTree) String() string {
	if HeapIndexed(t) {
		return fmt.Sprintf("fat-tree(n=%d, caps=%v)", t.n, t.caps)
	}
	return fmt.Sprintf("kary-fat-tree(n=%d, down=%v, up=%v, parallel=%v, caps=%v)",
		t.n, t.desc.Down, t.desc.Up, t.desc.Parallel, t.caps)
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
