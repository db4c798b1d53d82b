package core

import "fmt"

// This file implements the generalized k-ary fat-tree: the parameterized
// multi-level topology real deployments build (SimGrid's
// FatTree(down;up;parallel) descriptors, Solnushkin's automated two-layer
// designs) expressed as a third Topology implementation. Where the paper's
// fat-tree is a complete binary tree with a per-level capacity profile, a
// k-ary fat-tree lets every tier choose its own arity and its own uplink
// aggregate — down[i] children per level-i node, up[i] uplinks of parallel[i]
// wires each from every level-(i+1) node toward its parent — so
// oversubscribed pods, wide-radix leaf switches, and 2/3-tier datacenter
// shapes are all expressible. The binary universal fat-tree is the special
// case down[i] = 2, up[i]·parallel[i] = cap(level i+1), and in that shape the
// node numbering below degenerates to exactly the heap numbering of FatTree,
// which the equivalence tests exploit.

// KaryDesc describes a k-ary fat-tree, one entry per tier. Tier i connects
// the level-i nodes to their level-(i+1) children; tier 0 is the root tier
// and tier len(Down)-1 is the leaf tier whose children are the processors.
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

// Tiers returns the number of tiers, which is also the leaf level number.
func (d KaryDesc) Tiers() int { return len(d.Down) }

// KaryFatTree is a generalized k-ary fat-tree on n = prod(Down) processors.
// Nodes are numbered level by level: the root is node 1, and the children of
// consecutive nodes of one level occupy consecutive index ranges of the next
// (the children of node v at level k start at LevelRange(k+1).first +
// (v-LevelRange(k).first)·Down[k]). For an all-binary descriptor this is
// exactly the heap numbering of FatTree, so HeapIndexed reports true and the
// Theorem 1 scheduler applies unchanged; for any other shape consumers must
// navigate through Parent/Children/LevelRange instead of bit arithmetic.
//
// The validation contract matches FatTree: constructors
// panic on malformed descriptors, and SetChannelCapacity/FailNode validate
// every argument before mutating anything.
type KaryFatTree struct {
	desc   KaryDesc
	n      int   // processors, prod(Down)
	levels int   // number of tiers; leaves live at level `levels`
	nodes  int   // total node count (internal switches plus leaves)
	caps   []int // caps[k] = capacity of the channel above a level-k node

	levelFirst []int // levelFirst[k] = index of the first level-k node
	levelCount []int // levelCount[k] = number of level-k nodes
	leafStride []int // leafStride[k] = processors per level-k subtree

	// override holds per-channel capacity overrides, keyed by node index,
	// with the same semantics as FatTree's overlay (both directions share the
	// value; nil until SetChannelCapacity is called).
	override map[int]int
}

var _ Topology = (*KaryFatTree)(nil)

// NewKary validates desc and builds the k-ary fat-tree. It panics on a
// malformed descriptor — mismatched tier counts, an arity below 2, a link
// count below 1, a negative root capacity — because a malformed network is a
// programming error, exactly as in New.
func NewKary(desc KaryDesc) *KaryFatTree {
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

	t := &KaryFatTree{
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

// Desc returns a copy of the validated descriptor.
func (t *KaryFatTree) Desc() KaryDesc { return cloneDesc(t.desc) }

// Processors returns n, the number of processors (leaves).
func (t *KaryFatTree) Processors() int { return t.n }

// Levels returns the leaf level number (the number of tiers).
func (t *KaryFatTree) Levels() int { return t.levels }

// Nodes returns the total number of tree nodes (internal switches plus
// leaves). Unlike the binary tree's 2n-1, a k-ary tree with wider tiers has
// proportionally fewer internal nodes; Nodes() is always <= 2n-1.
func (t *KaryFatTree) Nodes() int { return t.nodes }

// InternalNodes returns the number of switching nodes.
func (t *KaryFatTree) InternalNodes() int { return t.nodes - t.n }

// Leaf returns the node index of processor p's leaf. It panics if p is out
// of range.
func (t *KaryFatTree) Leaf(p int) int {
	if p < 0 || p >= t.n {
		panic(fmt.Sprintf("core: processor %d out of range [0,%d)", p, t.n))
	}
	return t.levelFirst[t.levels] + p
}

// ProcessorOf returns the processor number of leaf node v, or -1 if v is not
// a leaf.
func (t *KaryFatTree) ProcessorOf(v int) int {
	first := t.levelFirst[t.levels]
	if v < first || v > t.nodes {
		return -1
	}
	return v - first
}

// Level returns the level (distance from the root) of node v.
func (t *KaryFatTree) Level(v int) int {
	if v < 1 || v > t.nodes {
		panic(fmt.Sprintf("core: node %d out of range [1,%d)", v, t.nodes+1))
	}
	return t.levelOf(v)
}

// levelOf is Level without the range check, scanning from the leaf level
// first because most nodes are leaves.
//
//ftlint:hotpath
func (t *KaryFatTree) levelOf(v int) int {
	for k := t.levels; k > 0; k-- {
		if v >= t.levelFirst[k] {
			return k
		}
	}
	return 0
}

// Parent returns the parent of node v, or 0 for the root — the same sentinel
// heap division by two produces. v is not range-checked; it is the hot-path
// navigation primitive.
//
//ftlint:hotpath
func (t *KaryFatTree) Parent(v int) int {
	if v <= 1 {
		return 0
	}
	k := t.levelOf(v)
	return t.levelFirst[k-1] + (v-t.levelFirst[k])/t.desc.Down[k-1]
}

// Children returns the contiguous child range of node v: the first child
// index and the child count, or (0, 0) for a leaf.
func (t *KaryFatTree) Children(v int) (first, count int) {
	k := t.Level(v)
	if k == t.levels {
		return 0, 0
	}
	return t.levelFirst[k+1] + (v-t.levelFirst[k])*t.desc.Down[k], t.desc.Down[k]
}

// LevelRange returns the contiguous node range of level k: the first index
// and the node count. It panics if k is out of range.
func (t *KaryFatTree) LevelRange(k int) (first, count int) {
	if k < 0 || k > t.levels {
		panic(fmt.Sprintf("core: level %d out of range [0,%d]", k, t.levels))
	}
	return t.levelFirst[k], t.levelCount[k]
}

// AncestorAt returns node v's ancestor at level k (v itself when k is v's
// level). It panics if v is out of range or k is below v's level.
func (t *KaryFatTree) AncestorAt(v, k int) int {
	kv := t.Level(v)
	if k < 0 || k > kv {
		panic(fmt.Sprintf("core: level %d outside [0,%d] for node %d", k, kv, v))
	}
	lo := (v - t.levelFirst[kv]) * t.leafStride[kv]
	return t.levelFirst[k] + lo/t.leafStride[k]
}

// SubtreeLeaves returns the half-open processor interval [lo, hi) of the
// leaves under node v.
func (t *KaryFatTree) SubtreeLeaves(v int) (lo, hi int) {
	k := t.Level(v)
	lo = (v - t.levelFirst[k]) * t.leafStride[k]
	return lo, lo + t.leafStride[k]
}

// Contains reports whether processor p lies in the subtree rooted at node v.
func (t *KaryFatTree) Contains(v, p int) bool {
	lo, hi := t.SubtreeLeaves(v)
	return p >= lo && p < hi
}

// LCA returns the node index of the least common ancestor of processors p
// and q: the deepest level at which both lie in the same subtree.
func (t *KaryFatTree) LCA(p, q int) int {
	t.Leaf(p) // range-check
	t.Leaf(q)
	for k := t.levels; k > 0; k-- {
		s := t.leafStride[k]
		if p/s == q/s {
			return t.levelFirst[k] + p/s
		}
	}
	return 1
}

// CapacityAtLevel returns the (level-uniform) capacity of channels at level
// k. Per-channel overrides are not reflected here; use Capacity for that.
func (t *KaryFatTree) CapacityAtLevel(k int) int {
	if k < 0 || k > t.levels {
		panic(fmt.Sprintf("core: level %d out of range [0,%d]", k, t.levels))
	}
	return t.caps[k]
}

// Capacity returns the capacity of channel c, honouring any per-channel
// override; both directions of an edge share one capacity.
func (t *KaryFatTree) Capacity(c Channel) int {
	if t.override != nil {
		if v, ok := t.override[c.Node]; ok {
			return v
		}
	}
	return t.caps[t.Level(c.Node)]
}

// CapAt returns the capacity of both channels of the edge above node v,
// honouring overrides, without range-checking v — the O(1) hot-path accessor.
//
//ftlint:hotpath
func (t *KaryFatTree) CapAt(v int) int {
	if t.override != nil {
		if c, ok := t.override[v]; ok {
			return c
		}
	}
	return t.caps[t.levelOf(v)]
}

// RootCapacity returns the capacity of the level-0 channel between the root
// and the external interface.
func (t *KaryFatTree) RootCapacity() int { return t.Capacity(Channel{Node: 1, Dir: Up}) }

// SetChannelCapacity overrides the capacity of both channels of the edge
// above node v. Validation happens before any mutation, with the same panics
// as the other Topology implementations.
func (t *KaryFatTree) SetChannelCapacity(v, cap int) {
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

// LevelCapTable returns a fresh copy of the per-level capacity table.
func (t *KaryFatTree) LevelCapTable() []int {
	table := make([]int, len(t.caps))
	copy(table, t.caps)
	return table
}

// Overrides calls fn for every per-channel capacity override in effect, in
// unspecified order.
func (t *KaryFatTree) Overrides(fn func(node, cap int)) {
	for v, c := range t.override {
		fn(v, c)
	}
}

// TotalWires returns the sum of capacities over all directed channels,
// computed in O(levels + #overrides).
func (t *KaryFatTree) TotalWires() int {
	total := 0
	for k, c := range t.caps {
		total += 2 * t.levelCount[k] * c
	}
	for v, c := range t.override {
		total += 2 * (c - t.caps[t.levelOf(v)])
	}
	return total
}

// Channels calls fn for every directed channel in deterministic order (node
// 1..Nodes(), Up then Down), including the external root channel.
func (t *KaryFatTree) Channels(fn func(Channel)) {
	for v := 1; v <= t.nodes; v++ {
		fn(Channel{Node: v, Dir: Up})
		fn(Channel{Node: v, Dir: Down})
	}
}

// PathLength returns the number of channels on message m's unique path.
func (t *KaryFatTree) PathLength(m Message) int {
	if m.IsExternal() {
		return t.levels + 1
	}
	return 2 * (t.levels - t.Level(t.LCA(m.Src, m.Dst)))
}

// Path appends the channels of message m's unique path to buf: Up channels
// from the source leaf toward (excluding) the LCA, then Down channels from
// just below the LCA to the destination leaf.
func (t *KaryFatTree) Path(m Message, buf []Channel) []Channel {
	if m.IsExternal() {
		return t.ExternalPath(m, buf)
	}
	lca := t.LCA(m.Src, m.Dst)
	for v := t.Leaf(m.Src); v != lca; v = t.Parent(v) {
		buf = append(buf, Channel{Node: v, Dir: Up})
	}
	start := len(buf)
	for v := t.Leaf(m.Dst); v != lca; v = t.Parent(v) {
		buf = append(buf, Channel{Node: v, Dir: Down})
	}
	for i, j := start, len(buf)-1; i < j; i, j = i+1, j-1 {
		buf[i], buf[j] = buf[j], buf[i]
	}
	return buf
}

// ExternalPath appends the channels of an external message's path to buf,
// with the same orientation rules as the binary implementation.
func (t *KaryFatTree) ExternalPath(m Message, buf []Channel) []Channel {
	switch {
	case m.Dst == External:
		for v := t.Leaf(m.Src); v >= 1; v = t.Parent(v) {
			buf = append(buf, Channel{Node: v, Dir: Up})
		}
	case m.Src == External:
		start := len(buf)
		for v := t.Leaf(m.Dst); v >= 1; v = t.Parent(v) {
			buf = append(buf, Channel{Node: v, Dir: Down})
		}
		for i, j := start, len(buf)-1; i < j; i, j = i+1, j-1 {
			buf[i], buf[j] = buf[j], buf[i]
		}
	default:
		panic("core: ExternalPath on an internal message")
	}
	return buf
}

// AddressBits returns the number of destination-address switching decisions
// on m's path: the depth of the destination leaf below the LCA. Each k-ary
// switching decision selects among Down[k] children.
func (t *KaryFatTree) AddressBits(m Message) int {
	return t.levels - t.Level(t.LCA(m.Src, m.Dst))
}

// CrossesNode reports whether message m's path passes through node v.
func (t *KaryFatTree) CrossesNode(v int, m Message) bool {
	lca := t.LCA(m.Src, m.Dst)
	if !t.ancestorOrSelf(lca, v) {
		return false
	}
	return t.Contains(v, m.Src) || t.Contains(v, m.Dst)
}

// ancestorOrSelf reports whether node a is an ancestor of (or equal to)
// node b.
func (t *KaryFatTree) ancestorOrSelf(a, b int) bool {
	ka, kb := t.Level(a), t.Level(b)
	if ka > kb {
		return false
	}
	return t.AncestorAt(b, ka) == a
}

// String summarizes the k-ary fat-tree
// ("kary-fat-tree(n=64, down=[4 4 4], up=[2 2 1], parallel=[1 1 1])").
func (t *KaryFatTree) String() string {
	return fmt.Sprintf("kary-fat-tree(n=%d, down=%v, up=%v, parallel=%v, caps=%v)",
		t.n, t.desc.Down, t.desc.Up, t.desc.Parallel, t.caps)
}
