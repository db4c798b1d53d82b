package core

import "math/bits"

// This file implements the load machinery of Section III: load(M, c) is the
// number of messages of a message set M that must pass through channel c, the
// load factor λ(M, c) = load(M, c)/cap(c), and the load factor of the whole
// fat-tree λ(M) = max over channels. λ(M) is a lower bound on the number of
// delivery cycles needed to deliver M, and Theorem 1/Corollary 2 show it is
// nearly achievable.

// Loads records, for every edge of a fat-tree, how many messages of some
// message set traverse its Up and Down channels. Index by node id.
type Loads struct {
	tree  *FatTree
	nodes int  // highest node index, cached so the scans below stay O(1) per probe
	heap  bool // heap-indexed tree: the path walks below use the inline v/2 parent and xor LCA
	up    []int
	down  []int
}

// NewLoads computes the per-channel loads of ms on t in O(|ms|·levels) time:
// the up channel above node v carries the messages whose source lies in v's
// subtree and whose destination does not; symmetrically for down.
func NewLoads(t *FatTree, ms MessageSet) *Loads {
	nodes := t.Nodes()
	l := &Loads{
		tree:  t,
		nodes: nodes,
		heap:  HeapIndexed(t),
		up:    make([]int, nodes+1),
		down:  make([]int, nodes+1),
	}
	for _, m := range ms {
		l.Add(m)
	}
	return l
}

// parent steps one level toward the root: the inline heap shift on
// heap-indexed trees (keeping the scheduler's λ recomputation free of the
// level-table scan), the tree's Parent otherwise.
//
//ftlint:hotpath
func (l *Loads) parent(v int) int {
	if l.heap {
		return v >> 1
	}
	return l.tree.Parent(v)
}

// Add accounts one message's path into the load table.
func (l *Loads) Add(m Message) { l.walk(m, 1) }

// Remove un-accounts one message's path. Removing a message that was never
// added produces negative loads; callers own that invariant.
func (l *Loads) Remove(m Message) { l.walk(m, -1) }

// walk adds delta to every channel on m's path. The LCA is the heap xor
// on heap-indexed trees, the tree's LCA otherwise.
func (l *Loads) walk(m Message, delta int) {
	if m.IsExternal() {
		l.addExternal(m, delta)
		return
	}
	t := l.tree
	a, b := t.Leaf(m.Src), t.Leaf(m.Dst)
	var lca int
	if l.heap {
		lca = a >> uint(bits.Len(uint(a^b)))
	} else {
		lca = t.LCA(m.Src, m.Dst)
	}
	for v := a; v != lca; v = l.parent(v) {
		l.up[v] += delta
	}
	for v := b; v != lca; v = l.parent(v) {
		l.down[v] += delta
	}
}

// Clear resets every channel's load to zero, so a long-lived Loads can be
// reused across message sets without reallocating its tables (the scheduler
// arena recomputes λ this way on every call).
func (l *Loads) Clear() {
	clear(l.up)
	clear(l.down)
}

// Load returns load(M, c) for the channel c.
func (l *Loads) Load(c Channel) int {
	if c.Dir == Up {
		return l.up[c.Node]
	}
	return l.down[c.Node]
}

// MaxLoad returns the maximum load over all channels.
func (l *Loads) MaxLoad() int {
	max := 0
	for v := 1; v <= l.nodes; v++ {
		if l.up[v] > max {
			max = l.up[v]
		}
		if l.down[v] > max {
			max = l.down[v]
		}
	}
	return max
}

// Factor returns the load factor λ(M, c) of channel c: load divided by
// capacity.
func (l *Loads) Factor(c Channel) float64 {
	return float64(l.Load(c)) / float64(l.tree.Capacity(c))
}

// MaxFactor returns λ(M) = max over channels of λ(M, c), together with a
// channel achieving it. For an empty message set it returns 0 and the root
// channel.
func (l *Loads) MaxFactor() (float64, Channel) { return l.maxFactor(0) }

// maxFactor is MaxFactor under the fictitious capacities max(1, cap(c)-slack)
// (slack 0 leaves every capacity as it is). It walks the level tables, so no
// node's level is searched for.
func (l *Loads) maxFactor(slack int) (float64, Channel) {
	t := l.tree
	best := 0.0
	arg := Channel{Node: 1, Dir: Up}
	for k := 0; k <= t.levels; k++ {
		first := t.levelFirst[k]
		for v := first; v < first+t.levelCount[k]; v++ {
			c := float64(fictitious(t.capAtLevel(v, k), slack))
			if f := float64(l.up[v]) / c; f > best {
				best, arg = f, Channel{Node: v, Dir: Up}
			}
			if f := float64(l.down[v]) / c; f > best {
				best, arg = f, Channel{Node: v, Dir: Down}
			}
		}
	}
	return best, arg
}

// Fits reports whether the loads respect every channel capacity, i.e. whether
// the accounted message set is a one-cycle message set (λ(M) <= 1): a fat-tree
// with ideal concentrator switches routes such a set in a single delivery
// cycle.
func (l *Loads) Fits() bool { return l.FitsWithSlack(0) }

// FitsWithSlack reports whether load(c) <= cap(c) - slack for every channel
// whose capacity exceeds slack, and load(c) <= cap(c) otherwise. It implements
// the fictitious capacities cap'(c) = cap(c) - lg n of Corollary 2.
func (l *Loads) FitsWithSlack(slack int) bool {
	t := l.tree
	for k := 0; k <= t.levels; k++ {
		first := t.levelFirst[k]
		for v := first; v < first+t.levelCount[k]; v++ {
			c := fictitious(t.capAtLevel(v, k), slack)
			if l.up[v] > c || l.down[v] > c {
				return false
			}
		}
	}
	return true
}

// fictitious returns max(1, cap-slack) — a channel always admits at least one
// message per cycle.
func fictitious(cap, slack int) int {
	f := cap - slack
	if f < 1 {
		f = 1
	}
	return f
}

// LoadFactor is a convenience wrapper: it computes λ(M) for ms on t.
func LoadFactor(t *FatTree, ms MessageSet) float64 {
	f, _ := NewLoads(t, ms).MaxFactor()
	return f
}

// IsOneCycle reports whether ms is a one-cycle message set on t
// (load(M,c) <= cap(c) for every channel).
func IsOneCycle(t *FatTree, ms MessageSet) bool {
	return NewLoads(t, ms).Fits()
}

// LoadFactorWithSlack computes the load factor λ'(M) under the fictitious
// capacities cap'(c) = max(1, cap(c) - slack) used in Corollary 2.
func LoadFactorWithSlack(t *FatTree, ms MessageSet, slack int) float64 {
	f, _ := NewLoads(t, ms).maxFactor(slack)
	return f
}
