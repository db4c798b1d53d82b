package core

import "math/bits"

// Routing in the fat-tree is basically easy since every message has a unique
// path in the underlying complete binary tree: a message from processor i to
// processor j goes up the tree to their least common ancestor and then back
// down according to the least significant bits of j. This file computes those
// paths.

// LCA returns the heap index of the least common ancestor of processors p and
// q (their leaves' lowest common tree ancestor).
func (t *FatTree) LCA(p, q int) int {
	a, b := t.Leaf(p), t.Leaf(q)
	// Heap-index LCA: strip low bits until the indices share their common
	// prefix. Since both leaves are at the same depth, xor's bit length tells
	// how many levels to climb.
	diff := uint(a ^ b)
	shift := bits.Len(diff)
	return a >> shift
}

// PathLength returns the number of channels on the unique path of message m:
// up from the source leaf to the LCA, then down to the destination leaf. A
// message between distinct leaves under a common parent traverses 2 channels;
// an external message traverses lg n + 1 channels (leaf to root interface).
func (t *FatTree) PathLength(m Message) int {
	if m.IsExternal() {
		return t.levels + 1
	}
	lca := t.LCA(m.Src, m.Dst)
	leafDepth := t.levels
	lcaDepth := t.Level(lca)
	return 2 * (leafDepth - lcaDepth)
}

// Path appends the channels of message m's unique path to buf and returns the
// extended slice. The order is: Up channels from the source leaf toward (but
// excluding) the LCA's own parent channel, then Down channels from just below
// the LCA to the destination leaf. External messages route through the root
// channel (see ExternalPath). Passing a reused buf avoids allocation in hot
// loops.
func (t *FatTree) Path(m Message, buf []Channel) []Channel {
	if m.IsExternal() {
		return t.ExternalPath(m, buf)
	}
	lca := t.LCA(m.Src, m.Dst)
	// Ascend from source leaf: the up channel above each node strictly below
	// the LCA is used.
	for v := t.Leaf(m.Src); v != lca; v >>= 1 {
		buf = append(buf, Channel{Node: v, Dir: Up})
	}
	// Descend to destination leaf: collect the nodes below the LCA on the way
	// down, then emit their Down channels in root-to-leaf order.
	start := len(buf)
	for v := t.Leaf(m.Dst); v != lca; v >>= 1 {
		buf = append(buf, Channel{Node: v, Dir: Down})
	}
	// The descent channels were collected leaf-to-LCA; reverse them so the
	// path reads source→destination.
	for i, j := start, len(buf)-1; i < j; i, j = i+1, j-1 {
		buf[i], buf[j] = buf[j], buf[i]
	}
	return buf
}

// AddressBits returns the number of destination-address bits needed to route
// m from its source: one bit per switching decision, which is the number of
// Down channels on the path, i.e. the depth below the LCA. The paper bounds
// this by 2·lg n for a general (externally addressed) message; internal
// messages need only the suffix below the LCA.
func (t *FatTree) AddressBits(m Message) int {
	lca := t.LCA(m.Src, m.Dst)
	return t.levels - t.Level(lca)
}

// CrossesNode reports whether message m's path passes through switching node
// v, i.e. v lies on the unique tree path between the two leaves (inclusive of
// the LCA, exclusive of the leaves themselves unless v is a leaf endpoint).
func (t *FatTree) CrossesNode(v int, m Message) bool {
	// v is on the path iff v is an ancestor-or-self of exactly the portion of
	// the path: equivalently, v is an ancestor of src-leaf or dst-leaf and a
	// descendant-or-self of the LCA.
	lca := t.LCA(m.Src, m.Dst)
	if !isAncestorOrSelf(lca, v) {
		return false
	}
	return isAncestorOrSelf(v, t.Leaf(m.Src)) || isAncestorOrSelf(v, t.Leaf(m.Dst))
}

// isAncestorOrSelf reports whether heap node a is an ancestor of (or equal to)
// heap node b.
func isAncestorOrSelf(a, b int) bool {
	for b >= a {
		if b == a {
			return true
		}
		b >>= 1
	}
	return false
}
