package core

// Routing in the fat-tree is basically easy since every message has a unique
// path in the underlying tree: a message from processor i to processor j goes
// up the tree to their least common ancestor and then back down toward j.
// This file computes those paths from the level tables.

// LCA returns the node index of the least common ancestor of processors p
// and q (their leaves' lowest common tree ancestor): the deepest level at
// which both lie in the same subtree.
func (t *FatTree) LCA(p, q int) int {
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

// PathLength returns the number of channels on the unique path of message m:
// up from the source leaf to the LCA, then down to the destination leaf. A
// message between distinct leaves under a common parent traverses 2 channels;
// an external message traverses Levels()+1 channels (leaf to root interface).
func (t *FatTree) PathLength(m Message) int {
	if m.IsExternal() {
		return t.levels + 1
	}
	return 2 * (t.levels - t.Level(t.LCA(m.Src, m.Dst)))
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
	for v := t.Leaf(m.Src); v != lca; v = t.Parent(v) {
		buf = append(buf, Channel{Node: v, Dir: Up})
	}
	// The descent channels are collected leaf-to-LCA, then reversed so the
	// path reads source→destination.
	return t.appendDescent(buf, t.Leaf(m.Dst), lca)
}

// appendDescent appends the Down channels from just below stop to leaf, in
// root-to-leaf order.
func (t *FatTree) appendDescent(buf []Channel, leaf, stop int) []Channel {
	start := len(buf)
	for v := leaf; v != stop; v = t.Parent(v) {
		buf = append(buf, Channel{Node: v, Dir: Down})
	}
	for i, j := start, len(buf)-1; i < j; i, j = i+1, j-1 {
		buf[i], buf[j] = buf[j], buf[i]
	}
	return buf
}

// AddressBits returns the number of switching decisions needed to route m
// from its source: one per Down channel on the path, i.e. the depth below the
// LCA. On a binary tree each decision is one address bit, and the paper
// bounds this by 2·lg n for a general (externally addressed) message;
// internal messages need only the suffix below the LCA.
func (t *FatTree) AddressBits(m Message) int {
	return t.levels - t.Level(t.LCA(m.Src, m.Dst))
}

// CrossesNode reports whether message m's path passes through switching node
// v, i.e. v lies on the unique tree path between the two leaves (inclusive of
// the LCA, exclusive of the leaves themselves unless v is a leaf endpoint).
func (t *FatTree) CrossesNode(v int, m Message) bool {
	lca := t.LCA(m.Src, m.Dst)
	ka, kv := t.Level(lca), t.Level(v)
	if ka > kv || t.AncestorAt(v, ka) != lca {
		return false
	}
	return t.Contains(v, m.Src) || t.Contains(v, m.Dst)
}
