package core

// The channel leaving the root of the fat-tree corresponds to an interface
// with the external world (Section II), and Section VII calls it "a natural
// high-bandwidth external connection". This file extends messages, paths and
// loads to I/O traffic: a message may have the External pseudo-processor as
// its source (input from the world) or destination (output to the world).
// External messages traverse the root channel, whose capacity is the
// fat-tree's root capacity w — so I/O bandwidth scales with the hardware
// budget exactly like internal bisection bandwidth.

// External is the pseudo-processor denoting the outside world. It may appear
// as a message's source or destination (not both).
const External = -1

// IsExternal reports whether the message crosses the root interface.
func (m Message) IsExternal() bool { return m.Src == External || m.Dst == External }

// ExternalPath appends the channels of an external message's path to buf:
// for an output (dst == External), the up channels from the source leaf
// through the root channel; for an input (src == External), the root down
// channel followed by the down channels to the destination leaf.
func (t *FatTree) ExternalPath(m Message, buf []Channel) []Channel {
	switch {
	case m.Dst == External:
		for v := t.Leaf(m.Src); v >= 1; v = t.Parent(v) {
			buf = append(buf, Channel{Node: v, Dir: Up})
		}
	case m.Src == External:
		buf = t.appendDescent(buf, t.Leaf(m.Dst), 0)
	default:
		panic("core: ExternalPath on an internal message")
	}
	return buf
}

// externalValidate checks an external message's processor endpoint.
func externalValidate(t *FatTree, m Message) bool {
	if m.Src == External && m.Dst == External {
		return false
	}
	p := m.Src
	if p == External {
		p = m.Dst
	}
	return p >= 0 && p < t.Processors()
}

// addExternal accounts an external message's path into the load table.
func (l *Loads) addExternal(m Message, delta int) {
	t := l.tree
	if m.Dst == External {
		for v := t.Leaf(m.Src); v >= 1; v = l.parent(v) {
			l.up[v] += delta
		}
		return
	}
	for v := t.Leaf(m.Dst); v >= 1; v = l.parent(v) {
		l.down[v] += delta
	}
}
