package sim

import (
	"fmt"
	"math/bits"

	"fattree/internal/core"
)

// This file encodes the bit-serial message format of Fig. 2 concretely: the
// M bit announcing a message, the address bits that steer it (one routing
// decision per switch, stripped as the path is established), the wire-select
// bits the concentrator cascades consume ("these decision bits can be
// interleaved with the address bits", Section IV), and the payload. The
// encoder lowers a compiled WirePath to the exact bit string the hardware
// would clock through the network, and the decoder walks the tree to verify
// that the header steers the message to its destination — a bit-level check
// of the whole routing story.

// Header is the on-wire representation of one message.
type Header struct {
	// Bits is the full frame: M bit, then per-hop steering (routing bit +
	// wire-select bits), then the payload.
	Bits []byte
	// AddressBits counts the steering portion (everything between the M bit
	// and the payload).
	AddressBits int
}

// EncodeHeader lowers a compiled wire path to its Fig. 2 frame on tree t.
// Each hop after injection contributes one routing bit — 0 to continue
// upward (or to the left child going down), 1 to turn (or to the right
// child) — followed by enough wire-select bits to name the assigned wire in
// the next channel (ceil(lg cap) bits, the concentrator cascade's decision
// bits). payloadBits zero bits stand in for the data.
func EncodeHeader(t *core.FatTree, wp WirePath, payloadBits int) Header {
	if !core.HeapIndexed(t) {
		panic("sim: the Fig. 2 frame format is binary (one routing bit per hop); k-ary topologies have no header encoding")
	}
	path := t.Path(wp.Msg, nil)
	if len(path) != len(wp.Wires) {
		panic(fmt.Sprintf("sim: wire path mismatch for %v", wp.Msg))
	}
	h := Header{Bits: []byte{1}} // M bit: this frame carries a message
	for i := 1; i < len(path); i++ {
		prev, cur := path[i-1], path[i]
		// Routing bit: the switching decision made at the node joining
		// channel prev to channel cur.
		var routing byte
		if prev.Dir == core.Up && cur.Dir == core.Up {
			routing = 0 // continue upward
		} else {
			// Entering a down channel: 0 = left child, 1 = right child.
			routing = byte(cur.Node & 1)
		}
		h.Bits = append(h.Bits, routing)
		// Wire-select bits for the assigned wire in channel cur.
		sel := selectBits(t.Capacity(cur))
		for b := sel - 1; b >= 0; b-- {
			h.Bits = append(h.Bits, byte((wp.Wires[i]>>uint(b))&1))
		}
	}
	h.AddressBits = len(h.Bits) - 1
	for i := 0; i < payloadBits; i++ {
		h.Bits = append(h.Bits, 0)
	}
	return h
}

// DecodeHeader walks the tree under the header's steering bits, starting
// from the message's first channel with its assigned wire, and returns the
// channels and wires traversed. It is the software model of the switches
// consuming the frame; the result must equal the original wire path.
func DecodeHeader(t *core.FatTree, msg core.Message, firstWire int, h Header) ([]core.Channel, []int, error) {
	if !core.HeapIndexed(t) {
		panic("sim: the Fig. 2 frame format is binary (one routing bit per hop); k-ary topologies have no header encoding")
	}
	path := t.Path(msg, nil)
	channels := []core.Channel{path[0]}
	wires := []int{firstWire}
	pos := 1 // skip the M bit
	if len(h.Bits) == 0 || h.Bits[0] != 1 {
		return nil, nil, fmt.Errorf("sim: frame has no M bit")
	}
	cur := path[0]
	for hop := 1; hop < len(path); hop++ {
		if pos >= len(h.Bits) {
			return nil, nil, fmt.Errorf("sim: frame exhausted at hop %d", hop)
		}
		routing := h.Bits[pos]
		pos++
		var next core.Channel
		if cur.Dir == core.Up {
			parent := cur.Node >> 1
			if parentIsTurn(path, hop) {
				child := 2 * parent
				if routing == 1 {
					child++
				}
				next = core.Channel{Node: child, Dir: core.Down}
			} else {
				if routing != 0 {
					return nil, nil, fmt.Errorf("sim: unexpected turn bit at hop %d", hop)
				}
				next = core.Channel{Node: parent, Dir: core.Up}
			}
		} else {
			child := 2 * cur.Node
			if routing == 1 {
				child++
			}
			next = core.Channel{Node: child, Dir: core.Down}
		}
		sel := selectBits(t.Capacity(next))
		wire := 0
		for b := 0; b < sel; b++ {
			if pos >= len(h.Bits) {
				return nil, nil, fmt.Errorf("sim: frame exhausted in wire-select at hop %d", hop)
			}
			wire = wire<<1 | int(h.Bits[pos])
			pos++
		}
		channels = append(channels, next)
		wires = append(wires, wire)
		cur = next
	}
	return channels, wires, nil
}

// parentIsTurn reports whether hop `hop` of the path turns from Up to Down.
func parentIsTurn(path []core.Channel, hop int) bool {
	return path[hop].Dir == core.Down
}

// selectBits returns ceil(lg cap), the wire-select width for a channel.
func selectBits(cap int) int {
	if cap <= 1 {
		return 0
	}
	return bits.Len(uint(cap - 1))
}

// FrameLength returns the total frame length in bits for a message on t:
// 1 (M bit) + steering + payload. The paper's 2·lg n address-bit bound shows
// up as the steering term's routing bits; wire-select bits add the
// concentrator decisions of Section IV.
func FrameLength(t *core.FatTree, m core.Message, payloadBits int) int {
	path := t.Path(m, nil)
	total := 1 + payloadBits
	for i := 1; i < len(path); i++ {
		total += 1 + selectBits(t.Capacity(path[i]))
	}
	return total
}
