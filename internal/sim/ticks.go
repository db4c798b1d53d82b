package sim

import "fattree/internal/core"

// This file models the bit-serial timing of Section II (Fig. 2). Messages
// snake through the tree with leading bits establishing a path for the
// remainder to follow: the M bit announces a message, one address bit is
// examined (and stripped) per switch, and the data bits trail behind. The
// head therefore advances one channel per clock tick and the tail follows
// 1 + payload ticks later (the address bits are consumed en route), so a
// message with a path of L channels completes in L + payload + 2 ticks and a
// whole delivery cycle lasts max over its messages — O(lg n) for constant
// payloads, the figure Theorem 10 charges per cycle.

// MessageTicks returns the clock ticks for message m to fully arrive within
// a delivery cycle: one tick per channel for the head (the M bit plus the
// leading address bit are examined in constant time per node), plus the
// payload and M bit trailing through the final channel.
func MessageTicks(t *core.FatTree, m core.Message, payloadBits int) int {
	return t.PathLength(m) + payloadBits + 2
}

// CycleTicks returns the duration of one delivery cycle carrying the message
// set ms: the maximum message completion time, or 0 for an empty cycle.
// Processors synchronize on the longest path, buffering departures as
// Section II describes.
func CycleTicks(t *core.FatTree, ms core.MessageSet, payloadBits int) int {
	max := 0
	for _, m := range ms {
		if ticks := MessageTicks(t, m, payloadBits); ticks > max {
			max = ticks
		}
	}
	return max
}

// ScheduleTicks totals the clock ticks of a sequence of delivery cycles.
func ScheduleTicks(t *core.FatTree, cycles []core.MessageSet, payloadBits int) int {
	total := 0
	for _, cyc := range cycles {
		total += CycleTicks(t, cyc, payloadBits)
	}
	return total
}

// MeanMessageTicks returns the average per-message completion time within a
// cycle — the latency figure that exhibits the locality advantage (local
// messages finish long before the cycle's global stragglers).
func MeanMessageTicks(t *core.FatTree, ms core.MessageSet, payloadBits int) float64 {
	if len(ms) == 0 {
		return 0
	}
	total := 0
	for _, m := range ms {
		total += MessageTicks(t, m, payloadBits)
	}
	return float64(total) / float64(len(ms))
}

// MaxCycleTicks returns the worst-case delivery-cycle duration of the
// fat-tree: the longest possible path (2·lg n channels) plus payload — the
// O(lg n) bound quoted for an entire delivery cycle in Section II.
func MaxCycleTicks(t *core.FatTree, payloadBits int) int {
	return 2*t.Levels() + payloadBits + 2
}

// PipelinedScheduleTicks models back-to-back delivery cycles with pipelining:
// once a cycle's tails have cleared the first channels, the next cycle's
// heads can enter, so consecutive cycles are separated by the frame length
// (payload + 2 ticks) rather than the full path traversal; only the last
// cycle pays its full drain. Section VII's synchronization discussion
// ("synchronized by delivery cycle ... can be built with different design
// decisions") motivates this optimistic accounting; the conservative figure
// is ScheduleTicks.
func PipelinedScheduleTicks(t *core.FatTree, cycles []core.MessageSet, payloadBits int) int {
	if len(cycles) == 0 {
		return 0
	}
	frame := payloadBits + 2
	total := (len(cycles) - 1) * frame
	return total + CycleTicks(t, cycles[len(cycles)-1], payloadBits) +
		longestDrain(t, cycles, payloadBits)
}

// longestDrain returns the extra path latency of the longest message in any
// non-final cycle beyond the frame spacing (0 when frames dominate).
func longestDrain(t *core.FatTree, cycles []core.MessageSet, payloadBits int) int {
	extra := 0
	for _, cyc := range cycles[:len(cycles)-1] {
		for _, m := range cyc {
			if d := t.PathLength(m) - (payloadBits + 2); d > extra {
				extra = d
			}
		}
	}
	if extra < 0 {
		return 0
	}
	return extra
}
