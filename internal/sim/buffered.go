package sim

import (
	"fmt"

	"fattree/internal/core"
	"fattree/internal/obsv"
)

// This file implements a buffered delivery model — the road not taken in the
// paper ("presumably, fat-tree architectures can be built with different
// design decisions", Section VII) and the one modern fat-tree networks
// actually use: instead of dropping congested messages and retrying whole
// delivery cycles, each node holds small FIFO queues per output channel and
// applies backpressure. Time advances in synchronous hops; each channel c
// forwards up to cap(c) queued messages per hop. The up/down channel
// dependency graph of a tree is acyclic, so backpressure cannot deadlock.
// Experiment E19 compares this model against the paper's drop-retry cycles.

// BufferedStats summarizes a buffered delivery run.
type BufferedStats struct {
	// Hops is the number of synchronous switch cycles until the last message
	// arrived.
	Hops int
	// Delivered counts messages that reached their destination.
	Delivered int
	// MaxQueue is the peak occupancy observed in any channel queue.
	MaxQueue int
	// MeanLatency and MaxLatency describe per-message delivery times (hops
	// from injection at time zero).
	MeanLatency float64
	MaxLatency  int
	// Stalls counts hop-message events where a message could not advance
	// because the next queue was full (backpressure).
	Stalls int
}

// bufferedLimit bounds the simulation against bugs; a correct run always
// terminates far earlier.
const bufferedLimit = 1 << 22

// RunBuffered delivers ms on the binary tree t with per-channel FIFO queues
// of the given depth (measured in messages; the paper's wire-parallel
// channels forward cap(c) messages per hop). queueDepth must be at least 1.
// Source processors buffer their own backlog without limit, as in Section II.
func RunBuffered(t *core.FatTree, ms core.MessageSet, queueDepth int) BufferedStats {
	return runBuffered(t, ms, queueDepth, nil)
}

// RunBufferedObserved is RunBuffered with the observability layer attached:
// the observer's per-channel Stalls and QueuePeak counters record where
// backpressure bites and how deep the FIFO queues actually get (channel index
// 2·node+dir, the buffered model's own layout). The stats returned are
// identical to RunBuffered's.
func RunBufferedObserved(t *core.FatTree, ms core.MessageSet, queueDepth int, o *obsv.Observer) BufferedStats {
	return runBuffered(t, ms, queueDepth, o)
}

// runBuffered is the shared implementation; o may be nil.
func runBuffered(t *core.FatTree, ms core.MessageSet, queueDepth int, o *obsv.Observer) BufferedStats {
	core.RequireHeapIndexed(t, "sim: RunBuffered")
	if queueDepth < 1 {
		panic(fmt.Sprintf("sim: queue depth %d must be >= 1", queueDepth))
	}
	if err := ms.Validate(t); err != nil {
		panic(err)
	}
	for _, m := range ms {
		if m.IsExternal() {
			panic("sim: RunBuffered does not model the external interface; use the cycle engine")
		}
	}
	var stats BufferedStats
	if len(ms) == 0 {
		return stats
	}

	// Channel index: up = 2*node, down = 2*node+1, for heap nodes 1..2n-1.
	n2 := 4 * t.Processors()
	chanUp := func(v int) int { return 2 * v }

	// Precompute every message's channel path once so the per-hop loop
	// below is pure table lookups instead of LCA recomputation. paths[i] is
	// message i's channel-index sequence; at[i] is the position message i
	// currently occupies (-1 while still queued at its source).
	paths := make([][]int, len(ms))
	var chs []core.Channel
	for i, m := range ms {
		chs = t.Path(m, chs[:0])
		p := make([]int, len(chs))
		for j, c := range chs {
			p[j] = 2*c.Node + int(c.Dir)
		}
		paths[i] = p
	}
	at := make([]int, len(ms))
	for i := range at {
		at[i] = -1
	}

	// next returns the channel after msg's current one, or -1 when it holds
	// the final (destination leaf, Down) channel.
	next := func(msg int) int {
		if at[msg]+1 >= len(paths[msg]) {
			return -1
		}
		return paths[msg][at[msg]+1]
	}

	queues := make([][]int, n2) // per channel: FIFO of message indices
	// Per-leaf source backlogs, indexed by heap node id. A slice rather
	// than a map keeps the injection sweep below in fixed leaf order —
	// map iteration order would vary run to run (see internal/lint,
	// nondeterm analyzer).
	sourceQ := make([][]int, 2*t.Processors())
	for i, m := range ms {
		leaf := t.Leaf(m.Src)
		sourceQ[leaf] = append(sourceQ[leaf], i)
	}
	latency := make([]int, len(ms))
	remaining := len(ms)

	// Deterministic channel order: by index.
	for hop := 1; remaining > 0; hop++ {
		if hop > bufferedLimit {
			panic("sim: buffered delivery exceeded the hop limit (deadlock bug?)")
		}
		// Phase 1: decide moves using start-of-hop occupancies.
		startLen := make([]int, n2)
		for c := range queues {
			startLen[c] = len(queues[c])
		}
		type move struct {
			msg  int
			from int // -1 = source queue
			to   int // -1 = delivered
		}
		var moves []move
		room := make([]int, n2)
		for c := range room {
			room[c] = queueDepth - startLen[c]
		}

		// Channel forwarding: head-of-line messages advance while capacity
		// and downstream room last.
		for c := 0; c < n2; c++ {
			q := queues[c]
			if len(q) == 0 {
				continue
			}
			cap := t.Capacity(core.Channel{Node: c / 2, Dir: core.Direction(c % 2)})
			sent := 0
			for _, msg := range q {
				if sent == cap {
					break
				}
				to := next(msg)
				if to != -1 {
					if room[to] <= 0 {
						stats.Stalls++
						if o != nil {
							o.Stall(to)
						}
						break // FIFO head-of-line blocking
					}
					room[to]--
				}
				moves = append(moves, move{msg: msg, from: c, to: to})
				sent++
			}
		}
		// Injection: sources push into their leaf's up channel queue, in
		// ascending leaf order.
		for leaf := t.Processors(); leaf < 2*t.Processors(); leaf++ {
			q := sourceQ[leaf]
			if len(q) == 0 {
				continue
			}
			capLeaf := t.Capacity(core.Channel{Node: leaf, Dir: core.Up})
			c := chanUp(leaf)
			sent := 0
			for _, msg := range q {
				if sent == capLeaf {
					break
				}
				if room[c] <= 0 {
					stats.Stalls++ // backpressure reached the source
					if o != nil {
						o.Stall(c)
					}
					break
				}
				room[c]--
				moves = append(moves, move{msg: msg, from: -1, to: c})
				sent++
			}
		}

		// Phase 2: apply.
		departed := make([]int, n2) // per channel: count removed from head
		for _, mv := range moves {
			at[mv.msg]++
			if mv.from >= 0 {
				departed[mv.from]++
			} else {
				leaf := t.Leaf(ms[mv.msg].Src)
				sourceQ[leaf] = sourceQ[leaf][1:]
			}
			if mv.to == -1 {
				latency[mv.msg] = hop
				remaining--
				stats.Delivered++
				continue
			}
			queues[mv.to] = append(queues[mv.to], mv.msg)
		}
		for c, k := range departed {
			if k > 0 {
				queues[c] = queues[c][k:]
			}
		}
		for c := range queues {
			if len(queues[c]) > stats.MaxQueue {
				stats.MaxQueue = len(queues[c])
			}
			if o != nil {
				o.Queue(c, len(queues[c]))
			}
		}
		stats.Hops = hop
	}

	total := 0
	for _, l := range latency {
		total += l
		if l > stats.MaxLatency {
			stats.MaxLatency = l
		}
	}
	stats.MeanLatency = float64(total) / float64(len(ms))
	return stats
}
