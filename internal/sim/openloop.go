package sim

import (
	"math/rand"

	"fattree/internal/core"
)

// Open-loop operation: rather than a fixed batch, messages arrive over time
// and the network runs delivery cycles continuously — the regime in which a
// machine actually computes. The offered load is measured against the
// fat-tree's capacity (λ per cycle of the arrival pattern); below saturation
// the backlog stays bounded and latency flat, above it the backlog grows
// linearly. The saturation point is the throughput the hardware budget buys.

// OpenLoopStats summarizes a sustained run.
type OpenLoopStats struct {
	// Cycles run, messages injected and delivered.
	Cycles    int
	Offered   int
	Delivered int
	// Backlog is the undelivered count at the end; BacklogSlope is the mean
	// per-cycle backlog growth over the second half of the run (≈0 below
	// saturation, positive above).
	Backlog      int
	BacklogSlope float64
	// MeanLatency is the average delivery delay in cycles (from arrival to
	// delivery) of delivered messages.
	MeanLatency float64
}

// ArrivalFunc returns the messages arriving at the start of a cycle.
type ArrivalFunc func(cycle int) core.MessageSet

// UniformArrivals builds an arrival process offering `perCycle` uniformly
// random messages every cycle, seeded.
func UniformArrivals(t *core.FatTree, perCycle int, seed int64) ArrivalFunc {
	rng := rand.New(rand.NewSource(seed))
	n := t.Processors()
	return func(int) core.MessageSet {
		ms := make(core.MessageSet, 0, perCycle)
		for len(ms) < perCycle {
			s, d := rng.Intn(n), rng.Intn(n)
			if s != d {
				ms = append(ms, core.Message{Src: s, Dst: d})
			}
		}
		return ms
	}
}

// RunOpenLoop drives the engine for the given number of cycles with the
// arrival process, delivering with randomized per-cycle priorities (the
// on-line protocol), and reports sustained-throughput statistics. Messages
// still pending after the last cycle are the backlog; they are not drained.
func RunOpenLoop(e *Engine, arrivals ArrivalFunc, cycles int, seed int64) OpenLoopStats {
	half := cycles / 2
	offered, offeredAtHalf := 0, 0
	arrive := func(c int) core.MessageSet {
		ms := arrivals(c)
		offered += len(ms)
		if c == half {
			offeredAtHalf = offered
		}
		return ms
	}
	run, latencySum := e.deliver(nil, arrive, cycles, cycles, randomOrder(seed), true)
	stats := OpenLoopStats{
		Cycles:    run.Cycles,
		Offered:   offered,
		Delivered: run.Delivered,
		Backlog:   offered - run.Delivered,
	}
	if stats.Delivered > 0 {
		stats.MeanLatency = float64(latencySum) / float64(stats.Delivered)
	}
	// Backlog slope over the second half: linear growth means saturation.
	if cycles-half > 1 {
		deliveredAtHalf := 0
		for _, d := range run.PerCycle[:half+1] {
			deliveredAtHalf += d
		}
		backlogAtHalf := offeredAtHalf - deliveredAtHalf
		stats.BacklogSlope = float64(stats.Backlog-backlogAtHalf) / float64(cycles-1-half)
	}
	return stats
}
