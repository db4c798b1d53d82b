package sim

import (
	"fattree/internal/core"
	"fattree/internal/par"
)

// This file holds the engine-method entry points of the retry protocol and
// the forced-parallel cycle. A cycle's switching work is embarrassingly
// parallel within one tree level: during a sweep, the switches at level L
// contest disjoint message sets (each in-flight message belongs to exactly
// one level-L node) and disjoint channels, exactly the independence the
// Theorem 1 parallel scheduler exploits per subtree. The parallel entry
// points hand deliver (deliver.go) the engine's worker pool (internal/par);
// the serial entry points hand it nil, and the identical data plane runs
// inline. Every bucket preserves message-index order and all per-switch
// randomness is pre-seeded by (seed, node), so the cycle's outcome is
// bit-identical across executions for any worker count.

// RunCycleParallel is RunCycle on the level-sharded parallel path regardless
// of the engine's worker bound (with one worker the level fan-out runs inline
// but the bucketed algorithm is still used). The result is bit-identical to
// the serial path. Like RunCycle, the returned slice is scratch-owned and
// valid only until the engine's next cycle.
func (e *Engine) RunCycleParallel(pending core.MessageSet) ([]bool, CycleResult) {
	return e.runCycle(pending, e.pool)
}

// Run delivers ms with the greedy online protocol on the serial reference
// execution, regardless of the engine's worker bound. It is the baseline
// RunParallel is proven bit-identical to.
func (e *Engine) Run(ms core.MessageSet) Stats {
	stats, _ := e.deliver(nil, ms, nil, 0, maxCyclesDefault, nil, true)
	return stats
}

// RunParallel delivers ms with the greedy online protocol on the parallel
// cycle path: each cycle's per-node concentrator competitions run
// concurrently on the engine's worker pool, up-phase and down-phase sharded
// by tree level. Delivered, dropped, and deferred counts, the per-cycle
// delivery profile, and every wire assignment are bit-identical to Run for
// any worker count.
func (e *Engine) RunParallel(ms core.MessageSet) Stats {
	stats, _ := e.deliver(e.pool, ms, nil, 0, maxCyclesDefault, nil, true)
	return stats
}

// RunCycles plays a precomputed sequence of one-cycle message sets (for
// example a schedule's Cycles) on the serial reference execution: cycle i
// injects exactly the i-th set plus any earlier losses, and losses left after
// the last set drain in further cycles (losses only occur with partial
// concentrators or injected faults).
func (e *Engine) RunCycles(cycles []core.MessageSet) Stats {
	return e.runCycles(nil, cycles)
}

// RunCyclesParallel is RunCycles on the parallel cycle path; its stats are
// bit-identical to RunCycles for any worker count.
func (e *Engine) RunCyclesParallel(cycles []core.MessageSet) Stats {
	return e.runCycles(e.pool, cycles)
}

// runCycles feeds cycles to deliver as its arrivals, one set per cycle.
func (e *Engine) runCycles(pool *par.Pool, cycles []core.MessageSet) Stats {
	arrive := func(c int) core.MessageSet { return cycles[c] }
	stats, _ := e.deliver(pool, nil, arrive, len(cycles), maxCyclesDefault, nil, true)
	return stats
}
