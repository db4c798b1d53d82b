package sim

import (
	"fmt"

	"fattree/internal/concentrator"
	"fattree/internal/core"
	"fattree/internal/sched"
)

// Stats summarizes a complete delivery of a message set.
type Stats struct {
	// Cycles is the number of delivery cycles used.
	Cycles int
	// Delivered is the number of messages delivered (always len(ms) unless
	// the cycle limit was hit).
	Delivered int
	// Drops is the total number of drop events at concentrators across all
	// cycles (one message may be dropped several times before succeeding).
	Drops int
	// Deferrals counts injection deferrals (source leaf channel full).
	Deferrals int
	// PerCycle is the number of messages delivered in each cycle.
	PerCycle []int
}

// maxCyclesDefault bounds the retry loop against pathological livelock with
// partial concentrators.
const maxCyclesDefault = 100000

// RunOnline delivers ms with the greedy online protocol of Section II: every
// cycle, all undelivered messages are offered to the network; losers are
// negatively acknowledged and retried. It returns the delivery statistics.
// With ideal concentrators progress is guaranteed (the first pending message
// always survives every switch); with partial concentrators a generous cycle
// bound guards the loop and Delivered < len(ms) reports a stall.
func RunOnline(e *Engine, ms core.MessageSet) Stats {
	return e.Run(ms)
}

// Run is RunOnline as an engine method.
func (e *Engine) Run(ms core.MessageSet) Stats {
	stats, _ := e.deliver(ms, nil, 0, maxCyclesDefault, nil, true)
	return stats
}

// RunCycles plays a precomputed sequence of one-cycle message sets (for
// example a schedule's Cycles): cycle i injects exactly the i-th set plus any
// earlier losses, and losses left after the last set drain in further cycles
// (losses only occur with partial concentrators or injected faults).
func (e *Engine) RunCycles(cycles []core.MessageSet) Stats {
	arrive := func(c int) core.MessageSet { return cycles[c] }
	stats, _ := e.deliver(nil, arrive, len(cycles), maxCyclesDefault, nil, true)
	return stats
}

// RunSchedule plays a precomputed off-line schedule through the engine: cycle
// i injects exactly the schedule's i-th one-cycle message set (plus any
// earlier losses, which only occur with partial concentrators). With ideal
// concentrators a valid schedule incurs zero drops and zero deferrals — the
// hardware realizes Theorem 1 exactly.
func RunSchedule(e *Engine, s *sched.Schedule) Stats {
	if s.Tree != e.tree {
		panic(fmt.Sprintf("sim: schedule built for a different tree (%v vs %v)", s.Tree, e.tree))
	}
	return e.RunCycles(s.Cycles)
}

// DeliverOffline is the headline convenience API: schedule ms with Theorem 1
// and play the schedule through ideal-switch hardware. The returned stats
// satisfy Cycles = len(schedule) and Drops = 0 for any valid input.
func DeliverOffline(t *core.FatTree, ms core.MessageSet) (Stats, *sched.Schedule) {
	s := sched.OffLine(t, ms)
	e := New(t, concentrator.KindIdeal, 0)
	return RunSchedule(e, s), s
}
