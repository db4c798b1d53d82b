package sim

import (
	"math"

	"fattree/internal/core"
)

// This file implements the on-line routing extension the paper announces in
// Section VI: "there are universal fat-trees for on-line routing ... a
// randomized routing algorithm that delivers all messages in O(λ(M) +
// lg n·lg lg n) delivery cycles with high probability" (Greenberg and
// Leiserson, reference [8]). The algorithm here captures its essential
// mechanism — contention resolved by fresh random priorities every cycle, so
// no adversarial arrival order can starve a message — and the E13 experiment
// measures delivered cycles against the λ + lg n·lg lg n envelope.

// OnlineBound returns the Greenberg–Leiserson envelope c·(λ + lg n·lg lg n)
// with constant c, the figure RunOnlineRandom is measured against.
func OnlineBound(t *core.FatTree, lambda float64, c float64) float64 {
	lg := float64(core.Lg(t.Processors()))
	lglg := math.Log2(lg)
	if lglg < 1 {
		lglg = 1
	}
	return c * (lambda + lg*lglg)
}

// RunOnlineRandom delivers ms with the randomized on-line protocol: every
// cycle, all undelivered messages contend with independently random
// priorities (implemented by shuffling the pending order, which determines
// who wins at every concentrator), losers are negatively acknowledged and
// retry. Unlike RunOnline's fixed arrival order, no message can be starved
// by a systematically unlucky position, and a cycle that delivers nothing by
// bad luck does not end the run.
func RunOnlineRandom(e *Engine, ms core.MessageSet, seed int64) Stats {
	stats, _ := e.deliver(ms, nil, 0, maxCyclesDefault, randomOrder(seed), true)
	return stats
}
