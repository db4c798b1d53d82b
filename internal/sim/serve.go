package sim

import (
	"fattree/internal/core"
)

// serveOfferBudget bounds the flight offers one RunServe call makes: about
// 0.4 s of routing on one core of a 2-vCPU x86 host. A retry run offers every
// pending message once per cycle, so a small tree given many messages costs
// messages × cycles; without the bound, one 50-byte request for 10^5 random
// messages on 16 endpoints holds its engine for minutes.
const serveOfferBudget = 1 << 21

// RunServe is the request-path twin of RunOnline: the same retry protocol
// (deliver) with, within its offer budget, identical Cycles/Delivered/Drops/
// Deferrals and identical observer effects, but shaped for a serving daemon
// answering one request per call on a persistent engine. It does not materialize the per-cycle
// delivery profile (Stats.PerCycle stays nil, the only field of the result
// that allocates), so a warmed engine's whole request — validation,
// retry loop, latency batching, observer merges — performs zero heap
// allocations; cmd/ftserve calls RunServe once per /v1/route request on the
// tenant's persistent engine, and BenchmarkServeRoute pins the figure.
//
// RunServe stops before a cycle that could take its offers past
// serveOfferBudget; Delivered < len(ms) then reports the unfinished
// request, as it does a stall.
//
//ftlint:hotpath
func (e *Engine) RunServe(ms core.MessageSet) Stats {
	budget := maxCyclesDefault
	if len(ms) > 0 {
		budget = min(budget, max(1, serveOfferBudget/len(ms)))
	}
	stats, _ := e.deliver(ms, nil, 0, budget, nil, false)
	return stats
}
