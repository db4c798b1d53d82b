package sim

import (
	"fattree/internal/core"
)

// RunServe is the request-path twin of RunOnline: the same retry protocol
// (deliver) with identical Cycles/Delivered/Drops/Deferrals and identical
// observer effects for any worker count, but shaped for a serving daemon
// answering one request per call on a persistent engine. It does not
// materialize the per-cycle delivery profile (Stats.PerCycle stays nil, the
// only field of the result that grows per call), so a warmed engine's whole
// request — validation, retry loop, latency batching, observer merges —
// performs zero heap allocations; cmd/ftserve calls RunServe once per
// /v1/route request on the tenant's persistent engine, and
// BenchmarkServeRoute pins the figure.
//
//ftlint:hotpath
func (e *Engine) RunServe(ms core.MessageSet) Stats {
	stats, _ := e.deliver(e.autoPool(), ms, nil, 0, maxCyclesDefault, nil, false)
	return stats
}
