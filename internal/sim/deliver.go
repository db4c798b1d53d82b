package sim

import (
	"math/rand"

	"fattree/internal/core"
)

// maxZeroStreak is how many consecutive no-progress drain cycles a shuffled
// or lossy run tolerates: with random priorities or injected transient
// faults one cycle can deliver nothing by bad luck, and only a long streak
// indicates genuine livelock.
const maxZeroStreak = 1000

// deliver is the acknowledgment protocol of Section II, the one retry loop
// behind every multi-cycle entry point: each cycle offers the undelivered
// messages carried from earlier cycles followed by the cycle's arrivals,
// negatively acknowledges the losers and carries them to the next cycle.
//
// The run starts with initial (validated; first offered in cycle 0). For
// every cycle c < horizon, arrive(c) supplies that cycle's new messages and
// the cycle runs even if nothing is pending. After the horizon the loop
// drains the carried losers until none remain or budget total cycles have
// run. A drain cycle that delivers nothing ends the run; with shuffle set or
// loss injected, maxZeroStreak consecutive ones do. shuffle, when non-nil, reorders each
// cycle's offer (and its parallel first-offer stamps) in place before the
// cycle runs; the order decides who wins at every concentrator. perCycle
// keeps Stats.PerCycle: each cycle's deliveries are counted in the engine's
// scratch, and one exactly sized copy is handed back when the run ends, the
// loop's only allocation however many cycles it runs.
//
// Pending sets, first-offer stamps and delivery counts live in the engine's
// scratch arena, so a warmed engine runs the loop without allocating. The
// stamps give every delivery's latency, (c+1) − first offer cycle, whose sum
// is returned and whose per-cycle batch goes to the observer.
//
//ftlint:hotpath
func (e *Engine) deliver(initial core.MessageSet, arrive func(c int) core.MessageSet,
	horizon, budget int, shuffle func(core.MessageSet, []int64), perCycle bool) (stats Stats, latencySum int64) {
	//ftlint:ignore hotalloc Validate allocates only on its error path, which feeds the panic below; the happy path is allocation-free.
	if err := initial.Validate(e.tree); err != nil {
		panic(err)
	}
	stallLimit := 1
	if shuffle != nil || e.stream.lossOn {
		stallLimit = maxZeroStreak
	}
	pending := append(e.scr.pendA[:0], initial...)
	next := e.scr.pendB[:0]
	ages := e.scr.ageA[:0]
	for range initial {
		ages = append(ages, 0)
	}
	agesNext := e.scr.ageB[:0]
	lat := e.scr.latBuf[:0]
	counts := e.scr.perCycle[:0]
	zeroStreak := 0
	for c := 0; c < horizon || (len(pending) > 0 && c < budget); c++ {
		if c > 0 && len(pending) > 0 && e.obs != nil {
			// Everything carried into this cycle is a re-offered loser.
			e.obs.Retries(len(pending))
		}
		if c < horizon {
			arrivals := arrive(c)
			pending = append(pending, arrivals...)
			for range arrivals {
				ages = append(ages, int64(c))
			}
		}
		if shuffle != nil {
			shuffle(pending, ages)
		}
		delivered, res := e.runCycle(pending)
		stats.Cycles++
		stats.Delivered += res.Delivered
		stats.Drops += res.Dropped
		stats.Deferrals += res.Deferred
		if perCycle {
			counts = append(counts, res.Delivered)
		}
		next, agesNext, lat = next[:0], agesNext[:0], lat[:0]
		for i, ok := range delivered {
			if ok {
				d := int64(c+1) - ages[i]
				lat = append(lat, d)
				latencySum += d
			} else {
				next = append(next, pending[i])
				agesNext = append(agesNext, ages[i])
			}
		}
		if e.obs != nil {
			e.obs.Latencies(lat)
		}
		pending, next = next, pending
		ages, agesNext = agesNext, ages
		if c >= horizon {
			if res.Delivered == 0 {
				zeroStreak++
			} else {
				zeroStreak = 0
			}
			if zeroStreak >= stallLimit {
				// No progress: with partial concentrators or faults an
				// unlucky matching can stall retries forever; stop and let
				// Delivered report it. Abandoned messages record no latency.
				break
			}
		}
	}
	e.scr.pendA, e.scr.pendB = pending[:0], next[:0]
	e.scr.ageA, e.scr.ageB, e.scr.latBuf = ages[:0], agesNext[:0], lat[:0]
	e.scr.perCycle = counts[:0]
	if len(counts) > 0 {
		stats.PerCycle = make([]int, len(counts))
		copy(stats.PerCycle, counts)
	}
	return stats, latencySum
}

// randomOrder returns a deliver shuffle that gives every cycle fresh random
// contention priorities, seeded. The stamps ride the same swaps, which
// consume no randomness, so the order depends only on the seed and the
// pending counts.
func randomOrder(seed int64) func(core.MessageSet, []int64) {
	rng := rand.New(rand.NewSource(seed))
	return func(ms core.MessageSet, ages []int64) {
		rng.Shuffle(len(ms), func(i, j int) {
			ms[i], ms[j] = ms[j], ms[i]
			ages[i], ages[j] = ages[j], ages[i]
		})
	}
}
