package obsv

// This file implements the fixed-size bucketed histograms of the live
// telemetry layer. The paper's quantitative claims are distributional —
// Theorems 5–7 bound per-channel load against capacity, and delivery time is
// a per-message quantity — so totals alone (obsv.Counters) cannot show a
// tail. A Hist captures the distribution with the same cost discipline as
// the counters: the bucket array is preallocated at construction, Observe is
// a bounded linear scan over at most a few dozen int64 bounds, and nothing
// ever allocates after New. Bounds are integers because every observed
// quantity is one — cycles, Hopcroft–Karp rounds, queue occupancies, and
// utilization scaled to per-mille — which keeps bucketing exact and
// bit-identical across identical runs (no float rounding to disagree about).

// Hist is a fixed-size histogram over int64 observations. Bucket i counts
// observations v with v <= Bound(i) (and > Bound(i-1)); one extra overflow
// bucket counts observations above the last bound (the Prometheus "+Inf"
// bucket). The zero Hist is unusable; construct with NewHist or NewLog2Hist.
//
// A Hist is not synchronized; the owning Observer serializes access.
type Hist struct {
	bounds []int64 // strictly increasing inclusive upper bounds
	counts []int64 // len(bounds)+1; last entry is the overflow bucket
	total  int64
	sum    int64
}

// NewHist returns a histogram with the given strictly increasing inclusive
// upper bounds (plus the implicit overflow bucket). The bounds slice is
// copied. It panics if bounds is empty or not strictly increasing.
func NewHist(bounds []int64) Hist {
	if len(bounds) == 0 {
		panic("obsv: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obsv: histogram bounds must be strictly increasing")
		}
	}
	b := make([]int64, len(bounds))
	copy(b, bounds)
	return Hist{bounds: b, counts: make([]int64, len(b)+1)}
}

// NewLog2Hist returns a histogram with power-of-two bounds 1, 2, 4, ...,
// 2^maxExp — the log-bucketed shape used for latency, matching-round, and
// queue-depth distributions, whose interesting structure is multiplicative.
func NewLog2Hist(maxExp int) Hist {
	if maxExp < 0 {
		panic("obsv: NewLog2Hist needs maxExp >= 0")
	}
	bounds := make([]int64, maxExp+1)
	for i := range bounds {
		bounds[i] = 1 << uint(i)
	}
	return NewHist(bounds)
}

// Observe records one observation. Boundary values land in the bucket whose
// bound they equal (bounds are inclusive, the Prometheus "le" convention).
func (h *Hist) Observe(v int64) { h.ObserveIdx(v) }

// ObserveIdx records one observation and returns the index of the bucket it
// landed in (NumBuckets()-1 for the overflow bucket) — the hook the RED
// instruments use to pin an exemplar trace ID to the bucket.
//
//ftlint:hotpath
func (h *Hist) ObserveIdx(v int64) int {
	h.total++
	h.sum += v
	for i, b := range h.bounds {
		if v <= b {
			h.counts[i]++
			return i
		}
	}
	h.counts[len(h.bounds)]++
	return len(h.bounds)
}

// Count returns the number of observations recorded.
func (h *Hist) Count() int64 { return h.total }

// Sum returns the sum of all observed values.
func (h *Hist) Sum() int64 { return h.sum }

// NumBuckets returns the number of buckets including the overflow bucket.
func (h *Hist) NumBuckets() int { return len(h.counts) }

// Bound returns the inclusive upper bound of bucket i; i must be less than
// NumBuckets()-1 (the overflow bucket has no finite bound).
func (h *Hist) Bound(i int) int64 { return h.bounds[i] }

// BucketCount returns the (non-cumulative) count of bucket i; index
// NumBuckets()-1 is the overflow bucket.
func (h *Hist) BucketCount(i int) int64 { return h.counts[i] }

// Reset zeroes every bucket; the bounds are kept.
func (h *Hist) Reset() {
	h.total, h.sum = 0, 0
	for i := range h.counts {
		h.counts[i] = 0
	}
}

// Quantile returns the smallest bucket upper bound b such that at least
// q·Count() observations are <= b — the histogram's resolution-limited
// q-quantile. It returns (0, false) on an empty histogram and (0, false)
// when the quantile falls in the overflow bucket (the value is unbounded at
// this resolution).
func (h *Hist) Quantile(q float64) (int64, bool) {
	return quantile(h.bounds, h.counts, h.total, q)
}

// quantile is the shared bounds/counts walk used by Hist and HistSnap.
func quantile(bounds, counts []int64, total int64, q float64) (int64, bool) {
	if total == 0 {
		return 0, false
	}
	rank := int64(q * float64(total))
	if rank < 1 {
		rank = 1
	}
	if rank > total {
		rank = total
	}
	cum := int64(0)
	for i, b := range bounds {
		cum += counts[i]
		if cum >= rank {
			return b, true
		}
	}
	return 0, false
}

// histEqual reports whether two histograms hold identical bounds and counts
// — the bit-equality the cross-worker-count determinism tests assert.
func histEqual(a, b *Hist) bool {
	if a.total != b.total || a.sum != b.sum ||
		len(a.bounds) != len(b.bounds) {
		return false
	}
	for i := range a.bounds {
		if a.bounds[i] != b.bounds[i] {
			return false
		}
	}
	for i := range a.counts {
		if a.counts[i] != b.counts[i] {
			return false
		}
	}
	return true
}

// Default bucket shapes. Latency is open-ended (a livelocked retry loop can
// take thousands of cycles), matching rounds include an explicit 0 bucket
// (ideal concentrators run no Hopcroft–Karp phases), and per-level
// utilization is bounded by construction, so its bounds are per-mille of
// the Theorem 5 channel capacity with a top bucket at exactly 1000.
var (
	latencyBounds     = log2Bounds(16)                                        // 1 .. 65536 cycles
	matchRoundsBounds = append([]int64{0}, log2Bounds(9)...)                  // 0, 1 .. 512 rounds
	queueDepthBounds  = log2Bounds(12)                                        // 1 .. 4096 messages
	utilBounds        = []int64{0, 10, 25, 50, 100, 250, 500, 750, 900, 1000} // per-mille
)

// log2Bounds returns 1, 2, 4, ..., 2^maxExp.
func log2Bounds(maxExp int) []int64 {
	bounds := make([]int64, maxExp+1)
	for i := range bounds {
		bounds[i] = 1 << uint(i)
	}
	return bounds
}

// hists groups an observer's histograms; see New for the binding rules.
type hists struct {
	// latency is the per-message delivery latency in delivery cycles from
	// first offer to delivery (1 = delivered in the cycle it was first
	// offered), recorded by the engine's retry loops for every delivered
	// message. Messages abandoned by a stalled run are not recorded.
	latency Hist
	// matchRounds is the Hopcroft–Karp BFS phases per switch contest,
	// recorded at every Switch hook (ideal concentrators contribute 0).
	matchRounds Hist
	// queueDepth is the buffered model's per-channel queue occupancy,
	// recorded per hop for every non-empty queue.
	queueDepth Hist
	// levelUtil[level] is the per-cycle wire utilization of the level's
	// channels in per-mille of capacity (both directions), recorded at every
	// CycleEnd.
	levelUtil []Hist
}

func newHists(levels int) hists {
	h := hists{
		latency:     NewHist(latencyBounds),
		matchRounds: NewHist(matchRoundsBounds),
		queueDepth:  NewHist(queueDepthBounds),
		levelUtil:   make([]Hist, levels+1),
	}
	for i := range h.levelUtil {
		h.levelUtil[i] = NewHist(utilBounds)
	}
	return h
}

func (h *hists) reset() {
	h.latency.Reset()
	h.matchRounds.Reset()
	h.queueDepth.Reset()
	for i := range h.levelUtil {
		h.levelUtil[i].Reset()
	}
}

func (h *hists) equal(o *hists) bool {
	if !histEqual(&h.latency, &o.latency) ||
		!histEqual(&h.matchRounds, &o.matchRounds) ||
		!histEqual(&h.queueDepth, &o.queueDepth) ||
		len(h.levelUtil) != len(o.levelUtil) {
		return false
	}
	for i := range h.levelUtil {
		if !histEqual(&h.levelUtil[i], &o.levelUtil[i]) {
			return false
		}
	}
	return true
}
