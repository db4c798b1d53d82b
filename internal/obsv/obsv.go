// Package obsv is the structured observability layer of the simulator: it
// turns the delivery engine, the Theorem 1 scheduler, and the buffered
// simulator from black boxes that report totals into instruments that show
// *where* congestion concentrates and *why* a cycle stalls — the per-resource
// visibility the paper's quantitative claims (Theorems 1–10 bound delivery
// cycles, channel loading, and bit-serial ticks) invite.
//
// The layer has three parts:
//
//   - Counters: per-channel and per-switch tallies (wire use against the
//     Theorem-bound channel capacity, concentrator requests/grants/drops,
//     Hopcroft–Karp matching rounds, retries under loss injection)
//     accumulated into flat arrays preallocated when the observer is bound
//     to a tree, so recording is an array add — no maps, no allocation.
//   - A fixed-capacity ring-buffer event tracer (cycle start/end, flight
//     injected/advanced/blocked/delivered) with exporters to Chrome
//     trace_event JSON (chrome://tracing, Perfetto) and a JSONL stream; see
//     export.go.
//   - pprof plumbing: profile start/stop helpers for the CLIs' -profile
//     flag family (profile.go).
//
// # Cost contract
//
// Disabled observability is free: an engine whose observer is nil performs
// one pointer compare per deterministic merge point and allocates nothing —
// the hotalloc ftlint analyzer statically guarantees the hot path stays at
// 0 allocs/op, and the alloc-guard test asserts it at runtime. Enabled
// observability is cheap: counters are flat-array adds and events are
// fixed-slot ring writes, so steady-state cycles still allocate nothing.
//
// # Determinism contract
//
// An Observer is driven only from fixed points of the engine's single
// execution (injection, the end of each level's contests in node order,
// collection), so counter totals and the event stream are a pure function of
// the run, and attaching an observer never perturbs routing.
// FuzzEnginePlaneEquivalence pins both properties.
package obsv

import (
	"fmt"
	"io"
	"math/bits"
	"sync"

	"fattree/internal/core"
)

// Counters is the flat-array tally block of one Observer. Arrays are indexed
// the same way as the engine's own arenas: channels by 2·node+dir (dir 0 =
// Up, 1 = Down) and switches by heap node id, so recording is a single array
// add and cross-run comparison is plain slice equality.
type Counters struct {
	// Cycles is the number of delivery cycles observed.
	Cycles int64
	// Offered counts flight offers: a message offered in k cycles (retries
	// included) counts k times. Every offered flight ends the cycle in
	// exactly one of the three buckets below, so
	// Offered == Delivered + Dropped + Deferred always holds — the
	// conservation law TestDeliveryConservation pins.
	Offered int64
	// Delivered, Dropped, Deferred partition the offered flights by outcome:
	// reached the destination channel, lost at a concentrator (congestion or
	// injected fault), or unable to inject at the source leaf.
	Delivered int64
	Dropped   int64
	Deferred  int64
	// Retried counts flights re-offered after a failed cycle (the Section II
	// negative-acknowledgment protocol): the undelivered count summed over
	// cycles, excluding messages abandoned when a run stalls or hits its
	// cycle bound.
	Retried int64

	// WireUse[2·node+dir] counts wire-cycles actually carrying a message in
	// that channel: injections onto leaf up channels and the root down
	// channel, upward-sweep grants onto the up channel above the switch, and
	// downward-sweep grants onto the down channel above the chosen child.
	// Divided by Cycles × cap(channel) it is the channel's utilization
	// against the Theorem-bound capacity (see Report).
	WireUse []int64

	// Per-switch concentrator contention, indexed by heap node id (internal
	// nodes 1..n-1): requests contesting the node's concentrators, grants
	// (requests that won an output wire), and drops (requests lost to
	// congestion, a partial-concentrator miss, or an injected fault).
	Requests []int64
	Grants   []int64
	Drops    []int64

	// MatchRounds[node] counts Hopcroft–Karp BFS phases run by the node's
	// partial concentrators (0 for ideal switches) — the matching effort the
	// Section IV hardware would spend in its routing circuitry.
	MatchRounds []int64

	// Faults[node] counts drops caused by injected transient faults (the
	// Lossy wrapper) rather than congestion; Drops[node] includes them.
	Faults []int64

	// Buffered-simulator counters (RunBufferedObserved), per channel:
	// head-of-line stalls charged to the full downstream channel and the
	// peak queue occupancy observed.
	Stalls    []int64
	QueuePeak []int64

	// Scheduler counters (sched.OffLineObserved), indexed by tree level
	// (root = 0, leaves = lg n); index lg n + 1 holds the external-traffic
	// block. LevelCycles is the delivery cycles the level contributed to the
	// schedule, LevelMessages the messages whose LCA sits at the level.
	LevelCycles   []int64
	LevelMessages []int64
}

// Observer collects counters, histograms, and (optionally) an event trace
// from the simulator. Bind it to a tree with New, attach it to an engine
// with sim.Engine.SetObserver (or sim.Options.Observer), and read the
// counters directly, render them with Report, or take an immutable Snapshot.
//
// An Observer must be driven by one simulation goroutine at a time (the
// engine invokes it only from its deterministic serial merge points), and
// must not be shared by engines running concurrently. Snapshot, however, is
// safe to call from any goroutine while a run is in flight: recording is
// bracketed by an internal mutex held from CycleStart to CycleEnd (and
// around every out-of-cycle hook), so a snapshot observes only whole
// delivery cycles — the conservation law Offered == Delivered + Dropped +
// Deferred holds in every snapshot, mid-run included. Direct reads of C are
// only safe once the run has finished.
type Observer struct {
	C Counters

	// mu brackets recording so Snapshot can read mid-run. CycleStart
	// acquires it and CycleEnd releases it — one lock per delivery cycle,
	// not per hook — and the infrequent out-of-cycle hooks (Retries,
	// Latencies, Stall, Queue, SchedLevel) lock around themselves.
	mu sync.Mutex

	nodes  int   // tree nodes + 1 (valid ids are 1..nodes-1)
	levels int   // leaf level
	caps   []int // capacity of the channel above node v, by node id; nil when compact

	// heap marks a heap-indexed tree, whose node levels fold with one
	// bits.Len; other shapes (k-ary fat-trees) fold through the lvlFirst
	// table built from the topology's LevelRange.
	heap     bool
	lvlFirst []int
	lvlCount []int

	// compact marks a per-level observer (NewCompact): channel and switch
	// arrays are indexed by tree level instead of heap node id, so the
	// footprint is O(levels) and independent of n. The streaming engine
	// drives it through the same hooks (node ids are folded to levels on
	// entry); the k-ary engine requires a dense observer.
	compact   bool
	levelCaps []int       // compact only: per-level capacity profile
	ovCaps    map[int]int // compact only: per-channel override snapshot
	mixed     []bool      // compact only: level has overrides with differing caps

	// hist holds the fixed-size distribution instruments (see hist.go);
	// cycleLevelUse accumulates the current cycle's per-level wire use so
	// CycleEnd can bucket the cycle's utilization, and levelWires memoizes
	// each level's total channel capacity (the denominator).
	hist          hists
	cycleLevelUse []int64
	levelWires    []int64

	ring *Ring // nil until EnableTrace
}

// New returns an observer bound to t: every counter array is preallocated to
// the tree's size so recording never allocates. The per-node arrays make this
// the *dense* observer — O(n) memory; use NewCompact for topologies too large
// to materialize.
func New(t *core.FatTree) *Observer {
	nodes := t.Nodes() + 1
	o := &Observer{
		nodes:  nodes,
		levels: t.Levels(),
		caps:   core.CapTableOf(t),
	}
	o.bindLevels(t)
	o.C = Counters{
		WireUse:       make([]int64, 2*nodes),
		Requests:      make([]int64, nodes),
		Grants:        make([]int64, nodes),
		Drops:         make([]int64, nodes),
		MatchRounds:   make([]int64, nodes),
		Faults:        make([]int64, nodes),
		Stalls:        make([]int64, 2*nodes),
		QueuePeak:     make([]int64, 2*nodes),
		LevelCycles:   make([]int64, t.Levels()+2),
		LevelMessages: make([]int64, t.Levels()+2),
	}
	o.hist = newHists(t.Levels())
	o.cycleLevelUse = make([]int64, t.Levels()+1)
	o.levelWires = make([]int64, t.Levels()+1)
	for level := 0; level <= t.Levels(); level++ {
		first, count := o.lvlFirst[level], o.lvlCount[level]
		for v := first; v < first+count; v++ {
			o.levelWires[level] += int64(o.caps[v])
		}
	}
	return o
}

// bindLevels snapshots the topology's level geometry so the recording hooks
// can fold node ids to levels without touching the tree again.
func (o *Observer) bindLevels(t *core.FatTree) {
	o.heap = core.HeapIndexed(t)
	o.lvlFirst = make([]int, o.levels+1)
	o.lvlCount = make([]int, o.levels+1)
	for k := 0; k <= o.levels; k++ {
		o.lvlFirst[k], o.lvlCount[k] = t.LevelRange(k)
	}
}

// lvl folds a node id to its tree level: one bits.Len on heap-indexed trees,
// a short scan of the level table (at most levels+1 probes) otherwise.
//
//ftlint:hotpath
func (o *Observer) lvl(v int) int {
	if o.heap {
		return bits.Len(uint(v)) - 1
	}
	for k := o.levels; k > 0; k-- {
		if v >= o.lvlFirst[k] {
			return k
		}
	}
	return 0
}

// NewCompact returns an observer bound to t whose channel and switch counters
// are aggregated per tree level rather than per node, so its footprint is
// O(levels) — independent of n — and a 2^20-endpoint run can still assert the
// conservation laws and per-level utilization. Totals (Cycles, Offered,
// Delivered, Dropped, Deferred, Retried), histograms, and PerLevel carry the
// same information as a dense observer's aggregation; per-node attribution is
// unavailable. Only the streaming engine (and the scheduler's SchedLevel
// hook) can drive a compact observer; the k-ary engine rejects it.
func NewCompact(t *core.FatTree) *Observer {
	levels := t.Levels()
	o := &Observer{
		nodes:     t.Nodes() + 1,
		levels:    levels,
		compact:   true,
		levelCaps: t.LevelCapTable(),
		mixed:     make([]bool, levels+1),
	}
	o.bindLevels(t)
	o.C = Counters{
		WireUse:       make([]int64, 2*(levels+1)),
		Requests:      make([]int64, levels+1),
		Grants:        make([]int64, levels+1),
		Drops:         make([]int64, levels+1),
		MatchRounds:   make([]int64, levels+1),
		Faults:        make([]int64, levels+1),
		Stalls:        make([]int64, 2*(levels+1)),
		QueuePeak:     make([]int64, 2*(levels+1)),
		LevelCycles:   make([]int64, levels+2),
		LevelMessages: make([]int64, levels+2),
	}
	o.hist = newHists(levels)
	o.cycleLevelUse = make([]int64, levels+1)
	o.levelWires = make([]int64, levels+1)
	for level := 0; level <= levels; level++ {
		o.levelWires[level] = int64(o.lvlCount[level]) * int64(o.levelCaps[level])
	}
	t.Overrides(func(node, cap int) {
		level := o.lvl(node)
		o.levelWires[level] += int64(cap - o.levelCaps[level])
		if cap != o.levelCaps[level] {
			o.mixed[level] = true
		}
		if o.ovCaps == nil {
			o.ovCaps = make(map[int]int)
		}
		o.ovCaps[node] = cap
	})
	return o
}

// Levels returns the leaf level (lg n) of the bound tree.
func (o *Observer) Levels() int { return o.levels }

// Nodes returns one past the largest valid node id of the bound tree.
func (o *Observer) Nodes() int { return o.nodes }

// Compact reports whether the observer aggregates per level (NewCompact)
// rather than per node.
func (o *Observer) Compact() bool { return o.compact }

// ChannelCapacity returns the capacity of the channel above node v (both
// directions share one capacity), as snapshotted at New/NewCompact.
func (o *Observer) ChannelCapacity(v int) int {
	if o.compact {
		if c, ok := o.ovCaps[v]; ok {
			return c
		}
		return o.levelCaps[o.lvl(v)]
	}
	return o.caps[v]
}

// chIdx folds a (node, dir) channel to its counter index: 2·node+dir on a
// dense observer, 2·level+dir on a compact one.
func (o *Observer) chIdx(node, dir int) int {
	if o.compact {
		return 2*o.lvl(node) + dir
	}
	return 2*node + dir
}

// swIdx folds a switch node to its counter index: the node id on a dense
// observer, its level on a compact one.
func (o *Observer) swIdx(node int) int {
	if o.compact {
		return o.lvl(node)
	}
	return node
}

// EnableTrace attaches a fixed-capacity event ring buffer. The ring holds
// the most recent `capacity` events; older events are overwritten (the
// overwrite count is reported by Ring.Overwritten). capacity must be >= 1.
func (o *Observer) EnableTrace(capacity int) *Ring {
	o.ring = NewRing(capacity)
	return o.ring
}

// Trace returns the event ring, or nil when tracing is disabled.
func (o *Observer) Trace() *Ring { return o.ring }

// Tracing reports whether an event ring is attached.
func (o *Observer) Tracing() bool { return o.ring != nil }

// Reset zeroes every counter and histogram and drops all traced events; the
// binding (tree size, capacities, bucket bounds, ring capacity) is kept. Use
// it to reuse one observer across runs that should be tallied separately.
func (o *Observer) Reset() {
	o.mu.Lock()
	defer o.mu.Unlock()
	c := &o.C
	c.Cycles, c.Offered, c.Delivered, c.Dropped, c.Deferred, c.Retried = 0, 0, 0, 0, 0, 0
	for _, s := range [][]int64{
		c.WireUse, c.Requests, c.Grants, c.Drops, c.MatchRounds, c.Faults,
		c.Stalls, c.QueuePeak, c.LevelCycles, c.LevelMessages,
	} {
		for i := range s {
			s[i] = 0
		}
	}
	o.hist.reset()
	if o.ring != nil {
		o.ring.Reset()
	}
}

// CountersEqual reports whether two observers hold identical counter totals
// and identical histogram bucket arrays — the equality the parallel ==
// serial equivalence tests assert. Ring contents are compared only when both
// observers trace. Not safe while either observer's run is in flight.
func CountersEqual(a, b *Observer) bool {
	if !a.hist.equal(&b.hist) {
		return false
	}
	x, y := &a.C, &b.C
	if x.Cycles != y.Cycles || x.Offered != y.Offered ||
		x.Delivered != y.Delivered || x.Dropped != y.Dropped ||
		x.Deferred != y.Deferred || x.Retried != y.Retried {
		return false
	}
	for _, pair := range [][2][]int64{
		{x.WireUse, y.WireUse}, {x.Requests, y.Requests},
		{x.Grants, y.Grants}, {x.Drops, y.Drops},
		{x.MatchRounds, y.MatchRounds}, {x.Faults, y.Faults},
		{x.Stalls, y.Stalls},
		{x.QueuePeak, y.QueuePeak},
		{x.LevelCycles, y.LevelCycles}, {x.LevelMessages, y.LevelMessages},
	} {
		if len(pair[0]) != len(pair[1]) {
			return false
		}
		for i := range pair[0] {
			if pair[0][i] != pair[1][i] {
				return false
			}
		}
	}
	return true
}

// Recording methods. Each is a guarded array add — no allocation, no map,
// no branch beyond the bounds the caller already established — so the
// engine can call them from hot-path merge points when an observer is
// attached without breaking its zero-allocation steady state.

// CycleStart records the start of a delivery cycle offering `offered`
// flights. It acquires the observer's snapshot mutex, which the matching
// CycleEnd releases: every recording hook between the two runs inside one
// critical section, so a concurrent Snapshot sees only whole cycles.
func (o *Observer) CycleStart(offered int) {
	o.mu.Lock()
	o.C.Offered += int64(offered)
	for i := range o.cycleLevelUse {
		o.cycleLevelUse[i] = 0
	}
	if o.ring != nil {
		o.ring.push(Event{Kind: EvCycleStart, Cycle: o.C.Cycles, Count: int32(offered)})
	}
}

// CycleEnd records the end of the current delivery cycle with its outcome
// partition, buckets the cycle's per-level wire utilization, advances the
// cycle counter, and releases the snapshot mutex taken by CycleStart.
func (o *Observer) CycleEnd(delivered, dropped, deferred int) {
	o.C.Delivered += int64(delivered)
	o.C.Dropped += int64(dropped)
	o.C.Deferred += int64(deferred)
	for level, use := range o.cycleLevelUse {
		// Both directions of every channel are available each cycle, so the
		// per-cycle ceiling is 2 × the level's total capacity. Integer
		// per-mille keeps bucketing exact across worker counts.
		if wires := o.levelWires[level]; wires > 0 {
			o.hist.levelUtil[level].Observe(1000 * use / (2 * wires))
		}
	}
	if o.ring != nil {
		o.ring.push(Event{Kind: EvCycleEnd, Cycle: o.C.Cycles, Count: int32(delivered)})
	}
	o.C.Cycles++
	o.mu.Unlock()
}

// Retries records flights re-offered after the current cycle. Called by the
// retry loops between cycles, outside the CycleStart–CycleEnd section.
func (o *Observer) Retries(n int) {
	o.mu.Lock()
	o.C.Retried += int64(n)
	o.mu.Unlock()
}

// Latencies records the delivery latency, in delivery cycles from first
// offer to delivery, of every message delivered by the cycle that just
// ended (1 = delivered in the cycle it was first offered). The engine's
// retry loops batch one call per cycle, outside the CycleStart–CycleEnd
// section.
func (o *Observer) Latencies(lat []int64) {
	o.mu.Lock()
	for _, v := range lat {
		o.hist.latency.Observe(v)
	}
	o.mu.Unlock()
}

// Inject records flight i of the current cycle entering the network on a
// wire of the channel above `node` (the source leaf, or the root for
// external inputs).
func (o *Observer) Inject(i int, m core.Message, node, wire int) {
	o.C.WireUse[o.chIdx(node, channelDirOf(node, m))]++
	o.cycleLevelUse[o.lvl(node)]++
	if o.ring != nil {
		o.ring.push(Event{
			Kind: EvInject, Cycle: o.C.Cycles, Node: int32(node), Flight: int32(i),
			Src: int32(m.Src), Dst: int32(m.Dst), Wire: int32(wire),
		})
	}
}

// channelDirOf picks the direction of an injection channel: external inputs
// hold root *down* wires, everything else a leaf *up* wire.
func channelDirOf(node int, m core.Message) int {
	if node == 1 && m.Src == core.External {
		return int(core.Down)
	}
	return int(core.Up)
}

// Defer records flight i failing to inject (source channel full).
func (o *Observer) Defer(i int, m core.Message, node int) {
	if o.ring != nil {
		o.ring.push(Event{
			Kind: EvDefer, Cycle: o.C.Cycles, Node: int32(node), Flight: int32(i),
			Src: int32(m.Src), Dst: int32(m.Dst), Wire: -1,
		})
	}
}

// SwitchDelta records the outcome of one switch's concentrator contest in
// one sweep step: reqs requests, drops losses, plus the switch's hardware
// counters for the step (Hopcroft–Karp BFS rounds, fault corruptions). The
// engine differences each switch's cumulative counters itself — a binary
// engine builds its partial and lossy switches lazily, so the observer holds
// no per-switch baseline. Works on dense and compact observers alike.
func (o *Observer) SwitchDelta(node, reqs, drops int, dRounds, dFaults int64) {
	i := o.swIdx(node)
	o.C.Requests[i] += int64(reqs)
	o.C.Grants[i] += int64(reqs - drops)
	o.C.Drops[i] += int64(drops)
	o.C.MatchRounds[i] += dRounds
	o.hist.matchRounds.Observe(dRounds)
	o.C.Faults[i] += dFaults
}

// Advance records flight i winning a wire of the channel (chanNode, dir) at
// switch `node` during a sweep.
func (o *Observer) Advance(i int, m core.Message, node, chanNode, dir, wire int) {
	o.Use(chanNode, dir, 1)
	if o.ring != nil {
		o.ring.push(Event{
			Kind: EvAdvance, Cycle: o.C.Cycles, Node: int32(node), Flight: int32(i),
			Src: int32(m.Src), Dst: int32(m.Dst), Wire: int32(wire),
		})
	}
}

// Use records count wires of the channel (chanNode, dir) won in one sweep
// step: the counter adds of count Advance calls, without their events. The
// streaming engine records a node run's winners this way when no event ring
// is attached.
func (o *Observer) Use(chanNode, dir, count int) {
	o.C.WireUse[o.chIdx(chanNode, dir)] += int64(count)
	o.cycleLevelUse[o.lvl(chanNode)] += int64(count)
}

// Block records flight i losing the concentrator contest at switch `node`
// (dropped; it will be negatively acknowledged and retried).
func (o *Observer) Block(i int, m core.Message, node int) {
	if o.ring != nil {
		o.ring.push(Event{
			Kind: EvBlock, Cycle: o.C.Cycles, Node: int32(node), Flight: int32(i),
			Src: int32(m.Src), Dst: int32(m.Dst), Wire: -1,
		})
	}
}

// Deliver records flight i reaching its destination channel at switch
// `node`.
func (o *Observer) Deliver(i int, m core.Message, node int) {
	if o.ring != nil {
		o.ring.push(Event{
			Kind: EvDeliver, Cycle: o.C.Cycles, Node: int32(node), Flight: int32(i),
			Src: int32(m.Src), Dst: int32(m.Dst), Wire: -1,
		})
	}
}

// Stall records a head-of-line stall on the buffered simulator's channel
// (2·node+dir index ch).
func (o *Observer) Stall(ch int) {
	o.mu.Lock()
	o.C.Stalls[o.chIdx(ch>>1, ch&1)]++
	o.mu.Unlock()
}

// Queue records the occupancy of buffered channel ch, keeping the peak and
// bucketing every non-empty occupancy into the queue-depth histogram.
func (o *Observer) Queue(ch, depth int) {
	o.mu.Lock()
	ch = o.chIdx(ch>>1, ch&1)
	if int64(depth) > o.C.QueuePeak[ch] {
		o.C.QueuePeak[ch] = int64(depth)
	}
	if depth > 0 {
		o.hist.queueDepth.Observe(int64(depth))
	}
	o.mu.Unlock()
}

// SchedLevel records the Theorem 1 scheduler routing `messages` messages
// whose LCAs sit at `level` in `cycles` delivery cycles. Level levels+1
// holds the external-traffic block.
func (o *Observer) SchedLevel(level, cycles, messages int) {
	o.mu.Lock()
	o.C.LevelCycles[level] += int64(cycles)
	o.C.LevelMessages[level] += int64(messages)
	o.mu.Unlock()
}

// LevelSummary is one row of the per-level counter report.
type LevelSummary struct {
	Level    int
	Nodes    int   // switches (or leaves) at the level
	Wires    int64 // total wires across the level's channels (one direction)
	Capacity int   // wires per channel at the level (uniform levels only; -1 if mixed)
	// WireUse and Utilization aggregate both directions of every channel
	// beneath the level's nodes... see Report for the exact definition.
	WireUse     int64
	Utilization float64 // WireUse / (Cycles × total wires at level)
	Requests    int64
	Grants      int64
	Drops       int64
	MatchRounds int64
}

// PerLevel aggregates the channel and switch counters by tree level: level k
// covers the channels above the 2^k nodes at depth k and the concentrator
// activity of the switches there (leaf level channels carry injections; the
// leaf "switches" are processors, so their contention fields are zero).
func (o *Observer) PerLevel() []LevelSummary {
	out := make([]LevelSummary, o.levels+1)
	if o.compact {
		for level := 0; level <= o.levels; level++ {
			s := &out[level]
			s.Level = level
			s.Nodes = o.lvlCount[level]
			s.Capacity = o.levelCaps[level]
			if o.mixed[level] {
				s.Capacity = -1
			}
			s.Wires = o.levelWires[level]
			s.WireUse = o.C.WireUse[2*level] + o.C.WireUse[2*level+1]
			s.Requests = o.C.Requests[level]
			s.Grants = o.C.Grants[level]
			s.Drops = o.C.Drops[level]
			s.MatchRounds = o.C.MatchRounds[level]
			if o.C.Cycles > 0 && s.Wires > 0 {
				s.Utilization = float64(s.WireUse) / float64(o.C.Cycles*2*s.Wires)
			}
		}
		return out
	}
	for level := 0; level <= o.levels; level++ {
		first, count := o.lvlFirst[level], o.lvlCount[level]
		s := &out[level]
		s.Level = level
		s.Nodes = count
		s.Capacity = o.caps[first]
		for v := first; v < first+count; v++ {
			if o.caps[v] != s.Capacity {
				s.Capacity = -1 // per-channel overrides make the level mixed
			}
			s.Wires += int64(o.caps[v])
			s.WireUse += o.C.WireUse[2*v] + o.C.WireUse[2*v+1]
			s.Requests += o.C.Requests[v]
			s.Grants += o.C.Grants[v]
			s.Drops += o.C.Drops[v]
			s.MatchRounds += o.C.MatchRounds[v]
		}
		if o.C.Cycles > 0 && s.Wires > 0 {
			// Both directions of every channel are available each cycle.
			s.Utilization = float64(s.WireUse) / float64(o.C.Cycles*2*s.Wires)
		}
	}
	return out
}

// Report writes a human-readable counter summary: the outcome totals, the
// conservation check, and the per-level utilization/contention table.
func (o *Observer) Report(w io.Writer) error {
	c := &o.C
	if _, err := fmt.Fprintf(w,
		"observed %d cycles: offered %d = delivered %d + dropped %d + deferred %d (retried %d)\n",
		c.Cycles, c.Offered, c.Delivered, c.Dropped, c.Deferred, c.Retried); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "%5s %6s %9s %10s %6s %9s %8s %7s %7s\n",
		"level", "nodes", "cap/chan", "wire-use", "util", "requests", "grants", "drops", "hkbfs"); err != nil {
		return err
	}
	for _, s := range o.PerLevel() {
		capStr := fmt.Sprintf("%d", s.Capacity)
		if s.Capacity < 0 {
			capStr = "mixed"
		}
		if _, err := fmt.Fprintf(w, "%5d %6d %9s %10d %5.1f%% %9d %8d %7d %7d\n",
			s.Level, s.Nodes, capStr, s.WireUse, 100*s.Utilization,
			s.Requests, s.Grants, s.Drops, s.MatchRounds); err != nil {
			return err
		}
	}
	if tr := o.ring; tr != nil {
		if _, err := fmt.Fprintf(w, "trace: %d events buffered, %d overwritten\n",
			tr.Len(), tr.Overwritten()); err != nil {
			return err
		}
	}
	return nil
}
