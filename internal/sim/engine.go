// Package sim simulates message delivery on a fat-tree at two granularities.
//
// The delivery-cycle engine drives the actual switching hardware of Section
// II: during a cycle, every pending message snakes from its source leaf up to
// its least common ancestor and back down, competing for channel wires at
// each node's concentrator switches; messages that lose a concentrator port
// are dropped (congestion), negatively acknowledged, and retried in a later
// cycle. Running an off-line schedule (Section III) through the engine with
// ideal concentrators delivers every cycle's messages without loss — the
// integration of Theorem 1 with the Fig. 3 node design.
//
// The bit-serial timing model (Fig. 2) accounts the clock ticks a delivery
// cycle takes: messages establish paths leading-bit-first, address bits are
// stripped one per switch, and the payload follows, so a cycle lasts
// O(lg n + payload) ticks.
//
// # The allocation-free data plane
//
// Both cycle paths share one bucketed data plane that does O(flights × path
// length) work per cycle with zero steady-state heap allocation: each sweep
// step touches every in-flight message exactly once to bucket it under its
// owning switch (replacing the historical per-switch scan over all flights),
// and all transient state — the flight table, the per-leaf injection
// counters, the per-switch request lists and wire guards, and the wire
// histories — lives in a per-engine scratch arena that is reused from cycle
// to cycle. The first cycle after construction (or after a growth in problem
// size) warms the arena; subsequent cycles allocate nothing. Channel
// capacities are memoized into a flat array indexed by node id at
// construction, so the sweep does integer arithmetic only — no map probes
// through capacity overrides, and no tree walks (the downward steering
// decision reads one bit of the destination leaf index). See DESIGN.md
// "Scratch-arena ownership" for the reuse rules.
//
// # Parallel delivery cycles
//
// The engine has two interchangeable cycle executions of that one data
// plane. The serial path (Engine.Run, and Engine.RunCycle on a one-worker
// engine) routes the buckets of each tree level in node order on the calling
// goroutine. The parallel path (Engine.RunParallel, Engine.RunCyclesParallel,
// and Engine.RunCycle on a multi-worker engine) exploits the independence of
// a level's switches — within one sweep they touch disjoint messages,
// disjoint channels, and disjoint scratch — to fan the buckets out over a
// bounded worker pool (internal/par), merging per-switch drop counts in node
// order. The streaming plane of an implicit tree has only the serial
// execution; its parallel entry points route on the calling goroutine.
//
// The parallel path is bit-identical to the serial path for any worker
// count. Contention winners are decided by per-switch request order, which
// both paths derive from message index order; and every source of randomness
// — partial-concentrator wiring and transient-fault (loss) injection — draws
// from a per-switch RNG stream seeded deterministically from (seed, node) at
// construction, consumed by exactly one worker per sweep, so loss injection
// and partial-concentrator behavior are reproducible regardless of how the
// switches are distributed over workers. The equivalence tests in this
// package prove the guarantee across worker counts, switch kinds, fault
// rates, and engine reuse.
package sim

import (
	"math/bits"

	"fattree/internal/concentrator"
	"fattree/internal/core"
	"fattree/internal/obsv"
	"fattree/internal/par"
)

// Options configures optional engine behavior.
type Options struct {
	// Workers bounds the concurrency of the parallel delivery-cycle path:
	// the switches of each tree level are fanned out over at most Workers
	// goroutines. 0 means runtime.GOMAXPROCS(0). 1 pins the engine to the
	// serial reference path (RunCycle routes switches one by one). The
	// delivered messages, drop counts, and wire assignments are identical
	// for every value — workers only change wall-clock time. An implicit
	// tree's streaming plane always routes serially, whatever the value.
	Workers int

	// Observer, when non-nil, attaches the observability layer (internal/
	// obsv) to the engine: per-channel and per-switch counters plus the
	// optional event trace, recorded at the deterministic serial merge points
	// of the cycle data plane. A nil Observer costs one pointer compare per
	// merge point and nothing else. Equivalent to calling SetObserver.
	Observer *obsv.Observer
}

// Engine simulates delivery cycles on one fat-tree with persistent switch
// hardware (the concentrator graphs are built once, as in a real machine).
//
// An Engine owns a scratch arena that is reused across cycles, so a single
// Engine must not run cycles from multiple goroutines concurrently, and the
// slices returned by RunCycle and friends are valid only until the engine's
// next cycle. Reusing one engine across many cycles and message sets is the
// intended mode and produces results identical to a fresh engine (the
// engine-reuse equivalence tests pin this).
type Engine struct {
	tree     core.Topology
	switches []*concentrator.Switch // indexed by node 1..n-1 (internal nodes)
	pool     *par.Pool              // bounds the parallel cycle path

	// caps memoizes the channel capacity above every node (both directions
	// share one capacity), indexed by heap node id, so the cycle data plane
	// never consults the tree's override map. Snapshotted at construction,
	// consistent with the switch hardware built from the same values.
	caps []int

	// obs is the attached observability layer, nil when disabled. It is a
	// concrete pointer (never an interface) so the disabled hot path is a
	// single nil compare with no interface-conversion allocation; see
	// observe.go for the hook points and the determinism argument.
	obs *obsv.Observer

	scr scratch

	// levelWorker is the persistent fan-out closure handed to the worker
	// pool each sweep step; the step's parameters travel in scratch fields
	// (curFirst, curUp) so steady-state cycles allocate no closures.
	levelWorker func(k int)

	// stream is non-nil when the engine simulates an ImplicitFatTree: the
	// streaming data plane of stream.go, which carries sorted (node, flight)
	// key lists from one sweep step to the next, replaces the dense per-node
	// state above (switches, caps, scr.node, scr.buckets, the injection
	// counters), whose slices are then left nil. Memory becomes
	// O(messages × path length), independent of n.
	stream *streamState

	// kary is non-nil when the engine simulates a KaryFatTree: the level-
	// table data plane of kary.go replaces the switch objects and per-node
	// scratch (switches and scr.node stay nil) while reusing the bucketed
	// sweep machinery.
	kary *karyState
}

// scratch is the engine's reusable per-cycle arena. Every slice grows to the
// high-water mark of the scenarios routed so far and is then reused without
// allocation; see DESIGN.md "Scratch-arena ownership".
type scratch struct {
	flights   []flight
	delivered []bool
	histArena []int // flat wire-history storage; flights hold offsets into it

	// Per-processor injection counters, epoch-stamped so they need no
	// clearing between cycles.
	injUsed  []int
	injStamp []int64
	epoch    int64

	// Per-level bucketing state: buckets[v-first] lists the flight indices
	// switch v owns this sweep step in message-index order; nodes lists the
	// non-empty buckets in first-touch (= message-index) order; dropped
	// collects per-switch drop counts for the deterministic merge. curFirst
	// and curUp parameterize the current sweep step for levelWorker.
	buckets  [][]int
	nodes    []int
	dropped  []int
	curFirst int
	curUp    bool

	// Per-switch scratch, indexed by node 1..n-1. Distinct switches are
	// routed by distinct workers, so slots never race.
	node []nodeScratch

	// Ping-pong pending buffers for the retry loop (deliver).
	pendA, pendB core.MessageSet

	// Ping-pong first-offer cycle stamps parallel to pendA/pendB, plus the
	// per-cycle latency batch handed to the observer. The retry loop keeps
	// them on every run, observed or not: open-loop mean latency is summed
	// from them, and a warmed engine reuses their storage without
	// allocating.
	ageA, ageB, latBuf []int64
}

// nodeScratch is the per-switch slice of the arena: the request list handed
// to the concentrators and the epoch-stamped wire guards that check the
// hardware invariant (no channel wire assigned twice in one sweep).
type nodeScratch struct {
	reqs      []concentrator.Request
	upStamp   []int64
	downStamp [2][]int64
	gen       int64
}

// New builds the engine: one switch per internal node, with concentrators of
// the given kind (ideal per Section III, or Pippenger-style partial per
// Section IV). seed feeds the partial constructions. The engine uses up to
// GOMAXPROCS workers for its delivery cycles; see NewWithOptions to pin the
// worker count.
func New(t core.Topology, kind concentrator.Kind, seed int64) *Engine {
	return NewWithOptions(t, kind, seed, Options{})
}

// NewWithOptions is New with explicit Options. An ImplicitFatTree selects the
// streaming data plane (stream.go), whose memory is independent of the
// processor count; a KaryFatTree selects the level-table plane (kary.go),
// which routes with inline ideal concentrators; any other Topology gets the
// dense per-node engine.
func NewWithOptions(t core.Topology, kind concentrator.Kind, seed int64, opts Options) *Engine {
	if imp, ok := t.(*core.ImplicitFatTree); ok {
		return newStreamEngine(imp, kind, seed, opts)
	}
	if kt, ok := t.(*core.KaryFatTree); ok {
		return newKaryEngine(kt, kind, seed, opts)
	}
	e := &Engine{
		tree:     t,
		switches: make([]*concentrator.Switch, t.Processors()),
		pool:     par.New(opts.Workers),
		caps:     core.CapTableOf(t),
	}
	n := t.Processors()
	e.scr.node = make([]nodeScratch, n)
	for v := 1; v < n; v++ {
		capParent := e.caps[v]
		capChild := e.caps[2*v]
		e.switches[v] = concentrator.NewSwitch(capParent, capChild, kind, seed+int64(v))
		e.scr.node[v] = nodeScratch{
			reqs:      make([]concentrator.Request, 0, capParent+2*capChild),
			upStamp:   make([]int64, capParent),
			downStamp: [2][]int64{make([]int64, capChild), make([]int64, capChild)},
		}
	}
	e.scr.injUsed = make([]int, n)
	e.scr.injStamp = make([]int64, n)
	maxNodes := 1
	if lv := t.Levels(); lv > 1 {
		maxNodes = 1 << uint(lv-1)
	}
	e.scr.buckets = make([][]int, maxNodes)
	e.scr.nodes = make([]int, 0, maxNodes)
	e.scr.dropped = make([]int, maxNodes)
	e.levelWorker = func(k int) {
		scr := &e.scr
		v := scr.nodes[k]
		var local CycleResult
		e.routeGathered(v, scr.flights, scr.buckets[v-scr.curFirst], scr.curUp, &local)
		scr.dropped[v-scr.curFirst] = local.Dropped
	}
	if opts.Observer != nil {
		e.SetObserver(opts.Observer)
	}
	return e
}

// Tree returns the fat-tree the engine simulates.
func (e *Engine) Tree() core.Topology { return e.tree }

// Workers returns the engine's worker bound for parallel delivery cycles.
func (e *Engine) Workers() int { return e.pool.Workers() }

// InjectLoss adds a transient-fault model to every switch: each routed
// message is independently corrupted with the given rate and must be retried
// (Section VII's fault-tolerance concern, absorbed by the Section II
// acknowledgment protocol). Each switch draws from its own RNG stream seeded
// by (seed, node), so fault patterns are reproducible on the parallel cycle
// path for any worker count.
func (e *Engine) InjectLoss(rate float64, seed int64) {
	if e.stream != nil {
		e.stream.injectLoss(rate, seed)
		return
	}
	if e.kary != nil {
		panic("sim: loss injection is not supported on k-ary topologies (ideal concentrators only)")
	}
	for v := 1; v < e.tree.Processors(); v++ {
		e.switches[v].InjectLoss(rate, seed+int64(3*v))
	}
}

// CycleResult reports one delivery cycle.
type CycleResult struct {
	Delivered int // messages that reached their destination leaf channel
	Dropped   int // messages dropped at a congested or unlucky concentrator
	Deferred  int // messages that could not even inject at their source leaf
}

// flight tracks one message inside a cycle: its state, the node beneath the
// channel whose wire it currently holds, the wire index, and its slice of
// the engine's flat wire-history arena.
type flight struct {
	msg     core.Message
	state   int // flightUp, flightDown, flightDone, flightLost
	node    int // node beneath the current channel (leaf after injection)
	wire    int // wire held in the current channel
	lca     int
	dstLeaf int // heap index of the destination leaf (0 when Dst is External)
	histOff int // offset of this flight's wire history in scr.histArena
	histLen int // wires recorded so far (path order)
}

const (
	flightPending = iota
	flightUp
	flightDown
	flightDone
	flightLost
)

// RunCycle attempts to deliver all of pending in a single delivery cycle and
// returns which were delivered (parallel to pending) plus counts. Messages
// not delivered must be retried by the caller in a later cycle — the
// acknowledgment protocol of Section II. Engines with more than one worker
// route each tree level's switches concurrently; the result is bit-identical
// to the serial path.
//
// The returned slice is owned by the engine's scratch arena and valid only
// until the next cycle on this engine; copy it to retain it.
func (e *Engine) RunCycle(pending core.MessageSet) ([]bool, CycleResult) {
	return e.runCycle(pending, e.autoPool())
}

// growInts returns s resized to n entries, reusing its backing array when
// the capacity suffices and preserving existing contents on growth.
func growInts(s []int, n int) []int {
	if cap(s) >= n {
		return s[:n]
	}
	out := make([]int, n, n+n/2)
	copy(out, s)
	return out
}

// inject starts a delivery cycle: each source leaf offers its up channel's
// wires to its pending messages in order; the surplus is deferred to a later
// cycle (the processor buffers them, per Section II). Inputs from the
// external world inject into the root down channel; outputs carry the
// sentinel LCA 0 ("above the root") so the upward sweep forwards them through
// every switch and out the root channel. Each admitted flight reserves its
// exact path length in the wire-history arena.
//
//ftlint:hotpath
func (e *Engine) inject(pending core.MessageSet) ([]flight, CycleResult) {
	t := e.tree
	scr := &e.scr
	scr.epoch++
	if cap(scr.flights) < len(pending) {
		scr.flights = make([]flight, len(pending), len(pending)+len(pending)/2)
	}
	flights := scr.flights[:len(pending)]
	scr.flights = flights
	var res CycleResult

	levels := t.Levels()
	arenaLen := 0
	rootInjected := 0 // root down-channel wires used by inputs
	for i, m := range pending {
		if m.Src == core.External {
			if rootInjected >= e.caps[1] {
				flights[i] = flight{msg: m, state: flightLost}
				res.Deferred++
				continue
			}
			off := arenaLen
			arenaLen += levels + 1
			scr.histArena = growInts(scr.histArena, arenaLen)
			flights[i] = flight{
				msg: m, state: flightDown, node: 1, wire: rootInjected,
				dstLeaf: t.Leaf(m.Dst),
				histOff: off, histLen: 1,
			}
			scr.histArena[off] = rootInjected
			rootInjected++
			continue
		}
		leaf := t.Leaf(m.Src)
		used := 0
		if scr.injStamp[m.Src] == scr.epoch {
			used = scr.injUsed[m.Src]
		}
		if used >= e.caps[leaf] {
			flights[i] = flight{msg: m, state: flightLost}
			res.Deferred++
			continue
		}
		lca := 0 // sentinel: the message exits through the root interface
		dstLeaf := 0
		pathLen := levels + 1
		if m.Dst != core.External {
			lca = t.LCA(m.Src, m.Dst)
			dstLeaf = t.Leaf(m.Dst)
			lcaLevel := bits.Len(uint(lca)) - 1
			if e.kary != nil {
				lcaLevel = e.kary.t.Level(lca)
			}
			pathLen = 2 * (levels - lcaLevel)
		}
		off := arenaLen
		arenaLen += pathLen
		scr.histArena = growInts(scr.histArena, arenaLen)
		flights[i] = flight{
			msg: m, state: flightUp, node: leaf, wire: used,
			lca: lca, dstLeaf: dstLeaf,
			histOff: off, histLen: 1,
		}
		scr.histArena[off] = used
		scr.injStamp[m.Src] = scr.epoch
		scr.injUsed[m.Src] = used + 1
	}
	return flights, res
}

// collect finishes a delivery cycle: delivered flags (engine-owned scratch)
// and the delivered count.
//
//ftlint:hotpath
func (e *Engine) collect(pending core.MessageSet, flights []flight, res *CycleResult) []bool {
	scr := &e.scr
	if cap(scr.delivered) < len(pending) {
		scr.delivered = make([]bool, len(pending), len(pending)+len(pending)/2)
	}
	delivered := scr.delivered[:len(pending)]
	scr.delivered = delivered
	for i := range flights {
		done := flights[i].state == flightDone
		delivered[i] = done
		if done {
			res.Delivered++
		}
	}
	return delivered
}

// runCycle is the single delivery-cycle data plane shared by the serial and
// parallel paths: inject, bucketed upward sweep, bucketed downward sweep,
// collect. A nil pool routes each level's buckets in node order on the
// calling goroutine (the serial reference execution); a pool fans them out
// over its workers with a deterministic node-order merge. The two executions
// are bit-identical because every bucket is built in message-index order
// before the fan-out and every switch is contested by exactly one worker.
//
//ftlint:hotpath
func (e *Engine) runCycle(pending core.MessageSet, pool *par.Pool) ([]bool, CycleResult) {
	if e.stream != nil {
		return e.runCycleStream(pending)
	}
	if e.kary != nil {
		return e.runCycleKary(pending, pool)
	}
	t := e.tree
	scr := &e.scr
	leafLevel := t.Levels()
	flights, res := e.inject(pending)
	if e.obs != nil {
		e.observeInject(pending, flights)
	}
	scr.nodes = scr.nodes[:0]

	// Upward sweep, leaf parents toward the root: a message ascending
	// through v holds a wire in the up channel above one of v's children
	// and its LCA is strictly above v.
	for level := leafLevel - 1; level >= 0; level-- {
		first := 1 << uint(level)
		for i := range flights {
			f := &flights[i]
			if f.state != flightUp || f.lca == f.node>>1 {
				continue
			}
			e.own(first, f.node>>1, i)
		}
		e.routeLevel(pool, first, true, &res)
	}

	// Downward sweep, root toward the leaves: a message either turns at v
	// (its LCA is v, and it still holds a child-side up wire) or descends
	// through v (it holds the parent-side down wire above v).
	for level := 0; level < leafLevel; level++ {
		first := 1 << uint(level)
		for i := range flights {
			f := &flights[i]
			switch f.state {
			case flightUp: // waiting to turn at its LCA
				e.own(first, f.lca, i)
			case flightDown: // holds the down wire above f.node
				e.own(first, f.node, i)
			}
		}
		e.routeLevel(pool, first, false, &res)
	}

	delivered := e.collect(pending, flights, &res)
	if e.obs != nil {
		e.obs.CycleEnd(res.Delivered, res.Dropped, res.Deferred)
	}
	return delivered, res
}

// own buckets flight i under switch v if v belongs to the sweep level whose
// first node is first, recording the first touch of each bucket in nodes.
//
//ftlint:hotpath
func (e *Engine) own(first, v, i int) {
	scr := &e.scr
	if v >= first && v < 2*first {
		if len(scr.buckets[v-first]) == 0 {
			scr.nodes = append(scr.nodes, v)
		}
		scr.buckets[v-first] = append(scr.buckets[v-first], i)
	}
}

// routeLevel contests one sweep step's non-empty switches — inline in node
// order on a nil pool, fanned out over the pool's workers otherwise — then
// merges per-switch drop counts in node order and resets the buckets.
//
//ftlint:hotpath
func (e *Engine) routeLevel(pool *par.Pool, first int, upSweep bool, res *CycleResult) {
	scr := &e.scr
	scr.curFirst, scr.curUp = first, upSweep
	//ftlint:ignore callgraphhotalloc parallel fan-out spawns worker closures by design; the serial path (nil pool) returns before allocating.
	pool.ForEach(len(scr.nodes), e.levelWorker)
	if e.obs != nil {
		// Observation happens here, after the fan-out has joined and before
		// the buckets are reset — a serial point with a deterministic order.
		e.observeLevel(first, upSweep)
	}
	// Deterministic merge in node order. Only drops occur mid-sweep
	// (delivery and deferral are counted at collect/inject time).
	for _, v := range scr.nodes {
		res.Dropped += scr.dropped[v-first]
		scr.buckets[v-first] = scr.buckets[v-first][:0]
	}
	scr.nodes = scr.nodes[:0]
}

// routeGathered contests node v's concentrators with the flights in who (in
// order) and applies the wire assignments. In the upward sweep only the
// ToParent output is contested; in the downward sweep the two child outputs
// are. It touches only the listed flights, switch v, v's scratch slot, and
// res.Dropped, so calls for distinct nodes of one level are independent.
//
//ftlint:hotpath
func (e *Engine) routeGathered(v int, flights []flight, who []int, upSweep bool, res *CycleResult) {
	if len(who) == 0 {
		return
	}
	leafLevel := e.tree.Levels()
	vLevel := bits.Len(uint(v)) - 1
	ns := &e.scr.node[v]
	reqs := ns.reqs[:0]

	for _, i := range who {
		f := &flights[i]
		if upSweep {
			in := concentrator.Left
			if f.node == 2*v+1 {
				in = concentrator.Right
			}
			reqs = append(reqs, concentrator.Request{In: in, InWire: f.wire, Out: concentrator.Parent})
			continue
		}
		var in concentrator.Port
		if f.state == flightUp { // turning at its LCA, still on a child-side wire
			in = concentrator.Left
			if f.node == 2*v+1 {
				in = concentrator.Right
			}
		} else { // descending on the parent-side down wire
			in = concentrator.Parent
		}
		// Steer toward the destination leaf: the next node down is the
		// dstLeaf ancestor one level below v, and its low bit picks the side.
		out := concentrator.Left
		if (f.dstLeaf>>uint(leafLevel-vLevel-1))&1 == 1 {
			out = concentrator.Right
		}
		reqs = append(reqs, concentrator.Request{In: in, InWire: f.wire, Out: out})
	}
	ns.reqs = reqs

	outWires, _ := e.switches[v].Route(reqs)
	// Hardware invariant: a concentrator never assigns more wires to a
	// channel than the channel has, and never the same wire twice. The
	// epoch-stamped guards are cheap and protect the whole delivery
	// pipeline without per-sweep clearing.
	ns.gen++
	for j, i := range who {
		f := &flights[i]
		if outWires[j] < 0 {
			f.state = flightLost
			res.Dropped++
			continue
		}
		switch reqs[j].Out {
		case concentrator.Parent:
			if outWires[j] >= e.caps[v] || ns.upStamp[outWires[j]] == ns.gen {
				panic("sim: up-channel wire oversubscribed (switch bug)")
			}
			ns.upStamp[outWires[j]] = ns.gen
		case concentrator.Left, concentrator.Right:
			side := 0
			child := 2 * v
			if reqs[j].Out == concentrator.Right {
				side = 1
				child = 2*v + 1
			}
			if outWires[j] >= e.caps[child] || ns.downStamp[side][outWires[j]] == ns.gen {
				panic("sim: down-channel wire oversubscribed (switch bug)")
			}
			ns.downStamp[side][outWires[j]] = ns.gen
		}
		f.wire = outWires[j]
		e.scr.histArena[f.histOff+f.histLen] = outWires[j]
		f.histLen++
		if upSweep {
			f.state = flightUp
			f.node = v // now holds a wire in the up channel above v
			if v == 1 && f.msg.Dst == core.External {
				// The root up channel is the external interface: delivered.
				f.state = flightDone
			}
			continue
		}
		// Descending: the message now holds a wire in the down channel above
		// the chosen child.
		child := 2 * v
		if reqs[j].Out == concentrator.Right {
			child = 2*v + 1
		}
		f.node = child
		f.state = flightDown
		if vLevel+1 == leafLevel {
			f.state = flightDone
		}
	}
}

// histories materializes the per-message wire paths of the last cycle as
// freshly allocated slices safe to retain: hist[i] is message i's wire
// sequence in path order, nil unless it was delivered. Used by the settings
// compiler; the hot retry loop never materializes.
func (e *Engine) histories(flights []flight) [][]int {
	hist := make([][]int, len(flights))
	for i := range flights {
		f := &flights[i]
		if f.state != flightDone {
			continue
		}
		h := make([]int, f.histLen)
		copy(h, e.scr.histArena[f.histOff:f.histOff+f.histLen])
		hist[i] = h
	}
	return hist
}
