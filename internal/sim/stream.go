package sim

import (
	"math/bits"
	"slices"

	"fattree/internal/concentrator"
	"fattree/internal/core"
	"fattree/internal/par"
)

// This file is the streaming data plane selected when the engine simulates an
// ImplicitFatTree: the per-node arrays of the dense engine (switch objects,
// capacity table, bucket lists, injection counters) are replaced by a fixed
// set of subtree shards that stream the active flights level by level, so
// engine memory is O(messages × path length + shards) — independent of the
// processor count. The per-shard wire guards are bitsets, one bit per wire of
// the widest channel a shard routes, so even the 2^18-wire root channel of a
// 2^20-endpoint universal tree costs 32 KiB. That network — topology plus a
// warmed engine — retains about 9 bytes per endpoint, where the dense engine
// would need per-node gigabytes.
//
// Equivalence with the dense engine is structural, not coincidental:
//
//   - Ownership: a flight is routed by exactly the node the dense own() rules
//     select; the shard owning that node is a pure function of its heap index
//     (shardOf), so the partition is identical for every worker count.
//   - Order: each shard sorts its (node, flight-index) keys, which makes
//     every node's request list ascend in message-index order — the same
//     order the dense buckets are built in. Ideal concentrators are
//     positional and the wire each request wins depends only on that order.
//   - Switches: ideal-kind routing is computed inline from the capacity
//     profile (Ideal and passThrough concentrators are stateless and
//     positional, see internal/concentrator); partial or lossy switches are
//     materialized lazily per contested node with the exact constructor and
//     seeds the dense engine uses — partial concentrators draw randomness
//     only at construction and Lossy draws once per routed message, so lazy
//     creation cannot perturb any RNG stream.
//   - Merges: drop counts, deferral counts, and observer events fan in at
//     serial points in ascending shard order (and message-index order inside
//     each node run), mirroring the dense merge discipline.
//
// Together these give bit-identical Stats, PerCycle vectors, wire histories,
// and observer counters for any worker count, serial included.

// streamShardBits bounds the shard count at 2^6 = 64: enough parallelism for
// the worker pool to load-balance, few enough that per-shard scratch stays
// cache-resident and the serial merge is trivial.
const streamShardBits = 6

// streamState is the engine state of the streaming data plane.
type streamState struct {
	e *Engine // back-pointer for the persistent worker closures

	n      int // processors
	levels int

	// Capacity profile snapshotted at construction (per-level table plus the
	// sparse override overlay), consistent with the dense engine's CapTable
	// snapshot: later SetChannelCapacity calls do not affect a built engine.
	levelCaps []int
	ov        map[int]int

	kind concentrator.Kind
	seed int64

	// Transient-fault model (InjectLoss), applied to lazily created switches.
	lossOn   bool
	lossRate float64
	lossSeed int64

	shardBits uint
	shards    []streamShard

	// Sweep-step parameters for the persistent worker closures; set serially
	// before each fan-out.
	curLevel   int
	curUp      bool
	curPending core.MessageSet

	// Per-chunk delivered tallies for the collect fan-out.
	chunkDelivered []int

	injectWorker  func(s int)
	routeWorker   func(s int)
	collectWorker func(chunk, lo, hi int)
}

// streamShard is one subtree shard: the scatter buffer of (node, flight)
// keys for the current sweep step, the per-node wire guards, and the lazy
// special-switch table. Distinct shards are touched by distinct workers; all
// fields merge serially.
type streamShard struct {
	// keys holds node<<32 | flightIndex, appended in message-index order by
	// the serial scatter and sorted by the shard worker, which groups each
	// node's flights contiguously with message-index order inside the group.
	keys []uint64

	// Per-step outcome tallies, merged and reset serially.
	drops    int
	deferred int

	// runs records each routed node's key range and counter deltas for the
	// observer replay; empty unless an observer is attached.
	runs []streamRun

	// special maps node -> materialized switch for non-ideal routing (partial
	// concentrators, injected loss). Ideal-kind engines without loss never
	// populate it.
	special map[int]*streamSwitch

	// reqs is the reusable request list for special-switch routing.
	reqs []concentrator.Request

	// Per-run wire guards, one bit per wire, grown to the widest channel this
	// shard routes. They check the same hardware invariant as the dense
	// nodeScratch guards: no channel wire assigned twice in one sweep. A node
	// run sets the bit of each wire it assigns and clears them again by
	// walking its winners (releaseRun), so every bit is clear between runs
	// and the cost is O(run), not O(channel width).
	upUsed   wireSet
	downUsed [2]wireSet // indexed by the child's side: 0 left, 1 right
}

// wireSet is a bitset over the wires of one channel.
type wireSet []uint64

// fit returns s with room for width wires. Growth happens only between
// runs, when every bit is clear, so nothing needs copying.
func (s wireSet) fit(width int) wireSet {
	if words := (width + 63) >> 6; words > len(s) {
		return make(wireSet, words)
	}
	return s
}

// add marks wire w and reports whether it was already marked.
//
//ftlint:hotpath
func (s wireSet) add(w int) bool {
	word, bit := w>>6, uint64(1)<<(uint(w)&63)
	had := s[word]&bit != 0
	s[word] |= bit
	return had
}

// claimUp guards wire w of the up channel above the routed node: it must lie
// inside the channel (width wires) and must not already be assigned in this
// run.
//
//ftlint:hotpath
func (sh *streamShard) claimUp(w, width int) {
	if w >= width || sh.upUsed.add(w) {
		panic("sim: up-channel wire oversubscribed (switch bug)")
	}
}

// claimDown is claimUp for the down channel into the child on side (0 left,
// 1 right).
//
//ftlint:hotpath
func (sh *streamShard) claimDown(side, w, width int) {
	if w >= width || sh.downUsed[side].add(w) {
		panic("sim: down-channel wire oversubscribed (switch bug)")
	}
}

// releaseRun clears the guard bits a node run set. Every flight of the run
// that was not dropped holds the wire it won in f.wire: on the up channel in
// an upward sweep, otherwise on the down channel into child f.node. Every set
// bit belongs to this run, so zeroing a winner's whole word clears exactly
// this run's bits in it.
//
//ftlint:hotpath
func (sh *streamShard) releaseRun(flights []flight, run []uint64, upSweep bool) {
	for _, k := range run {
		f := &flights[int(uint32(k))]
		if f.state == flightLost {
			continue
		}
		s := sh.upUsed
		if !upSweep {
			s = sh.downUsed[f.node&1]
		}
		s[f.wire>>6] = 0
	}
}

// streamRun is one node's routed key range within a shard's sorted keys.
type streamRun struct {
	v          int
	start, end int
	drops      int
	dRounds    int64
	dFaults    int64
}

// streamSwitch is a lazily materialized switch plus the cumulative-counter
// snapshots that turn its hardware counters into per-run deltas.
type streamSwitch struct {
	sw         *concentrator.Switch
	lastRounds int64
	lastFaults int64
}

// newStreamEngine builds the streaming engine for an implicit fat-tree.
func newStreamEngine(t *core.ImplicitFatTree, kind concentrator.Kind, seed int64, opts Options) *Engine {
	e := &Engine{
		tree: t,
		pool: par.New(opts.Workers),
	}
	shardBits := uint(streamShardBits)
	if lv := uint(t.Levels()); shardBits > lv {
		shardBits = lv
	}
	st := &streamState{
		e:              e,
		n:              t.Processors(),
		levels:         t.Levels(),
		levelCaps:      t.LevelCapTable(),
		kind:           kind,
		seed:           seed,
		shardBits:      shardBits,
		shards:         make([]streamShard, 1<<shardBits),
		chunkDelivered: make([]int, 1<<shardBits),
	}
	t.Overrides(func(node, cap int) {
		if st.ov == nil {
			st.ov = make(map[int]int)
		}
		st.ov[node] = cap
	})
	st.injectWorker = st.runInjectShard
	st.routeWorker = st.runRouteShard
	st.collectWorker = st.runCollectChunk
	e.stream = st
	if opts.Observer != nil {
		e.SetObserver(opts.Observer)
	}
	return e
}

// capAt returns the snapshotted capacity of the channel above node v:
// the override overlay, then the per-level profile.
//
//ftlint:hotpath
func (st *streamState) capAt(v int) int {
	if st.ov != nil {
		if c, ok := st.ov[v]; ok {
			return c
		}
	}
	return st.levelCaps[bits.Len(uint(v))-1]
}

// shardOf maps a heap node to its owning shard: nodes at or above the shard
// level own a slot apiece, deeper nodes belong to the shard of their ancestor
// at the shard level — the top-level-subtree partition the issue names. The
// mapping is a pure function of the node index, so the work partition is
// identical for every worker count.
//
//ftlint:hotpath
func (st *streamState) shardOf(v int) int {
	k := uint(bits.Len(uint(v))) - 1
	if k <= st.shardBits {
		return v - 1<<k
	}
	return int(uint(v)>>(k-st.shardBits)) - 1<<st.shardBits
}

// injectLoss records the transient-fault model and wraps the switches
// materialized so far; switches created later are wrapped at construction
// with the same per-node seeds the dense engine uses. Lossy concentrators
// draw randomness only per routed message, so wrapping order is immaterial.
func (st *streamState) injectLoss(rate float64, seed int64) {
	st.lossOn = true
	st.lossRate = rate
	st.lossSeed = seed
	for s := range st.shards {
		for v, ss := range st.shards[s].special {
			ss.sw.InjectLoss(rate, seed+int64(3*v))
		}
	}
}

// primeSpecials snapshots the cumulative hardware counters of every
// materialized switch so per-run deltas start at the observer attach point —
// the streaming analog of the dense PrimeSwitch loop.
func (st *streamState) primeSpecials() {
	for s := range st.shards {
		for _, ss := range st.shards[s].special {
			ss.lastRounds = ss.sw.MatchingRounds()
			ss.lastFaults = ss.sw.FaultDrops()
		}
	}
}

// switchFor returns node v's materialized switch, building it on first
// contest exactly as the dense constructor does: NewSwitch(capAbove(v),
// capAbove(leftChild), kind, seed+v), plus the loss wrapper when faults are
// injected. Partial concentrators draw their randomness at construction from
// their own (seed, node) stream, so lazy creation is equivalent to the dense
// engine's eager loop.
func (sh *streamShard) switchFor(st *streamState, v int) *streamSwitch {
	if ss, ok := sh.special[v]; ok {
		return ss
	}
	if sh.special == nil {
		//ftlint:ignore callgraphhotalloc one-time lazy table per shard: populated only for partial or lossy switches, never on the ideal steady state.
		sh.special = make(map[int]*streamSwitch)
	}
	//ftlint:ignore callgraphhotalloc one-time switch materialization on first contest; the ideal steady state never reaches it.
	sw := concentrator.NewSwitch(st.capAt(v), st.capAt(2*v), st.kind, st.seed+int64(v))
	if st.lossOn {
		sw.InjectLoss(st.lossRate, st.lossSeed+int64(3*v))
	}
	ss := &streamSwitch{sw: sw}
	sh.special[v] = ss
	return ss
}

// runCycleStream is the streaming delivery-cycle data plane: scatter-sorted
// injection, level-synchronized upward and downward sweeps over the shards,
// chunked collect. Serial when pool is nil, fanned out otherwise; the results
// are bit-identical either way (see the file comment).
//
//ftlint:hotpath
func (e *Engine) runCycleStream(pending core.MessageSet, pool *par.Pool) ([]bool, CycleResult) {
	st := e.stream
	st.curPending = pending
	flights, res := e.injectStream(pending, pool)
	if e.obs != nil {
		e.observeInject(pending, flights)
	}
	leafLevel := st.levels
	for level := leafLevel - 1; level >= 0; level-- {
		e.streamLevel(pool, level, true, &res)
	}
	for level := 0; level < leafLevel; level++ {
		e.streamLevel(pool, level, false, &res)
	}
	delivered := e.collectStream(pool, pending, flights, &res)
	if e.obs != nil {
		e.obs.CycleEnd(res.Delivered, res.Dropped, res.Deferred)
	}
	st.curPending = nil
	return delivered, res
}

// injectStream starts a delivery cycle without per-processor counters: a
// serial pass admits external inputs onto the root down channel in message
// order and scatters internal sources to their leaf's shard; each shard then
// sorts its keys, which lines up every leaf's messages in message-index order
// and makes "the first capAt(leaf) win, the rest defer" identical to the
// dense epoch-counter rule. A final serial pass lays out the wire-history
// arena in message-index order.
//
//ftlint:hotpath
func (e *Engine) injectStream(pending core.MessageSet, pool *par.Pool) ([]flight, CycleResult) {
	t := e.tree
	st := e.stream
	scr := &e.scr
	if cap(scr.flights) < len(pending) {
		scr.flights = make([]flight, len(pending), len(pending)+len(pending)/2)
	}
	flights := scr.flights[:len(pending)]
	scr.flights = flights
	var res CycleResult

	rootCap := st.capAt(1)
	rootInjected := 0
	for i, m := range pending {
		if m.Src == core.External {
			if rootInjected >= rootCap {
				flights[i] = flight{msg: m, state: flightLost}
				res.Deferred++
				continue
			}
			flights[i] = flight{
				msg: m, state: flightDown, node: 1, wire: rootInjected,
				dstLeaf: t.Leaf(m.Dst),
				histLen: 1,
			}
			rootInjected++
			continue
		}
		leaf := t.Leaf(m.Src)
		sh := &st.shards[st.shardOf(leaf)]
		sh.keys = append(sh.keys, uint64(leaf)<<32|uint64(uint32(i)))
	}

	//ftlint:ignore callgraphhotalloc parallel fan-out spawns worker closures by design; the serial path (nil pool) returns before allocating.
	pool.ForEach(len(st.shards), st.injectWorker)

	for s := range st.shards {
		sh := &st.shards[s]
		res.Deferred += sh.deferred
		sh.deferred = 0
		sh.keys = sh.keys[:0]
	}

	// Arena layout in message-index order: each admitted flight reserves its
	// exact path length and records its injection wire, matching the dense
	// inject loop's arena content bit for bit.
	levels := st.levels
	arenaLen := 0
	for i := range flights {
		f := &flights[i]
		if f.state == flightLost {
			continue
		}
		pathLen := levels + 1 // external input or output: leaf/root to root
		if f.lca != 0 {
			pathLen = 2 * (levels - (bits.Len(uint(f.lca)) - 1))
		}
		f.histOff = arenaLen
		arenaLen += pathLen
		scr.histArena = growInts(scr.histArena, arenaLen)
		scr.histArena[f.histOff] = f.wire
	}
	return flights, res
}

// runInjectShard admits one shard's scattered sources: sort brings each
// leaf's flights together in message-index order; the first capAt(leaf) of a
// leaf win successive wires of its up channel, the surplus defers.
//
//ftlint:hotpath
func (st *streamState) runInjectShard(s int) {
	sh := &st.shards[s]
	if len(sh.keys) == 0 {
		return
	}
	slices.Sort(sh.keys)
	flights := st.e.scr.flights
	pending := st.curPending
	n := st.n
	leaf, capLeaf, rank := -1, 0, 0
	for _, k := range sh.keys {
		v := int(k >> 32)
		i := int(uint32(k))
		if v != leaf {
			leaf, rank = v, 0
			capLeaf = st.capAt(v)
		}
		m := pending[i]
		if rank >= capLeaf {
			flights[i] = flight{msg: m, state: flightLost}
			sh.deferred++
			rank++
			continue
		}
		lca, dstLeaf := 0, 0 // sentinel: exits through the root interface
		if m.Dst != core.External {
			dstLeaf = n + m.Dst
			lca = v >> uint(bits.Len(uint(v^dstLeaf)))
		}
		flights[i] = flight{
			msg: m, state: flightUp, node: v, wire: rank,
			lca: lca, dstLeaf: dstLeaf, histLen: 1,
		}
		rank++
	}
}

// streamLevel runs one sweep step: a serial scatter applying the dense
// ownership rules to every flight in message-index order, the shard fan-out,
// and the serial merge (drops, then observer replay) in ascending shard
// order.
//
//ftlint:hotpath
func (e *Engine) streamLevel(pool *par.Pool, level int, upSweep bool, res *CycleResult) {
	st := e.stream
	flights := e.scr.flights
	first := 1 << uint(level)
	if upSweep {
		for i := range flights {
			f := &flights[i]
			if f.state != flightUp || f.lca == f.node>>1 {
				continue
			}
			v := f.node >> 1
			if v >= first && v < 2*first {
				sh := &st.shards[st.shardOf(v)]
				sh.keys = append(sh.keys, uint64(v)<<32|uint64(uint32(i)))
			}
		}
	} else {
		for i := range flights {
			f := &flights[i]
			var v int
			switch f.state {
			case flightUp: // waiting to turn at its LCA
				v = f.lca
			case flightDown: // holds the down wire above f.node
				v = f.node
			default:
				continue
			}
			if v >= first && v < 2*first {
				sh := &st.shards[st.shardOf(v)]
				sh.keys = append(sh.keys, uint64(v)<<32|uint64(uint32(i)))
			}
		}
	}
	st.curLevel, st.curUp = level, upSweep

	//ftlint:ignore callgraphhotalloc parallel fan-out spawns worker closures by design; the serial path (nil pool) returns before allocating.
	pool.ForEach(len(st.shards), st.routeWorker)

	for s := range st.shards {
		sh := &st.shards[s]
		res.Dropped += sh.drops
		sh.drops = 0
		if e.obs != nil {
			e.observeStreamRuns(sh)
			sh.runs = sh.runs[:0]
		}
		sh.keys = sh.keys[:0]
	}
}

// runRouteShard routes one shard's share of the sweep step: sort groups each
// contested node's flights contiguously in message-index order, then every
// node run is routed independently.
//
//ftlint:hotpath
func (st *streamState) runRouteShard(s int) {
	sh := &st.shards[s]
	if len(sh.keys) == 0 {
		return
	}
	slices.Sort(sh.keys)
	keys := sh.keys
	for start := 0; start < len(keys); {
		v := int(keys[start] >> 32)
		end := start + 1
		for end < len(keys) && int(keys[end]>>32) == v {
			end++
		}
		st.routeStreamNode(sh, v, start, end)
		start = end
	}
}

// routeStreamNode contests node v with the flights of keys[start:end]. The
// ideal-concentrator case is routed inline — Ideal and passThrough
// concentrators are positional and stateless, so the wire each request wins
// is a pure function of its rank in the request list and the capacity
// profile. Partial or lossy switches are materialized lazily and routed
// through the identical request-building path as the dense routeGathered.
//
//ftlint:hotpath
func (st *streamState) routeStreamNode(sh *streamShard, v int, start, end int) {
	flights := st.e.scr.flights
	leafLevel := st.levels
	vLevel := st.curLevel
	upSweep := st.curUp
	capParent := st.capAt(v)
	capChild := st.capAt(2 * v) // the dense constructor sizes both down ports by the left child
	run := sh.keys[start:end]
	obs := st.e.obs != nil
	drops0 := sh.drops
	var dRounds, dFaults int64

	if upSweep {
		sh.upUsed = sh.upUsed.fit(capParent)
	} else {
		sh.downUsed[0] = sh.downUsed[0].fit(capChild)
		sh.downUsed[1] = sh.downUsed[1].fit(st.capAt(2*v + 1))
	}

	if st.kind == concentrator.KindIdeal && !st.lossOn {
		if upSweep {
			// toParent is passThrough when the up channel is at least as wide
			// as its two feeders, Ideal (positional: rank j wins wire j)
			// otherwise — the same selection NewSwitch makes.
			passThrough := capParent >= 2*capChild
			for j, k := range run {
				f := &flights[int(uint32(k))]
				if f.node == 2*v+1 && f.wire >= capChild {
					// The dense concentrators reject a concatenated input
					// index beyond their width — reachable only when an
					// override widens a right child past its sibling.
					panic("sim: up request wire exceeds switch input width (widened right-child override)")
				}
				w := -1
				if passThrough {
					w = f.wire
					if f.node == 2*v+1 {
						w = capChild + f.wire
					}
				} else if j < capParent {
					w = j
				}
				st.applyUp(sh, f, v, w, capParent)
			}
		} else {
			// toLeft and toRight are always Ideal (a down port is narrower
			// than its feeders): per port, rank j wins wire j up to the
			// port width capChild.
			jL, jR := 0, 0
			for _, k := range run {
				f := &flights[int(uint32(k))]
				if f.state == flightUp && f.wire >= capChild {
					panic("sim: down request wire exceeds switch input width (widened child override)")
				}
				right := (f.dstLeaf>>uint(leafLevel-vLevel-1))&1 == 1
				var w int
				if right {
					w = jR
					jR++
				} else {
					w = jL
					jL++
				}
				if w >= capChild {
					w = -1
				}
				st.applyDown(sh, f, v, w, right, vLevel, leafLevel)
			}
		}
	} else {
		// Partial or lossy: materialize the node's switch and route through
		// it with the exact request list the dense engine builds.
		reqs := sh.reqs[:0]
		for _, k := range run {
			f := &flights[int(uint32(k))]
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
			out := concentrator.Left
			if (f.dstLeaf>>uint(leafLevel-vLevel-1))&1 == 1 {
				out = concentrator.Right
			}
			reqs = append(reqs, concentrator.Request{In: in, InWire: f.wire, Out: out})
		}
		sh.reqs = reqs

		ss := sh.switchFor(st, v)
		outWires, _ := ss.sw.Route(reqs)
		if obs {
			r := ss.sw.MatchingRounds()
			dRounds, ss.lastRounds = r-ss.lastRounds, r
			fd := ss.sw.FaultDrops()
			dFaults, ss.lastFaults = fd-ss.lastFaults, fd
		}
		for j, k := range run {
			f := &flights[int(uint32(k))]
			if upSweep {
				st.applyUp(sh, f, v, outWires[j], capParent)
				continue
			}
			right := reqs[j].Out == concentrator.Right
			st.applyDown(sh, f, v, outWires[j], right, vLevel, leafLevel)
		}
	}

	sh.releaseRun(flights, run, upSweep)
	if obs {
		sh.runs = append(sh.runs, streamRun{
			v: v, start: start, end: end,
			drops: sh.drops - drops0, dRounds: dRounds, dFaults: dFaults,
		})
	}
}

// applyUp applies one upward-sweep outcome: the wire guard, the history
// record, and the state transition — the streaming copy of routeGathered's
// Parent-port winner path.
//
//ftlint:hotpath
func (st *streamState) applyUp(sh *streamShard, f *flight, v, w, capParent int) {
	if w < 0 {
		f.state = flightLost
		sh.drops++
		return
	}
	sh.claimUp(w, capParent)
	f.wire = w
	st.e.scr.histArena[f.histOff+f.histLen] = w
	f.histLen++
	f.state = flightUp
	f.node = v // now holds a wire in the up channel above v
	if v == 1 && f.msg.Dst == core.External {
		// The root up channel is the external interface: delivered.
		f.state = flightDone
	}
}

// applyDown applies one downward-sweep outcome, guarding the wire against the
// destination child's own (possibly overridden) capacity exactly as the dense
// engine does.
//
//ftlint:hotpath
func (st *streamState) applyDown(sh *streamShard, f *flight, v, w int, right bool, vLevel, leafLevel int) {
	if w < 0 {
		f.state = flightLost
		sh.drops++
		return
	}
	side, child := 0, 2*v
	if right {
		side, child = 1, 2*v+1
	}
	sh.claimDown(side, w, st.capAt(child))
	f.wire = w
	st.e.scr.histArena[f.histOff+f.histLen] = w
	f.histLen++
	f.node = child
	f.state = flightDown
	if vLevel+1 == leafLevel {
		f.state = flightDone
	}
}

// observeStreamRuns replays one shard's routed node runs into the observer at
// the serial merge point: per node the contention record (with the hardware
// counter deltas), then per flight the advance/block/deliver events in
// message-index order — the same events observeLevel emits for the dense
// engine, so counter totals agree bit for bit.
//
//ftlint:hotpath
func (e *Engine) observeStreamRuns(sh *streamShard) {
	o := e.obs
	flights := e.scr.flights
	upSweep := e.stream.curUp
	for r := range sh.runs {
		run := &sh.runs[r]
		o.SwitchDelta(run.v, run.end-run.start, run.drops, run.dRounds, run.dFaults)
		for _, k := range sh.keys[run.start:run.end] {
			i := int(uint32(k))
			f := &flights[i]
			switch f.state {
			case flightLost:
				o.Block(i, f.msg, run.v)
			case flightUp:
				o.Advance(i, f.msg, run.v, run.v, int(core.Up), f.wire)
			case flightDown:
				o.Advance(i, f.msg, run.v, f.node, int(core.Down), f.wire)
			case flightDone:
				if upSweep {
					o.Advance(i, f.msg, run.v, run.v, int(core.Up), f.wire)
				} else {
					o.Advance(i, f.msg, run.v, f.node, int(core.Down), f.wire)
				}
				o.Deliver(i, f.msg, run.v)
			}
		}
	}
}

// collectStream finishes the cycle over contiguous chunks: delivered flags
// are disjoint per-index writes and the per-chunk tallies merge serially in
// chunk order.
//
//ftlint:hotpath
func (e *Engine) collectStream(pool *par.Pool, pending core.MessageSet, flights []flight, res *CycleResult) []bool {
	st := e.stream
	scr := &e.scr
	if cap(scr.delivered) < len(pending) {
		scr.delivered = make([]bool, len(pending), len(pending)+len(pending)/2)
	}
	delivered := scr.delivered[:len(pending)]
	scr.delivered = delivered
	chunks := len(st.shards)
	if chunks > len(flights) {
		chunks = len(flights)
	}

	//ftlint:ignore callgraphhotalloc parallel fan-out spawns worker closures by design; the serial path (nil pool) returns before allocating.
	pool.ForEachChunk(len(flights), chunks, st.collectWorker)

	for _, c := range st.chunkDelivered[:chunks] {
		res.Delivered += c
	}
	return delivered
}

// runCollectChunk tallies one contiguous chunk of flights.
//
//ftlint:hotpath
func (st *streamState) runCollectChunk(chunk, lo, hi int) {
	flights := st.e.scr.flights
	delivered := st.e.scr.delivered
	count := 0
	for i := lo; i < hi; i++ {
		done := flights[i].state == flightDone
		delivered[i] = done
		if done {
			count++
		}
	}
	st.chunkDelivered[chunk] = count
}
