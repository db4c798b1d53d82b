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
// capacity table, bucket lists, injection counters) are replaced by sorted
// lists of (node, flight) keys that the plane carries from one sweep step to
// the next, so engine memory is O(messages × path length) — independent of
// the processor count. The wire guards are bitsets, one bit per wire of the
// widest channel routed, so even the 2^18-wire root channel of a
// 2^20-endpoint universal tree costs 32 KiB. That network — topology plus a
// warmed engine — retains about 9 bytes per endpoint, where the dense engine
// would need per-node gigabytes.
//
// The carried lists follow the switch of Section II, whose up concentrators
// combine a node's two child channels into its parent channel one level at a
// time. Every list holds node<<32 | flightIndex keys in ascending order, so
// each node's requests are contiguous and in message-index order:
//
//   - Injection sorts the (leaf, index) keys once per cycle — the plane's
//     only sort — and admits the first capAt(leaf) flights of each leaf.
//   - A step routes its nodes in ascending order and emits each winner keyed
//     by the node whose channel it now holds. Re-keyed by parent, every group
//     is a left-child run followed by a right-child run, both ascending, and
//     one linear merge per group (siblingMerge) restores the sorted order.
//     Winners that keep climbing form the next up step's request list;
//     winners whose LCA is the parent are parked in that level's turn list.
//   - A down step merges (mergeKeys) the descenders carried from the step
//     above — emitted per node as left-child winners, then right-child
//     winners, so already ascending — with the level's turn list.
//
// Equivalence with the dense engine is structural, not coincidental:
//
//   - Order: every node's request list ascends in message-index order — the
//     same order the dense buckets are built in. Ideal concentrators are
//     positional and the wire each request wins depends only on that order.
//   - Switches: ideal-kind routing is computed inline from the capacity
//     profile (Ideal and passThrough concentrators are stateless and
//     positional, see internal/concentrator); partial or lossy switches are
//     materialized lazily per contested node with the exact constructor and
//     seeds the dense engine uses — partial concentrators draw randomness
//     only at construction and Lossy draws once per routed message, so lazy
//     creation cannot perturb any RNG stream.
//   - Observation: drop counts and observer events are recorded node by node
//     in ascending node order, and in message-index order inside each node
//     run, the same events the dense merge points emit.
//
// The plane is serial: an engine with any worker bound routes an implicit
// tree on the calling goroutine, so Stats, PerCycle vectors, wire histories,
// and observer counters are identical for every worker count.

// keyIndex masks the flight index out of a node<<32 | flightIndex key.
const keyIndex = 1<<32 - 1

// streamState is the engine state of the streaming data plane.
type streamState struct {
	e *Engine

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

	// The carried key lists, each ascending. keys is the current step's
	// request list; up and turn collect an up step's winners (keyed by the
	// node whose up channel they hold) that keep climbing or turn at the
	// parent; desc collects a down step's winners keyed by the child whose
	// down channel they hold (and the admitted external inputs, keyed by the
	// root, before the first down step).
	keys, up, turn, desc []uint64

	// turns concatenates the per-level turn lists in the order the up sweep
	// produces them, deepest level first: level l's list is
	// turns[turnOff[l+1]:turnOff[l]], and turnOff[levels] stays 0.
	turns   []uint64
	turnOff []int

	sh streamShard
}

// streamShard is the node-run scratch of the streaming plane: the per-run
// wire guards, the lazy special-switch table, and the drop tally. The plane
// routes the whole tree as one shard.
type streamShard struct {
	// drops tallies the current cycle's dropped flights.
	drops int

	// special maps node -> materialized switch for non-ideal routing (partial
	// concentrators, injected loss). Ideal-kind engines without loss never
	// populate it.
	special map[int]*streamSwitch

	// reqs is the reusable request list for special-switch routing.
	reqs []concentrator.Request

	// Per-run wire guards, one bit per wire, grown to the widest channel
	// routed. They check the same hardware invariant as the dense
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
	st := &streamState{
		e:         e,
		n:         t.Processors(),
		levels:    t.Levels(),
		levelCaps: t.LevelCapTable(),
		kind:      kind,
		seed:      seed,
		turnOff:   make([]int, t.Levels()+1),
	}
	t.Overrides(func(node, cap int) {
		if st.ov == nil {
			st.ov = make(map[int]int)
		}
		st.ov[node] = cap
	})
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

// injectLoss records the transient-fault model and wraps the switches
// materialized so far; switches created later are wrapped at construction
// with the same per-node seeds the dense engine uses. Lossy concentrators
// draw randomness only per routed message, so wrapping order is immaterial.
func (st *streamState) injectLoss(rate float64, seed int64) {
	st.lossOn = true
	st.lossRate = rate
	st.lossSeed = seed
	for v, ss := range st.sh.special {
		ss.sw.InjectLoss(rate, seed+int64(3*v))
	}
}

// primeSpecials snapshots the cumulative hardware counters of every
// materialized switch so per-run deltas start at the observer attach point —
// the streaming analog of the dense PrimeSwitch loop.
func (st *streamState) primeSpecials() {
	for _, ss := range st.sh.special {
		ss.lastRounds = ss.sw.MatchingRounds()
		ss.lastFaults = ss.sw.FaultDrops()
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
		//ftlint:ignore callgraphhotalloc one-time lazy table: populated only for partial or lossy switches, never on the ideal steady state.
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

// siblingMerge appends to dst the keys of src re-keyed from their node to
// the node's parent, in ascending order. src must ascend, as a step's
// winners keyed by the node whose channel they hold do: each parent's group
// is then its left child's run followed by its right child's run, both in
// message-index order, and one linear merge per group puts them in order.
//
//ftlint:hotpath
func siblingMerge(dst, src []uint64) []uint64 {
	for i := 0; i < len(src); {
		c := src[i] >> 32
		parent := c >> 1 << 32
		j := runEnd(src, i)
		k := j // src[i:j] is the first child's run, src[j:k] the right one's
		if c&1 == 0 && k < len(src) && src[k]>>32 == c|1 {
			k = runEnd(src, k)
		}
		l, r := i, j
		for l < j && r < k {
			if src[l]&keyIndex < src[r]&keyIndex {
				dst = append(dst, parent|src[l]&keyIndex)
				l++
			} else {
				dst = append(dst, parent|src[r]&keyIndex)
				r++
			}
		}
		for ; l < j; l++ {
			dst = append(dst, parent|src[l]&keyIndex)
		}
		for ; r < k; r++ {
			dst = append(dst, parent|src[r]&keyIndex)
		}
		i = k
	}
	return dst
}

// runEnd returns the end of the node run that starts at keys[start].
//
//ftlint:hotpath
func runEnd(keys []uint64, start int) int {
	end := start + 1
	for end < len(keys) && keys[end]>>32 == keys[start]>>32 {
		end++
	}
	return end
}

// mergeKeys appends to dst the merge of the ascending key lists a and b.
//
//ftlint:hotpath
func mergeKeys(dst, a, b []uint64) []uint64 {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		if a[i] < b[j] {
			dst = append(dst, a[i])
			i++
		} else {
			dst = append(dst, b[j])
			j++
		}
	}
	dst = append(dst, a[i:]...)
	return append(dst, b[j:]...)
}

// runCycleStream is the streaming delivery-cycle data plane: sorted
// injection, the upward and downward sweeps over the carried key lists, and
// collect.
//
//ftlint:hotpath
func (e *Engine) runCycleStream(pending core.MessageSet) ([]bool, CycleResult) {
	st := e.stream
	flights, res := e.injectStream(pending)
	if e.obs != nil {
		e.observeInject(pending, flights)
	}
	for level := st.levels - 1; level >= 0; level-- {
		st.sweepUp(level)
	}
	for level := 0; level < st.levels; level++ {
		st.sweepDown(level)
	}
	res.Dropped, st.sh.drops = st.sh.drops, 0
	delivered := e.collect(pending, flights, &res)
	if e.obs != nil {
		e.obs.CycleEnd(res.Delivered, res.Dropped, res.Deferred)
	}
	return delivered, res
}

// injectStream starts a delivery cycle without per-processor counters.
// External inputs are admitted onto the root down channel in message order
// and become the first down step's descenders. Internal sources are sorted
// by (leaf, index), which lines up every leaf's messages in message-index
// order and makes "the first capAt(leaf) win, the rest defer" identical to
// the dense epoch-counter rule; the winners are carried to the leaves'
// parents. A final pass lays out the wire-history arena in message-index
// order.
//
//ftlint:hotpath
func (e *Engine) injectStream(pending core.MessageSet) ([]flight, CycleResult) {
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
	keys, desc := st.keys[:0], st.desc[:0]
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
			desc = append(desc, 1<<32|uint64(uint32(i)))
			rootInjected++
			continue
		}
		keys = append(keys, uint64(t.Leaf(m.Src))<<32|uint64(uint32(i)))
	}
	st.desc = desc
	slices.Sort(keys)

	up, turn := st.up[:0], st.turn[:0]
	n := st.n
	leaf, capLeaf, rank := -1, 0, 0
	for _, k := range keys {
		v := int(k >> 32)
		i := int(uint32(k))
		if v != leaf {
			leaf, rank = v, 0
			capLeaf = st.capAt(v)
		}
		m := pending[i]
		if rank >= capLeaf {
			flights[i] = flight{msg: m, state: flightLost}
			res.Deferred++
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
		if lca == v>>1 {
			turn = append(turn, k)
		} else {
			up = append(up, k)
		}
		rank++
	}
	st.keys = keys
	st.turns = st.turns[:0]
	st.carryUp(st.levels-1, up, turn)

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

// carryUp hands the winners of the step below level to level: up (the
// flights that keep climbing) becomes level's up-step request list and turn
// (the flights whose LCA is at level) becomes level's turn list, both
// re-keyed by parent with siblingMerge.
//
//ftlint:hotpath
func (st *streamState) carryUp(level int, up, turn []uint64) {
	st.keys = siblingMerge(st.keys[:0], up)
	st.turns = siblingMerge(st.turns, turn)
	st.turnOff[level] = len(st.turns)
	st.up, st.turn = up[:0], turn[:0]
}

// sweepUp runs the up step at level: it routes each node run of the request
// list and sorts the winners into the flights that keep climbing and the
// flights that turn at the parent.
//
//ftlint:hotpath
func (st *streamState) sweepUp(level int) {
	keys := st.keys
	flights := st.e.scr.flights
	up, turn := st.up[:0], st.turn[:0]
	for start := 0; start < len(keys); {
		v, end := int(keys[start]>>32), runEnd(keys, start)
		run := keys[start:end]
		st.routeStreamNode(v, run, level, true)
		for _, k := range run {
			f := &flights[int(uint32(k))]
			if f.state != flightUp { // dropped, or delivered out of the root
				continue
			}
			if f.lca == v>>1 {
				turn = append(turn, k)
			} else {
				up = append(up, k)
			}
		}
		start = end
	}
	if level > 0 {
		st.carryUp(level-1, up, turn)
	}
}

// sweepDown runs the down step at level: the descenders carried from the
// step above merge with the level's turn list into the request list, and
// each node run's winners are carried down, left child's first.
//
//ftlint:hotpath
func (st *streamState) sweepDown(level int) {
	keys := mergeKeys(st.keys[:0], st.desc, st.turns[st.turnOff[level+1]:st.turnOff[level]])
	st.keys = keys
	flights := st.e.scr.flights
	carry := level+1 < st.levels // the last step delivers every winner
	desc, right := st.desc[:0], st.up[:0]
	for start := 0; start < len(keys); {
		v, end := int(keys[start]>>32), runEnd(keys, start)
		run := keys[start:end]
		st.routeStreamNode(v, run, level, false)
		if carry {
			// Left-child winners go straight to desc; right-child winners
			// wait in right (the up list is idle in the down sweep).
			right = right[:0]
			for _, k := range run {
				if f := &flights[int(uint32(k))]; f.state == flightDown {
					k = uint64(f.node)<<32 | k&keyIndex
					if f.node&1 == 0 {
						desc = append(desc, k)
					} else {
						right = append(right, k)
					}
				}
			}
			desc = append(desc, right...)
		}
		start = end
	}
	st.desc, st.up = desc, right[:0]
}

// routeStreamNode contests node v, at level vLevel, with the flights of run.
// The ideal-concentrator case is routed inline — Ideal and passThrough
// concentrators are positional and stateless, so the wire each request wins
// is a pure function of its rank in the request list and the capacity
// profile. Partial or lossy switches are materialized lazily and routed
// through the identical request-building path as the dense routeGathered.
//
//ftlint:hotpath
func (st *streamState) routeStreamNode(v int, run []uint64, vLevel int, upSweep bool) {
	sh := &st.sh
	flights := st.e.scr.flights
	leafLevel := st.levels
	capParent := st.capAt(v)
	capChild := st.capAt(2 * v) // the dense constructor sizes both down ports by the left child
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
				st.applyUp(f, v, w, capParent)
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
				st.applyDown(f, v, w, right, vLevel, leafLevel)
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
				st.applyUp(f, v, outWires[j], capParent)
				continue
			}
			right := reqs[j].Out == concentrator.Right
			st.applyDown(f, v, outWires[j], right, vLevel, leafLevel)
		}
	}

	sh.releaseRun(flights, run, upSweep)
	if obs {
		st.e.observeStreamRun(v, run, upSweep, sh.drops-drops0, dRounds, dFaults)
	}
}

// applyUp applies one upward-sweep outcome: the wire guard, the history
// record, and the state transition — the streaming copy of routeGathered's
// Parent-port winner path.
//
//ftlint:hotpath
func (st *streamState) applyUp(f *flight, v, w, capParent int) {
	if w < 0 {
		f.state = flightLost
		st.sh.drops++
		return
	}
	st.sh.claimUp(w, capParent)
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
func (st *streamState) applyDown(f *flight, v, w int, right bool, vLevel, leafLevel int) {
	if w < 0 {
		f.state = flightLost
		st.sh.drops++
		return
	}
	side, child := 0, 2*v
	if right {
		side, child = 1, 2*v+1
	}
	st.sh.claimDown(side, w, st.capAt(child))
	f.wire = w
	st.e.scr.histArena[f.histOff+f.histLen] = w
	f.histLen++
	f.node = child
	f.state = flightDown
	if vLevel+1 == leafLevel {
		f.state = flightDone
	}
}

// observeStreamRun records one routed node run: the contention record (with
// the hardware counter deltas), then per flight the advance/block/deliver
// events in message-index order — the same events observeLevel emits for the
// dense engine, so counter totals agree bit for bit.
//
//ftlint:hotpath
func (e *Engine) observeStreamRun(v int, run []uint64, upSweep bool, drops int, dRounds, dFaults int64) {
	o := e.obs
	flights := e.scr.flights
	o.SwitchDelta(v, len(run), drops, dRounds, dFaults)
	for _, k := range run {
		i := int(uint32(k))
		f := &flights[i]
		switch f.state {
		case flightLost:
			o.Block(i, f.msg, v)
		case flightUp:
			o.Advance(i, f.msg, v, v, int(core.Up), f.wire)
		case flightDown:
			o.Advance(i, f.msg, v, f.node, int(core.Down), f.wire)
		case flightDone:
			if upSweep {
				o.Advance(i, f.msg, v, v, int(core.Up), f.wire)
			} else {
				o.Advance(i, f.msg, v, f.node, int(core.Down), f.wire)
			}
			o.Deliver(i, f.msg, v)
		}
	}
}
