package sim

import (
	"math/bits"
	"slices"

	"fattree/internal/concentrator"
	"fattree/internal/core"
)

// This file is the streaming data plane, the engine's plane for every binary
// fat-tree. Instead of per-node arrays (switch objects, a capacity table,
// bucket lists, injection counters) it keeps sorted lists of (node, flight)
// keys that it carries from one sweep step to the next, so engine memory is
// O(messages × path length) — independent of the processor count. The wire
// guards are bitsets, one bit per wire of the widest channel routed, so even
// the 2^18-wire root channel of a 2^20-endpoint universal tree costs 32 KiB.
// That network — topology plus a warmed engine — retains about 9 bytes per
// endpoint, where per-node switch state would need gigabytes.
//
// The carried lists follow the switch of Section II, whose up concentrators
// combine a node's two child channels into its parent channel one level at a
// time. Every list holds node<<32 | flightIndex keys in ascending order, so
// each node's requests are contiguous and in message-index order:
//
//   - Injection sorts the (leaf, index) keys once per cycle — a dense
//     cycle's only sort — and admits the first capAt(leaf) flights of each
//     leaf. The keys are appended in flight-index order, so a radix sort
//     that is stable by leaf (sortByNode) gives the (leaf, index) order.
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
// On ideal switches without injected loss a step is one pass over its
// request list (fuseUp, fuseDown): each flight of a node run gets its wire
// by its switch's rule, claims its guard bit, records its history and is
// sorted into the next list, all at once; the run's guard
// bits are released and the run observed before its lone descents start.
// Partial or lossy switches route each node run through a lazily built
// switch first (routeStreamNode) and sort the winners after.
//
// The choices those passes make per flight follow address bits — the
// destination's side going down, the arrival child and whether the LCA is
// reached going up — which are coin flips under random traffic, so a jump
// on them is mispredicted about half the time. The ideal passes, the lone
// climb and both merges (siblingMerge, mergeKeys) therefore decide by
// arithmetic: the output lists are sized once per step to the request
// list, a winner's key is written to both candidate lists and only the
// chosen list's cursor advances (by the bit, or by 1 minus it); a right
// child's wire offset is the child bit times the offset; and a merge stores
// the smaller key and advances each cursor by the compare's 0 or 1. What
// keeps a jump is rare: a drop, a root external output, a lone flight on a
// sparse cycle, and the checks, each of which leads with its operand that
// is always false on a well-formed tree, so the jump is taken only when the
// check fails.
//
// A concentrator arbitrates only among the messages that meet at its node,
// so a flight alone in a subtree crosses that subtree's switches with
// nothing to contend with. On a sparse cycle (loneSparsity*len(pending) <
// n) the lone pass routes those hops one flight at a time instead of
// carrying the flight through the lists:
//
//   - Up: a flight's neighbours in the sorted injection keys give the
//     deepest level whose subtree holds another source; above it and above
//     the LCA the flight climbs alone. It then joins the carried lists of
//     the level where it meets another flight through that level's arrival
//     list (arrUp, or arrTurn when it turns there), merged in by carryUp.
//   - Down: one more radix sort, of the admitted (dstLeaf, index) keys,
//     gives sdown[i] the same way. A flight about to enter a down contest above
//     sdown[i] — a turner at its LCA, or a winner of a down step — descends
//     alone to its leaf as soon as its run is done.
//   - A lone hop is a one-request node run. With ideal switches and no
//     injected loss, climbIdeal and descendIdeal route a flight's lone hops
//     in one straight loop each, with the fused rule for rank 0, its
//     widened-child checks and a claim and release of every wire guard bit;
//     partial or lossy hops route the one-key run through routeStreamNode
//     (loneHop).
//
// Dense cycles skip detection and the pass; the sweeps test the cycle's
// gate flag before they look at sdown.
//
// Equivalence with the Fig. 3 sweep — one eager switch per node, every level
// contested node by node, as the reference engine of the package tests
// transcribes it — is structural, not coincidental:
//
//   - Order: every node's request list ascends in message-index order, the
//     order in which the sweep hands a switch its requests. Ideal
//     concentrators are positional and the wire each request wins depends
//     only on that order.
//   - Switches: ideal-kind routing is computed inline from the capacity
//     profile (Ideal and passThrough concentrators are stateless and
//     positional, see internal/concentrator); partial or lossy switches are
//     materialized lazily per contested node with the constructor and seeds
//     of an eager per-node switch — partial concentrators draw randomness
//     only at construction and Lossy draws once per routed message, so lazy
//     creation cannot perturb any RNG stream.
//   - Observation: drop counts and observer records are made node run by
//     node run in ascending node order. With no event ring a run is one
//     SwitchDelta plus one wire-use add per channel it fills (the up
//     channel above its node, or the two down channels below it); with a
//     ring it is replayed flight by flight in message-index order, with the
//     same counter totals. A lone hop is recorded as a one-request run. On a
//     sparse cycle the lone hops are recorded as they are routed — the lone
//     pass right after injection, a lone descent right after its run — so
//     the event ring is not in sweep order; every counter total and
//     histogram is unchanged.
//   - Lone hops: ideal and passThrough concentrators are positional and
//     stateless, so a one-request run has one outcome wherever it is routed
//     in the cycle; a lossy switch draws from a separate stream per output
//     port, and a lone node sees one run per direction. Detection reads the
//     cycle's start: a neighbour dropped later, or deferred at its leaf,
//     still counts, so it can miss a lone hop — the carried lists then
//     route it — but never invents one.

// keyIndex masks the flight index out of a node<<32 | flightIndex key.
const keyIndex = 1<<32 - 1

// streamState is the engine state of the streaming data plane.
type streamState struct {
	e *Engine

	n      int // processors
	levels int

	// Capacity profile snapshotted at construction (per-level table plus the
	// sparse override overlay): later SetChannelCapacity calls do not affect
	// a built engine.
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

	// Lone-pass scratch, allocated on the first sparse cycle. sparse marks
	// the current cycle. sdown[i] is the deepest level whose subtree holds
	// the destination of another admitted flight than i (-1 for none), and
	// dkeys is the (dstLeaf, index) sort it is read from. arrUp[l] and
	// arrTurn[l] collect the lone climbers that meet another flight at level
	// l, keyed by their node at level l+1: the ones that climb on and the
	// ones that turn at level l. merged is carryUp's buffer for folding them
	// in, one is a lone hop's one-key run, and lone holds a fused node run's
	// lone descenders until the run is released and observed.
	sparse         bool
	sdown          []int8
	dkeys          []uint64
	arrUp, arrTurn [][]uint64
	merged         []uint64
	one            [1]uint64
	lone           []uint64

	// loneGate overrides the loneSparsity gate for tests: +1 runs the lone
	// pass on every cycle, -1 on none, 0 leaves the gate in charge.
	loneGate int8

	// sortByNode's scratch: the digit count table and the ping-pong buffer.
	radixCount []int
	radixBuf   []uint64

	sh streamShard
}

// loneSparsity gates the lone pass: a cycle takes it only when
// loneSparsity*len(pending) < n. Detecting lone hops costs one more radix
// sort per cycle, and at this density most hops below the top few levels
// are lone; denser cycles skip detection and run the carried lists alone.
const loneSparsity = 8

// radixMin is the shortest key list sortByNode radix-sorts; shorter lists
// go to slices.Sort, whose insertion sort wins below it.
const radixMin = 64

// radixDigit is sortByNode's widest digit in bits: leaf spans up to 11
// levels sort in one pass, 2^20 leaves in two passes of 10 bits.
const radixDigit = 11

// streamShard is the node-run scratch of the streaming plane: the per-run
// wire guards, the lazy special-switch table, and the drop tally.
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
	// routed. They check the hardware invariant that no channel wire is
	// assigned twice in one sweep. A node run sets the bit of each wire it
	// assigns and clears them again before the next run: a positional run
	// (rank j wins wire j) zeroes the words its winners fill, any other run
	// walks its winners (releaseRun). Every bit is clear between runs and
	// the cost is O(run), not O(channel width).
	upUsed   wireSet
	downUsed [2]wireSet // indexed by the child's side: 0 left, 1 right
}

// wireSet is a bitset over the wires of one channel.
type wireSet []uint64

// fit makes room in *s for width wires. Growth happens only between runs,
// when every bit is clear, so nothing needs copying.
func (s *wireSet) fit(width int) {
	if words := (width + 63) >> 6; words > len(*s) {
		*s = make(wireSet, words)
	}
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

// newStreamEngine builds the streaming engine for a heap-indexed fat-tree.
func newStreamEngine(t *core.FatTree, kind concentrator.Kind, seed int64) *Engine {
	e := &Engine{tree: t}
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
// with the same per-node seeds, seed+3v. Lossy concentrators
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
// materialized switch so per-run deltas start at the observer attach point.
func (st *streamState) primeSpecials() {
	for _, ss := range st.sh.special {
		ss.lastRounds = ss.sw.MatchingRounds()
		ss.lastFaults = ss.sw.FaultDrops()
	}
}

// switchFor returns node v's materialized switch, building it on first
// contest as NewSwitch(capAbove(v), capAbove(leftChild), kind, seed+v), plus
// the loss wrapper when faults are injected. Partial concentrators draw their
// randomness at construction from their own (seed, node) stream, so lazy
// creation is equivalent to building every switch eagerly.
func (sh *streamShard) switchFor(st *streamState, v int) *streamSwitch {
	if ss, ok := sh.special[v]; ok {
		return ss
	}
	if sh.special == nil {
		//ftlint:ignore hotalloc one-time lazy table: populated only for partial or lossy switches, never on the ideal steady state.
		sh.special = make(map[int]*streamSwitch)
	}
	//ftlint:ignore hotalloc one-time switch materialization on first contest; the ideal steady state never reaches it.
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
// dst is grown once; each merge step stores the smaller index and advances
// the cursor it came from by the compare's 0 or 1 (indices are distinct).
//
//ftlint:hotpath
func siblingMerge(dst, src []uint64) []uint64 {
	o := len(dst)
	dst = grow(dst, o+len(src))
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
			a, b := src[l]&keyIndex, src[r]&keyIndex
			left := b2i(a < b)
			dst[o] = parent | min(a, b)
			o++
			l += left
			r += 1 - left
		}
		for ; l < j; l++ {
			dst[o] = parent | src[l]&keyIndex
			o++
		}
		for ; r < k; r++ {
			dst[o] = parent | src[r]&keyIndex
			o++
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

// mergeKeys appends to dst the merge of the ascending key lists a and b,
// whose keys are distinct: into dst grown once, each step stores the
// smaller key and advances each cursor by the compare's 0 or 1.
//
//ftlint:hotpath
func mergeKeys(dst, a, b []uint64) []uint64 {
	o := len(dst)
	dst = grow(dst, o+len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		x, y := a[i], b[j]
		first := b2i(x < y)
		dst[o] = min(x, y)
		o++
		i += first
		j += 1 - first
	}
	o += copy(dst[o:], a[i:])
	copy(dst[o:], b[j:])
	return dst
}

// sortByNode sorts keys into (node, index) order. Every key's node must be
// a leaf, and keys must be appended in ascending flight index, as injection
// and the lone pass append them, shuffled runs included: a sort that is
// stable by node then leaves each node's keys in index order, which is the
// order slices.Sort gives. Lists shorter than radixMin go to slices.Sort;
// sorted lists, such as a dense permutation's, return after one check; the
// rest take a least-significant-digit radix sort over the node's leaf
// bits, skipping a pass whose digit every key shares.
//
//ftlint:hotpath
func (st *streamState) sortByNode(keys []uint64) {
	if len(keys) < radixMin {
		slices.Sort(keys)
		return
	}
	for p := 1; keys[p-1] < keys[p]; p++ {
		if p+1 == len(keys) {
			return
		}
	}
	passes := (st.levels + radixDigit - 1) / radixDigit
	width := (st.levels + passes - 1) / passes
	mask := uint64(1)<<width - 1
	if len(st.radixCount) < 1<<width {
		st.radixCount = make([]int, 1<<width)
	}
	count := st.radixCount[:1<<width]
	if cap(st.radixBuf) < len(keys) {
		st.radixBuf = make([]uint64, len(keys), len(keys)+len(keys)/2)
	}
	src, dst := keys, st.radixBuf[:len(keys)]
	for shift := 32; shift < 32+st.levels; shift += width {
		clear(count)
		for _, k := range src {
			count[k>>shift&mask]++
		}
		if count[src[0]>>shift&mask] == len(src) {
			continue // one digit: the pass would not move a key
		}
		sum := 0
		for d, c := range count {
			count[d] = sum
			sum += c
		}
		for _, k := range src {
			d := k >> shift & mask
			dst[count[d]] = k
			count[d]++
		}
		src, dst = dst, src
	}
	if &src[0] != &keys[0] {
		copy(keys, src)
	}
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
	st.sparse = loneSparsity*len(pending) < st.n
	if st.loneGate != 0 {
		st.sparse = st.loneGate > 0
	}
	if st.sparse {
		st.lonePass()
	}
	st.turns = st.turns[:0]
	st.carryUp(st.levels-1, st.up, st.turn)
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
// by (leaf, index) with sortByNode, which lines up every leaf's messages in
// message-index order and makes "the first capAt(leaf) win, the rest defer"
// identical to admission in message order; the winners are left in st.up and st.turn,
// keyed by their leaf, for the lone pass and the first carryUp. A final pass
// lays out the wire-history arena in message-index order.
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
	st.sortByNode(keys)

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
	st.keys, st.up, st.turn = keys, up, turn

	// Arena layout in message-index order: each admitted flight reserves its
	// exact path length and records its injection wire.
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
		scr.histArena = grow(scr.histArena, arenaLen)
		scr.histArena[f.histOff] = f.wire
	}
	return flights, res
}

// carryUp hands the winners of the step below level to level: up (the
// flights that keep climbing) becomes level's up-step request list and turn
// (the flights whose LCA is at level) becomes level's turn list, both
// re-keyed by parent with siblingMerge. On a sparse cycle the lone climbers
// that arrive at level are merged in first.
//
//ftlint:hotpath
func (st *streamState) carryUp(level int, up, turn []uint64) {
	ku, kt := up, turn
	if st.sparse {
		ku = st.arrive(up, &st.arrUp[level])
	}
	st.keys = siblingMerge(st.keys[:0], ku)
	if st.sparse {
		kt = st.arrive(turn, &st.arrTurn[level])
	}
	st.turns = siblingMerge(st.turns, kt)
	st.turnOff[level] = len(st.turns)
	st.up, st.turn = up[:0], turn[:0]
}

// arrive returns list with the arrivals in *arr merged in, and empties
// *arr. Both lists ascend on distinct nodes — an arrival's node has no
// other source of the cycle in its subtree — so the merge keeps every node
// run intact. The result lives in st.merged until the next call.
//
//ftlint:hotpath
func (st *streamState) arrive(list []uint64, arr *[]uint64) []uint64 {
	a := *arr
	if len(a) == 0 {
		return list
	}
	*arr = a[:0]
	st.merged = mergeKeys(st.merged[:0], list, a)
	return st.merged
}

// sweepUp runs the up step at level: it routes each node run of the request
// list and sorts the winners into the flights that keep climbing and the
// flights that turn at the parent, then carries both to the level above.
//
//ftlint:hotpath
func (st *streamState) sweepUp(level int) {
	var up, turn []uint64
	if st.inlineHops() {
		up, turn = st.fuseUp(level)
	} else {
		up, turn = st.switchUp(level)
	}
	if level > 0 {
		st.carryUp(level-1, up, turn)
	}
}

// fuseUp is the up step on ideal lossless switches: one pass over the
// request list routes and sorts every flight of each node run. A flight
// gets the wire rule of its switch's parent port — passThrough when the up
// channel is at least as wide as its two feeders (a right-child wire
// offset by the left child's width), Ideal otherwise (rank j wins wire j,
// the rest lose), the selection NewSwitch makes — with the
// widened-right-child panic, its guard claim, its history entry and its new
// node. It is then sorted as a climber, a turner, or a lone turner whose
// descent waits until the run's guard bits are released and the run is
// observed. A positional run releases its guards by clearing the winners'
// words, a pass-through run by walking its winners (releaseRun).
//
// The sort does not jump on the climb bit (LCA above the parent): up and
// turn are sized to the request list, the key goes to both, and the bit
// advances one cursor and 1 minus it the other. The right-child offset is
// the child bit times the run's offset (capChild on a pass-through run, 0
// otherwise). Only a root external output and a lone turner take a branch,
// and the widened-right-child check tests the wire, never too wide on a
// well-formed tree, before the child bit.
//
//ftlint:hotpath
func (st *streamState) fuseUp(level int) (up, turn []uint64) {
	sh := &st.sh
	keys := st.keys
	flights := st.e.scr.flights
	hist := st.e.scr.histArena
	up, turn = grow(st.up[:0], len(keys)), grow(st.turn[:0], len(keys))
	lone := st.lone[:0]
	nu, nt := 0, 0
	sparse, sdown := st.sparse, st.sdown
	capParent, capChild := st.levelCaps[level], st.levelCaps[level+1]
	sh.upUsed.fit(capParent)
	for p := 0; p < len(keys); {
		start, v := p, keys[p]>>32
		if st.ov != nil {
			capParent, capChild = st.capAt(int(v)), st.capAt(int(2*v))
			sh.upUsed.fit(capParent)
		}
		pass := capParent >= 2*capChild
		off := capChild * b2i(pass) // a right child's wire offset
		root, parent := v == 1, int(v>>1)
		lone = lone[:0]
		won := 0
		for ; p < len(keys) && keys[p]>>32 == v; p++ {
			k := keys[p]
			i := int(uint32(k))
			f := &flights[i]
			w := f.wire
			if w >= capChild && f.node&1 == 1 {
				panic(errUpWidened)
			}
			w += f.node & 1 * off
			if !pass {
				if p-start >= capParent {
					f.state = flightLost
					continue
				}
				w = p - start
			}
			sh.claimUp(w, capParent)
			f.wire, f.node = w, int(v)
			hist[f.histOff+f.histLen] = w
			f.histLen++
			won++
			if root && f.msg.Dst == core.External {
				// The root up channel is the external interface: delivered.
				f.state = flightDone
				continue
			}
			climb := b2i(f.lca != parent)
			if sparse && level-1 > int(sdown[i]) && climb == 0 {
				lone = append(lone, k)
				continue
			}
			up[nu], turn[nt] = k, k
			nu += climb
			nt += 1 - climb
		}
		run := keys[start:p]
		if pass {
			sh.releaseRun(flights, run, true)
		} else {
			clear(sh.upUsed[:(won+63)>>6])
		}
		sh.drops += len(run) - won
		if st.e.obs != nil {
			st.e.observeStreamRun(int(v), run, true, [2]int{won}, len(run)-won, 0, 0)
		}
		for _, k := range lone {
			st.loneDescend(int(uint32(k)), level-1)
		}
	}
	st.lone = lone
	return up[:nu], turn[:nt]
}

// switchUp is the up step on partial or lossy switches: each node run is
// routed through its switch (routeStreamNode), then its winners are sorted.
//
//ftlint:hotpath
func (st *streamState) switchUp(level int) (up, turn []uint64) {
	keys := st.keys
	flights := st.e.scr.flights
	up, turn = st.up[:0], st.turn[:0]
	for start := 0; start < len(keys); {
		v, end := int(keys[start]>>32), runEnd(keys, start)
		run := keys[start:end]
		start = end
		st.routeStreamNode(v, run, level, true)
		for _, k := range run {
			i := int(uint32(k))
			f := &flights[i]
			if f.state != flightUp { // dropped, or delivered out of the root
				continue
			}
			if f.lca == v>>1 {
				if st.sparse && level-1 > int(st.sdown[i]) {
					st.loneDescend(i, level-1)
				} else {
					turn = append(turn, k)
				}
			} else {
				up = append(up, k)
			}
		}
	}
	return up, turn
}

// sweepDown runs the down step at level: the descenders carried from the
// step above merge with the level's turn list into the request list, and
// each node run's winners are carried down, left child's first. The up list
// is idle in the down sweep and holds each run's right-child winners.
//
//ftlint:hotpath
func (st *streamState) sweepDown(level int) {
	st.keys = mergeKeys(st.keys[:0], st.desc, st.turns[st.turnOff[level+1]:st.turnOff[level]])
	var desc, right []uint64
	if st.inlineHops() {
		desc, right = st.fuseDown(level)
	} else {
		desc, right = st.switchDown(level)
	}
	st.desc, st.up = desc, right[:0]
}

// fuseDown is the down step on ideal lossless switches: one pass over the
// request list routes and carries every flight of each node run. Both down
// ports are Ideal and sized by the left child: the rank-j request for a
// port wins wire j below that width and loses from there on. A turner on a
// child-side wire wider than the port panics, and each claim is checked
// against the child's own capacity. The guards are released by clearing the
// words the winners used; lone descenders wait, as in fuseUp.
//
// The side bit of the destination chooses the list without a jump: desc
// and the right scratch are sized to the request list, each carried
// winner's re-keyed key is written to both, and desc's cursor advances by
// 1 minus the side, right's by the side; a run's right winners are then
// copied after its left ones. The widened-turner check tests the wire
// before the state, as in fuseUp.
//
//ftlint:hotpath
func (st *streamState) fuseDown(level int) (desc, right []uint64) {
	sh := &st.sh
	keys := st.keys
	flights := st.e.scr.flights
	hist := st.e.scr.histArena
	desc, right = grow(st.desc[:0], len(keys)), grow(st.up[:0], len(keys))
	lone := st.lone[:0]
	nd := 0
	sparse, sdown := st.sparse, st.sdown
	capPort := st.levelCaps[level+1]
	caps := [2]int{capPort, capPort}
	sh.downUsed[0].fit(capPort)
	sh.downUsed[1].fit(capPort)
	shift := uint(st.levels - level - 1)
	last := level+1 == st.levels // the last step delivers every winner
	for p := 0; p < len(keys); {
		start, v := p, keys[p]>>32
		if st.ov != nil {
			capPort = st.capAt(int(2 * v))
			caps = [2]int{capPort, st.capAt(int(2*v + 1))}
			sh.downUsed[0].fit(caps[0])
			sh.downUsed[1].fit(caps[1])
		}
		lone = lone[:0]
		nr := 0
		var ranks [2]int
		for ; p < len(keys) && keys[p]>>32 == v; p++ {
			k := keys[p]
			i := int(uint32(k))
			f := &flights[i]
			if f.wire >= capPort && f.state == flightUp {
				panic(errDownWidened)
			}
			side := f.dstLeaf >> shift & 1
			j := ranks[side]
			ranks[side]++
			if j >= capPort {
				f.state = flightLost
				continue
			}
			child := int(2*v) + side
			sh.claimDown(side, j, caps[side])
			f.wire, f.node = j, child
			hist[f.histOff+f.histLen] = j
			f.histLen++
			if last {
				f.state = flightDone
				continue
			}
			f.state = flightDown
			if sparse && level+1 > int(sdown[i]) {
				lone = append(lone, k)
				continue
			}
			k = uint64(child)<<32 | k&keyIndex
			desc[nd], right[nr] = k, k
			nd += 1 - side
			nr += side
		}
		nd += copy(desc[nd:], right[:nr])
		run := keys[start:p]
		won := [2]int{min(ranks[0], capPort), min(ranks[1], capPort)}
		clear(sh.downUsed[0][:(won[0]+63)>>6])
		clear(sh.downUsed[1][:(won[1]+63)>>6])
		drops := len(run) - won[0] - won[1]
		sh.drops += drops
		if st.e.obs != nil {
			st.e.observeStreamRun(int(v), run, false, won, drops, 0, 0)
		}
		for _, k := range lone {
			st.loneDescend(int(uint32(k)), level+1)
		}
	}
	st.lone = lone
	return desc[:nd], right
}

// switchDown is the down step on partial or lossy switches: each node run
// is routed through its switch (routeStreamNode), then its winners are
// carried down. On a sparse cycle a winner alone below this level descends
// at once.
//
//ftlint:hotpath
func (st *streamState) switchDown(level int) (desc, right []uint64) {
	keys := st.keys
	flights := st.e.scr.flights
	carry := level+1 < st.levels // the last step delivers every winner
	desc, right = st.desc[:0], st.up[:0]
	for start := 0; start < len(keys); {
		v, end := int(keys[start]>>32), runEnd(keys, start)
		run := keys[start:end]
		start = end
		st.routeStreamNode(v, run, level, false)
		if !carry {
			continue
		}
		right = right[:0]
		for _, k := range run {
			i := int(uint32(k))
			if f := &flights[i]; f.state == flightDown {
				if st.sparse && level+1 > int(st.sdown[i]) {
					st.loneDescend(i, level+1)
					continue
				}
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
	return desc, right
}

// routeStreamNode contests node v, at level vLevel, with the flights of run
// on a partial or lossy switch: the node's switch is materialized lazily and
// routes the run as a concentrator request list. (Ideal lossless runs are
// routed by fuseUp, fuseDown and the straight-line lone hops.)
//
//ftlint:hotpath
func (st *streamState) routeStreamNode(v int, run []uint64, vLevel int, upSweep bool) {
	sh := &st.sh
	flights := st.e.scr.flights
	hist := st.e.scr.histArena
	shift := uint(st.levels - vLevel - 1)
	capParent := st.capAt(v)
	caps := [2]int{st.capAt(2 * v), st.capAt(2*v + 1)} // each down channel's own width
	if upSweep {
		sh.upUsed.fit(capParent)
	} else {
		sh.downUsed[0].fit(caps[0])
		sh.downUsed[1].fit(caps[1])
	}

	reqs := sh.reqs[:0]
	for _, k := range run {
		f := &flights[int(uint32(k))]
		// Climbing or turning at its LCA, a flight holds a child-side wire;
		// descending, the parent-side down wire.
		in := concentrator.Parent
		if upSweep || f.state == flightUp {
			in = concentrator.Left
			if f.node == 2*v+1 {
				in = concentrator.Right
			}
		}
		out := concentrator.Parent
		if !upSweep {
			out = concentrator.Left
			if f.dstLeaf>>shift&1 == 1 {
				out = concentrator.Right
			}
		}
		reqs = append(reqs, concentrator.Request{In: in, InWire: f.wire, Out: out})
	}
	sh.reqs = reqs

	ss := sh.switchFor(st, v)
	outWires, _ := ss.sw.Route(reqs)
	var won [2]int
	drops := 0
	for j, k := range run {
		f := &flights[int(uint32(k))]
		w := outWires[j]
		if w < 0 {
			f.state = flightLost
			drops++
			continue
		}
		side := 0
		if upSweep {
			sh.claimUp(w, capParent)
			f.node = v // now holds a wire in the up channel above v
			if v == 1 && f.msg.Dst == core.External {
				// The root up channel is the external interface: delivered.
				f.state = flightDone
			}
		} else {
			if reqs[j].Out == concentrator.Right {
				side = 1
			}
			sh.claimDown(side, w, caps[side])
			f.node = 2*v + side
			f.state = flightDown
			if vLevel+1 == st.levels {
				f.state = flightDone
			}
		}
		won[side]++
		f.wire = w
		hist[f.histOff+f.histLen] = w
		f.histLen++
	}
	sh.drops += drops
	sh.releaseRun(flights, run, upSweep)
	if st.e.obs != nil {
		r := ss.sw.MatchingRounds()
		dRounds := r - ss.lastRounds
		ss.lastRounds = r
		fd := ss.sw.FaultDrops()
		dFaults := fd - ss.lastFaults
		ss.lastFaults = fd
		st.e.observeStreamRun(v, run, upSweep, won, drops, dRounds, dFaults)
	}
}

// The widened-child panics. A materialized concentrator rejects an input
// wire beyond its width, and the ideal rules of fuseUp, fuseDown and the
// lone hops keep that check: an up request from a right child whose
// override widens it past its sibling (the input index concatenates the
// two), or a turning request on a child wider than the down port, which a
// switch sizes by its left child.
const (
	errUpWidened   = "sim: up request wire exceeds switch input width (widened right-child override)"
	errDownWidened = "sim: down request wire exceeds switch input width (widened child override)"
)

// lonePass starts a sparse cycle: it finds how far each admitted flight is
// alone and routes those hops at once, one flight at a time. A flight is
// alone in the up contests at the levels above both its LCA and the deepest
// level whose subtree holds another cycle source (its neighbours in the
// sorted injection keys tell which). It is alone in the down contests at the
// levels above sdown[i], found the same way from a radix sort of the
// admitted destinations (sortByNode; they are appended in flight-index
// order). A lone climber that meets another flight joins that level's
// carried lists through arrUp or arrTurn; a turner alone below its LCA
// descends to its leaf. On ideal lossless switches the hops are the
// straight-line loops of climbIdeal and descendIdeal. Going up, sources
// deferred at their leaf count as neighbours, and flights dropped later count both ways, so detection errs
// towards the carried lists, whose outcome for a one-request run is the
// same.
//
//ftlint:hotpath
func (st *streamState) lonePass() {
	flights := st.e.scr.flights
	levels := st.levels
	if st.arrUp == nil {
		st.arrUp = make([][]uint64, levels)
		st.arrTurn = make([][]uint64, levels)
	}
	if cap(st.sdown) < len(flights) {
		st.sdown = make([]int8, len(flights), cap(flights))
	}
	sdown := st.sdown[:len(flights)]
	st.sdown = sdown
	dk := st.dkeys[:0]
	for i := range flights {
		if d := flights[i].dstLeaf; d != 0 { // admitted, internal destination
			dk = append(dk, uint64(d)<<32|uint64(uint32(i)))
		}
	}
	st.sortByNode(dk)
	for p, k := range dk {
		sdown[uint32(k)] = int8(st.shareLevel(dk, p))
	}
	st.dkeys = dk

	// up and turn are ascending subsequences of the injection keys: walk
	// all three together and keep, in place, the flights with no lone hop.
	keys, up, turn := st.keys, st.up, st.turn
	a, b, nu, nt := 0, 0, 0, 0
	for p, k := range keys {
		i := int(uint32(k))
		switch {
		case a < len(up) && up[a] == k:
			a++
			s := max(st.shareLevel(keys, p), bits.Len(uint(flights[i].lca))-1)
			if s < levels-1 {
				st.loneClimb(i, s)
			} else {
				up[nu] = k
				nu++
			}
		case b < len(turn) && turn[b] == k:
			b++
			if levels-1 > int(sdown[i]) {
				st.loneDescend(i, levels-1)
			} else {
				turn[nt] = k
				nt++
			}
		}
	}
	st.up, st.turn = up[:nu], turn[:nt]
}

// shareLevel returns the deepest level whose subtree holds the leaf of
// keys[p] and the leaf of another key of the ascending list keys — found
// among its two neighbours — or -1 when keys has no other key.
//
//ftlint:hotpath
func (st *streamState) shareLevel(keys []uint64, p int) int {
	s, leaf := -1, keys[p]>>32
	if p > 0 {
		s = st.levels - bits.Len64(leaf^keys[p-1]>>32)
	}
	if p+1 < len(keys) {
		s = max(s, st.levels-bits.Len64(leaf^keys[p+1]>>32))
	}
	return s
}

// loneClimb routes flight i from its leaf up through the levels below s
// alone, then hands it to level s: as an arrival there, or, when it turns
// at level s and is alone below, straight down to its leaf.
//
//ftlint:hotpath
func (st *streamState) loneClimb(i, s int) {
	f := &st.e.scr.flights[i]
	if st.inlineHops() {
		st.climbIdeal(i, s)
	} else {
		for l := st.levels - 1; l > s && f.state == flightUp; l-- {
			st.loneHop(i, f.node>>1, l, true)
		}
	}
	if f.state != flightUp { // dropped, or delivered out of the root
		return
	}
	key := uint64(f.node)<<32 | uint64(uint32(i))
	switch {
	case f.lca != f.node>>1:
		st.arrUp[s] = append(st.arrUp[s], key)
	case s > int(st.sdown[i]):
		st.loneDescend(i, s)
	default:
		st.arrTurn[s] = append(st.arrTurn[s], key)
	}
}

// loneDescend routes flight i down from level d, its next down contest, to
// its leaf: alone at every level from d on.
//
//ftlint:hotpath
func (st *streamState) loneDescend(i, d int) {
	f := &st.e.scr.flights[i]
	if st.inlineHops() {
		st.descendIdeal(i, d)
		return
	}
	for l := d; l < st.levels; l++ {
		st.loneHop(i, f.dstLeaf>>uint(st.levels-l), l, false)
		if f.state != flightDown { // dropped, or delivered into the leaf
			return
		}
	}
}

// inlineHops reports whether node runs and lone hops are routed inline:
// ideal switches and no injected loss, so a run has no switch to build and
// no RNG to draw from. Node runs then take fuseUp and fuseDown, lone hops
// the straight-line loops of climbIdeal and descendIdeal; an observer, if
// attached, is told per run and per hop.
//
//ftlint:hotpath
func (st *streamState) inlineHops() bool {
	return st.kind == concentrator.KindIdeal && !st.lossOn
}

// climbIdeal routes flight i up alone through the levels below s, one hop
// per ancestor, with fuseUp's rule for a one-request run: the hop passes
// its wire through (a right child's offset by the left child's width) when
// the parent channel is at least twice the child's, and wins wire 0
// otherwise — by arithmetic, not a jump: the wire plus the child bit times
// the child's width, times the pass-through bit. Each hop keeps the
// widened-right-child check, wire first as in fuseUp, and claims and
// releases its guard bit. Every capacity is at least 1 (core.New and
// SetChannelCapacity reject less), so a lone ideal hop always wins. The
// history goes straight into the arena; the flight's node, wire and
// history length live in locals and are stored once. An observer records
// each hop as a one-request run.
//
//ftlint:hotpath
func (st *streamState) climbIdeal(i, s int) {
	sh := &st.sh
	f := &st.e.scr.flights[i]
	hist := st.e.scr.histArena
	node, wire, h := f.node, f.wire, f.histOff+f.histLen
	for l := st.levels - 1; l > s; l-- {
		v := node >> 1
		capParent, capChild := st.levelCaps[l], st.levelCaps[l+1]
		if st.ov != nil {
			capParent, capChild = st.capAt(v), st.capAt(2*v)
		}
		if wire >= capChild && node&1 == 1 {
			panic(errUpWidened)
		}
		wire = (wire + node&1*capChild) * b2i(capParent >= 2*capChild)
		sh.upUsed.fit(capParent)
		sh.claimUp(wire, capParent)
		sh.upUsed[wire>>6] = 0
		hist[h] = wire
		h++
		node = v
		if st.e.obs != nil {
			st.e.observeHop(i, v, v, int(core.Up), wire, v == 1 && f.msg.Dst == core.External)
		}
	}
	f.node, f.wire, f.histLen = node, wire, h-f.histOff
	if node == 1 && f.msg.Dst == core.External {
		// The root up channel is the external interface: delivered.
		f.state = flightDone
	}
}

// descendIdeal routes flight i down alone from level d to its leaf. A lone
// request is rank 0 at its down port, so by fuseDown's rule each hop wins
// wire 0, checked against the port width (a turner's first hop) and
// claimed and released against the child's own capacity.
//
//ftlint:hotpath
func (st *streamState) descendIdeal(i, d int) {
	sh := &st.sh
	f := &st.e.scr.flights[i]
	hist := st.e.scr.histArena
	levels := st.levels
	dst, h := f.dstLeaf, f.histOff+f.histLen
	turning := f.state == flightUp
	for l := d; l < levels; l++ {
		child := dst >> uint(levels-l-1)
		side := child & 1
		capPort, capChild := st.levelCaps[l+1], st.levelCaps[l+1]
		if st.ov != nil {
			// A switch sizes both down ports by its left child.
			capPort, capChild = st.capAt(child&^1), st.capAt(child)
		}
		if turning && f.wire >= capPort {
			panic(errDownWidened)
		}
		turning = false
		sh.downUsed[side].fit(capChild)
		sh.claimDown(side, 0, capChild)
		sh.downUsed[side][0] = 0
		hist[h] = 0
		h++
		if st.e.obs != nil {
			st.e.observeHop(i, child>>1, child, int(core.Down), 0, l+1 == levels)
		}
	}
	f.node, f.wire, f.histLen, f.state = dst, 0, h-f.histOff, flightDone
}

// loneHop routes flight i alone through node v at level vLevel on a
// partial or lossy engine: a one-key run through routeStreamNode, so the
// switch is built and drawn from as on the carried path, and the observer
// records the run.
//
//ftlint:hotpath
func (st *streamState) loneHop(i, v, vLevel int, upSweep bool) {
	st.one[0] = uint64(v)<<32 | uint64(uint32(i))
	st.routeStreamNode(v, st.one[:], vLevel, upSweep)
}
