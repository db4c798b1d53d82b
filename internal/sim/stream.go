package sim

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"fattree/internal/concentrator"
	"fattree/internal/core"
)

// This file is the engine's data plane, for a fat-tree of any arity. Instead
// of per-node arrays (switch objects, a capacity table, bucket lists,
// injection counters) it keeps sorted lists of (node, flight) keys that it
// carries from one sweep step to the next, so engine memory is O(messages)
// — independent of the processor count. The wire guards are bitsets, one
// bit per wire of the widest channel routed, so even the 2^18-wire root
// channel of a 2^20-endpoint universal tree costs 32 KiB. That network —
// topology plus a warmed engine — retains about 2.4 bytes per endpoint:
// per admitted message a cycle keeps a 40-byte flight and its keys, and no
// record of the wires the flight held before its current one.
//
// Nodes are named by padded ids: a node's id is its parent's id shifted
// left by its level's child digit, b_k = ⌈lg d⌉ bits for arity d, holding
// its index among its siblings; the root is 1. A binary tree's padded ids
// are its heap ids (2v and 2v+1 under v, leaf n+p). Every step navigates
// with per-level constants fixed at construction: the parent is a shift,
// the child digit a mask, a leaf's ancestor at level k a shift, and the
// level of a node or of two leaves' deepest common ancestor a lookup of a
// bit length (depth). Ids are translated to the tree's level-order ids only
// at the boundaries: the capacity overrides at construction, the leaf of a
// processor at injection, and the observer hooks.
//
// Every carried list holds node<<32 | flightIndex keys in ascending order,
// so each node's requests are contiguous and in message-index order:
//
//   - Injection sorts the (leaf, index) keys once per cycle — a dense
//     cycle's only sort — with a radix sort stable by leaf (sortByNode),
//     and admits the first capAt(leaf) flights of each leaf.
//   - A step routes its nodes in ascending order and emits each winner keyed
//     by the node whose channel it now holds. Re-keyed by parent, every group
//     is its children's runs in child order, each ascending, and one merge
//     per group (siblingMerge), or a sort when it has more than two runs,
//     restores the order. Winners that keep climbing form the next up step's
//     request list; winners whose LCA is the parent go to that level's turn
//     list.
//   - A down step merges (mergeKeys) the descenders carried from the step
//     above — placed child by child, so already ascending — with the level's
//     turn list.
//
// A step is one pass over its request list (fuseUp, fuseDown): each flight
// of a node run gets its wire, claims its guard bit and is sorted into the
// next list; the run's guard bits are released and the run observed before
// its lone descents start. Only the wire's source varies, chosen once per
// engine: ideal lossless switches whose sibling channels share a width give
// it by their rule, computed inline; otherwise routeRun leaves each flight's
// output wire in the flight first, -1 when lost.
//
// The per-flight choices follow address digits, coin flips under random
// traffic, so the ideal passes, the lone climb and both merges decide by
// arithmetic rather than by a jump: output lists are sized to the request
// list, a key is written to both candidate lists and the choice advances
// one cursor by a bit and the other by 1 minus it; a child's wire offset is
// its digit times the offset; a merge stores the smaller key. What keeps a
// jump is rare: a drop, a root external output, a lone flight on a sparse
// cycle, and the checks, each leading with its operand that is false on a
// well-formed tree.
//
// A flight alone in a subtree crosses that subtree's switches with nothing
// to contend with. On a sparse cycle (loneSparsity*len(pending) < n) of any
// engine but a per-child one (childRun), the lone pass routes those hops one
// flight at a time instead of carrying the flight through the lists:
//
//   - Up: a flight's neighbours in the sorted injection keys give the
//     deepest level whose subtree holds another source; above it and above
//     the LCA the flight climbs alone, then joins the carried lists of the
//     level where it meets another flight (arrUp, or arrTurn when it turns
//     there, merged in by carryUp).
//   - Down: a radix sort of the admitted (dstLeaf, index) keys gives
//     sdown[i] the same way. A flight about to enter a down contest above
//     sdown[i] descends alone to its leaf as soon as its run is done.
//   - A lone hop is a one-request node run: loneClimb and loneDescend check
//     every wire against its channel and its guard bit. On ideal lossless
//     switches a hop takes the fused rule for rank 0 and its widened-child
//     checks; on partial or lossy ones it is one request to its switch.
//
// Equivalence with the Fig. 3 sweep — one eager switch per node, every level
// contested node by node, as the reference engine of the package tests
// transcribes it — is structural:
//
//   - Order: every node's request list ascends in message-index order, the
//     order in which the sweep hands a switch its requests, and an ideal
//     concentrator's wires depend only on that order.
//   - Switches: ideal routing is computed from the capacity profile (Ideal
//     and passThrough concentrators are stateless and positional). A binary
//     switch sizes both child ports by its left child: it passes through
//     when the parent channel is twice that wide. Other arities size each
//     child port by its own child: pass-through when the parent is as wide
//     as its children together, child c's wires offset by the widths before
//     it (childRun; uniform widths make that c times the width). Partial or
//     lossy switches, binary Section IV hardware, are built lazily per
//     contested node with the constructor and seeds of an eager switch;
//     they draw randomness only at construction or per routed message, so
//     lazy creation perturbs no RNG stream.
//   - Observation: records are made node run by node run in ascending node
//     order. With no event ring a run is one SwitchDelta plus one wire-use
//     add per channel it fills; with a ring it is replayed flight by flight
//     in message-index order. A lone hop is recorded as a one-request run,
//     when it is routed, so on a sparse cycle the ring is not in sweep
//     order; counter totals and histograms are unchanged, and each flight's
//     events still come in path order, from which settings.go reads paths.
//   - Lone hops: a one-request run on a positional concentrator has one
//     outcome wherever it is routed; a lossy switch draws from a separate
//     stream per output port, and a lone node sees one run per direction.
//     Detection reads the cycle's start, so it can miss a lone hop — the
//     carried lists then route it — but never invents one.

// keyIndex masks the flight index out of a node<<32 | flightIndex key.
const keyIndex = 1<<32 - 1

// streamState is the engine state of the data plane.
type streamState struct {
	e *Engine

	n      int // processors
	levels int

	// lv is the tree's shape, one entry per level, and depth the
	// bit-position→level table: depth[b] is the level of a node whose id is
	// b bits long, a length between two levels' counting as the shallower
	// one, so depth[leafBits+1-bits.Len(a^b)] is the level of the deepest
	// common ancestor of leaves a and b (depth[0] is -1, the level of LCA 0
	// above the root). leafBits is a leaf id's length without its leading
	// 1; dense marks a tree whose arities are all powers of two, where a
	// level-k id is 1<<(leafBits-lv[k].below) plus the node's position in
	// its level.
	lv       []levelShape
	depth    []int8
	lcaShift []uint // lcaShift[b] = lv[depth[leafBits+1-b]].below: one load at injection
	leafBits int
	dense    bool
	heapIDs  bool // padded ids are level-order ids: the heap ids of a binary tree

	// ov is the capacity override overlay, keyed by padded id and
	// snapshotted at construction like lv: later SetChannelCapacity calls
	// do not affect a built engine. perChild marks a non-binary tree with
	// overrides, whose sibling channels may differ in width: its runs take
	// their wires from childRun.
	ov       map[int]int
	perChild bool

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
	// in, and lone holds a node run's lone descenders until the run is
	// released and observed.
	sparse         bool
	sdown          []int8
	dkeys          []uint64
	arrUp, arrTurn [][]uint64
	merged         []uint64
	lone           []uint64

	// loneGate overrides the loneSparsity gate for tests: +1 runs the lone
	// pass on every cycle, -1 on none, 0 leaves the gate in charge.
	loneGate int8

	// sortByNode's scratch: the digit count table and the ping-pong buffer.
	radixCount []int
	radixBuf   []uint64

	offs  []int // placeLater's and childRun's per-child scratch, zero between runs
	drops int   // the current cycle's dropped flights

	// special maps node -> materialized switch (partial concentrators,
	// injected loss), and reqs is their request scratch. rounds and faults
	// are the matching rounds and fault drops of the switch that routed the
	// last run or lone hop since its previous observed contest: set only
	// when observed, 0 on an engine that never routes through a switch.
	special        map[int]*streamSwitch
	reqs           []concentrator.Request
	rounds, faults int64

	// Per-run wire guards, one bit per wire, grown to the widest channel
	// routed. They check the hardware invariant that no channel wire is
	// assigned twice in one sweep. A node run sets the bit of each wire it
	// assigns and clears them again before the next run: a positional run
	// (rank j wins wire j) zeroes the words its winners fill, any other run
	// walks its winners (releaseRun). Every bit is clear between runs and
	// the cost is O(run), not O(channel width). down holds one port per
	// child digit, as many as the widest node has children.
	upUsed wireSet
	down   []downPort
}

// levelShape is one level of the tree's shape, fixed at construction.
type levelShape struct {
	cap   int  // channel capacity above a level-k node, overrides aside
	arity int  // children of a level-k node; 0 at the leaf level
	digit uint // bits of a level-k node's child digit; 1 at the root, under 0
	below uint // shifts a leaf's id to its ancestor at level k
	first int  // level-order id of the level's first node
}

// loneSparsity gates the lone pass: a cycle takes it only when
// loneSparsity*len(pending) < n. Detecting lone hops costs one more radix
// sort per cycle, and at this density most hops below the top few levels
// are lone; denser cycles skip detection and run the carried lists alone.
const loneSparsity = 8

// radixMin is the shortest key list sortByNode radix-sorts; shorter lists
// go to slices.Sort, whose insertion sort wins below it.
const radixMin = 64

// radixDigit is sortByNode's widest digit in bits: leaf ids of up to 11
// bits below their leading 1 sort in one pass, 2^20 leaves in two passes of
// 10 bits.
const radixDigit = 11

// downPort is the down side of one child digit of the node a down run
// routes: the guard bits of the channel into that child, and the run's
// requests for it (the next request's rank) and losses, zero between runs.
type downPort struct {
	used       wireSet
	rank, lost int
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

// has reports whether wire w is marked. A wire past the set's words is not:
// sets grow only between runs, so no run marked it.
//
//ftlint:hotpath
func (s wireSet) has(w int) bool {
	word := w >> 6
	return word < len(s) && s[word]&(1<<(uint(w)&63)) != 0
}

// claim marks wire w of a channel width wires wide, the hardware invariant's
// guard: a wire outside the channel, or already marked in this sweep, panics
// with msg (errUpGuard or errDownGuard).
//
//ftlint:hotpath
func (s wireSet) claim(w, width int, msg string) {
	word, bit := w>>6, uint64(1)<<(uint(w)&63)
	if w >= width || s[word]&bit != 0 {
		panic(msg)
	}
	s[word] |= bit
}

// The guard panics: a wire outside its channel, or assigned twice in one
// sweep.
const (
	errUpGuard   = "sim: up-channel wire oversubscribed (switch bug)"
	errDownGuard = "sim: down-channel wire oversubscribed (switch bug)"
)

// releaseRun clears the guard bits a node run set. Every flight of the run
// that was not dropped holds the wire it won in f.wire: on the up channel in
// an upward sweep, otherwise on the down channel into child f.node, whose
// digit is f.node&cmask. Every set bit belongs to this run, so zeroing a
// winner's whole word clears exactly this run's bits in it.
//
//ftlint:hotpath
func (st *streamState) releaseRun(flights []flight, run []uint64, upSweep bool, cmask int) {
	for _, k := range run {
		f := &flights[int(uint32(k))]
		if f.state == flightLost {
			continue
		}
		s := st.upUsed
		if !upSweep {
			s = st.down[f.node&cmask].used
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

// newEngine builds the engine for t: its padded-id geometry, its capacity
// profile and its override overlay, re-keyed by padded id. Partial
// concentrators are refused on a tree that is not binary, and so is a tree
// whose leaf ids do not fit a key's 32 node bits.
func newEngine(t *core.FatTree, kind concentrator.Kind, seed int64) *Engine {
	if kind != concentrator.KindIdeal && !core.HeapIndexed(t) {
		panic("sim: k-ary topologies route with ideal concentrators only; partial concentrators model the binary Section IV hardware")
	}
	levels := t.Levels()
	e := &Engine{tree: t}
	st := &streamState{
		e:       e,
		n:       t.Processors(),
		levels:  levels,
		kind:    kind,
		seed:    seed,
		turnOff: make([]int, levels+1),
		lv:      make([]levelShape, levels+1),
		dense:   true,
		heapIDs: core.HeapIndexed(t),
	}
	caps := t.LevelCapTable()
	widest := 0
	for k := range st.lv {
		lv := &st.lv[k]
		lv.cap = caps[k]
		lv.first, _ = t.LevelRange(k)
		lv.digit = 1
		if k > 0 {
			_, d := t.Children(st.lv[k-1].first)
			st.lv[k-1].arity = d
			lv.digit = uint(bits.Len(uint(d - 1)))
			st.leafBits += int(lv.digit)
			st.dense = st.dense && d&(d-1) == 0
			widest = max(widest, d)
		}
	}
	if st.leafBits >= 32 {
		panic(fmt.Sprintf("sim: %v needs %d-bit node ids; the engine's keys hold 32", t, st.leafBits+1))
	}
	st.depth = make([]int8, st.leafBits+2)
	st.depth[0] = -1
	above := 0 // the bits of a level-k id below its leading 1
	for k := range st.lv {
		if k > 0 {
			above += int(st.lv[k].digit)
		}
		st.lv[k].below = uint(st.leafBits - above)
		last := above + 1 // a level-k id's length, and those up to a child's
		if k < levels {
			last = above + int(st.lv[k+1].digit)
		}
		for b := above + 1; b <= last; b++ {
			st.depth[b] = int8(k)
		}
	}
	st.lcaShift = make([]uint, st.leafBits+1)
	for b := range st.lcaShift {
		st.lcaShift[b] = st.lv[st.depth[st.leafBits+1-b]].below
	}
	st.offs = make([]int, widest)
	st.down = make([]downPort, widest)
	t.Overrides(func(node, c int) {
		if st.ov == nil {
			st.ov = make(map[int]int)
		}
		k := t.Level(node)
		st.ov[st.pad(k, node-st.lv[k].first)] = c
	})
	st.perChild = st.ov != nil && !st.heapIDs
	e.stream = st
	return e
}

// pad returns the padded id of the node at position pos of level k, the
// node whose level-order id is lv[k].first+pos: pos's digits in the
// mixed radix of the arities, each in its level's digit bits, under a
// leading 1.
//
//ftlint:hotpath
func (st *streamState) pad(k, pos int) int {
	v, shift := 0, uint(0)
	for j := k; j > 0; j-- {
		d := st.lv[j-1].arity
		v |= pos % d << shift
		pos /= d
		shift += st.lv[j].digit
	}
	return v | 1<<shift
}

// leaf returns the padded id of processor p's leaf: n+p when every arity
// is a power of two (n is then 1<<leafBits), small enough to inline.
//
//ftlint:hotpath
func (st *streamState) leaf(p int) int {
	if uint(p) >= uint(st.n) || !st.dense {
		return st.padLeaf(p)
	}
	return st.n + p
}

// padLeaf is leaf for the other trees and for a p that names no processor.
func (st *streamState) padLeaf(p int) int {
	st.e.tree.Leaf(p) // panics when p names no processor
	return st.pad(st.levels, p)
}

// nodeID returns the level-order id of the node whose padded id is v: the
// id of the tree, the observer and the capacity overrides. On a binary tree
// the two are the heap id; otherwise v's digits are read back in the mixed
// radix of the arities.
//
//ftlint:hotpath
func (st *streamState) nodeID(v int) int {
	if st.heapIDs {
		return v
	}
	k, pos := int(st.depth[bits.Len(uint(v))]), 0
	for j := 1; j <= k; j++ {
		pos = pos*st.lv[j-1].arity + v>>(st.lv[j].below-st.lv[k].below)&(1<<st.lv[j].digit-1)
	}
	return st.lv[k].first + pos
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
	return st.lv[st.depth[bits.Len(uint(v))]].cap
}

// switchFor returns node v's materialized switch, building it on first
// contest as NewSwitch(capAbove(v), capAbove(leftChild), kind, seed+v), plus
// the loss wrapper when faults are injected. Partial concentrators draw their
// randomness at construction from their own (seed, node) stream, so lazy
// creation is equivalent to building every switch eagerly. Switches are
// built only on binary trees, whose padded ids are heap ids.
func (st *streamState) switchFor(v int) *streamSwitch {
	if ss, ok := st.special[v]; ok {
		return ss
	}
	if st.special == nil {
		//ftlint:ignore hotalloc one-time lazy table: populated only for partial or lossy switches, never on the ideal steady state.
		st.special = make(map[int]*streamSwitch)
	}
	//ftlint:ignore hotalloc one-time switch materialization on first contest; the ideal steady state never reaches it.
	sw := concentrator.NewSwitch(st.capAt(v), st.capAt(2*v), st.kind, st.seed+int64(v))
	if st.lossOn {
		sw.InjectLoss(st.lossRate, st.lossSeed+int64(3*v))
	}
	ss := &streamSwitch{sw: sw}
	st.special[v] = ss
	return ss
}

// siblingMerge appends to dst the keys of src re-keyed from their node to
// the node's parent (the node >> shift), in ascending order. src must
// ascend, so each parent's group is its children's runs in child order,
// each in message-index order. A group of one or two runs, as every group
// of a binary tree is, takes one linear merge that stores the smaller index
// and advances each cursor by the compare's 0 or 1. A group of more, whose
// runs are often a flight or two each, is re-keyed and sorted, cheaper than
// lg d merge passes. dst is grown once; slices.Sort does not allocate.
//
//ftlint:hotpath
func siblingMerge(dst, src []uint64, shift uint) []uint64 {
	o := len(dst)
	dst = grow(dst, o+len(src))
	for i := 0; i < len(src); {
		parent := src[i] >> 32 >> shift
		j := runEnd(src, i)
		k := j // src[i:j] is the first child's run, src[j:k] the next one's
		if k < len(src) && src[k]>>32>>shift == parent {
			k = runEnd(src, k)
		}
		if k < len(src) && src[k]>>32>>shift == parent { // a third run
			from := o
			for ; i < len(src) && src[i]>>32>>shift == parent; i++ {
				dst[o] = parent<<32 | src[i]&keyIndex
				o++
			}
			slices.Sort(dst[from:o])
			continue
		}
		parent <<= 32
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
// and the lone pass append them, so a sort stable by node gives that order.
// Lists shorter than radixMin go to slices.Sort; sorted lists, such as a
// dense permutation's, return after one check; the rest take an LSD radix
// sort over the leafBits bits under a leaf id's leading 1, skipping a pass
// whose digit every key shares.
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
	passes := (st.leafBits + radixDigit - 1) / radixDigit
	width := (st.leafBits + passes - 1) / passes
	mask := uint64(1)<<width - 1
	if len(st.radixCount) < 1<<width {
		st.radixCount = make([]int, 1<<width)
	}
	count := st.radixCount[:1<<width]
	if cap(st.radixBuf) < len(keys) {
		st.radixBuf = make([]uint64, len(keys), len(keys)+len(keys)/2)
	}
	src, dst := keys, st.radixBuf[:len(keys)]
	for shift := 32; shift < 32+st.leafBits; shift += width {
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

// runCycle is one delivery cycle: sorted injection, the upward and downward
// sweeps over the carried key lists, and collect. The observer hooks read
// pending for the cycle's duration.
//
//ftlint:hotpath
func (e *Engine) runCycle(pending core.MessageSet) ([]bool, CycleResult) {
	st := e.stream
	e.scr.pending = pending
	flights, res := e.injectStream(pending)
	if e.obs != nil {
		e.observeInject(pending, flights)
	}
	st.sparse = loneSparsity*len(pending) < st.n
	if st.loneGate != 0 {
		st.sparse = st.loneGate > 0
	}
	st.sparse = st.sparse && !st.perChild // lone hops size child ports by the first child
	if st.sparse {
		st.lonePass()
	}
	st.turns = st.turns[:0]
	st.carryUp(st.levels-1, st.up, st.turn)
	for level := st.levels - 1; level >= 0; level-- {
		st.fuseUp(level)
	}
	for level := 0; level < st.levels; level++ {
		// The descenders carried from the step above and the level's turn
		// list merge into the down step's request list.
		st.keys = mergeKeys(st.keys[:0], st.desc, st.turns[st.turnOff[level+1]:st.turnOff[level]])
		st.fuseDown(level)
	}
	res.Dropped, st.drops = st.drops, 0
	delivered := e.collect(pending, flights, &res)
	if e.obs != nil {
		e.obs.CycleEnd(res.Delivered, res.Dropped, res.Deferred)
	}
	e.scr.pending = nil
	return delivered, res
}

// injectStream starts a delivery cycle without per-processor counters.
// External inputs are admitted onto the root down channel in message order
// and become the first down step's descenders. Internal sources are sorted
// by (leaf, index) (sortByNode), so "the first capAt(leaf) win, the rest
// defer" is admission in message order; the winners are left in st.up and
// st.turn, keyed by their leaf, for the lone pass and the first carryUp.
//
//ftlint:hotpath
func (e *Engine) injectStream(pending core.MessageSet) ([]flight, CycleResult) {
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
				flights[i] = flight{state: flightLost}
				res.Deferred++
				continue
			}
			flights[i] = flight{
				state: flightDown, node: 1, wire: rootInjected,
				dstLeaf: st.leaf(m.Dst),
			}
			desc = append(desc, 1<<32|uint64(uint32(i)))
			rootInjected++
			continue
		}
		keys = append(keys, uint64(st.leaf(m.Src))<<32|uint64(uint32(i)))
	}
	st.desc = desc
	st.sortByNode(keys)

	up, turn := st.up[:0], st.turn[:0]
	pshift := st.lv[st.levels].digit // a leaf's parent is leaf>>pshift
	leaf, capLeaf, rank := -1, 0, 0
	for _, k := range keys {
		v := int(k >> 32)
		i := int(uint32(k))
		if v != leaf {
			leaf, rank = v, 0
			capLeaf = st.capAt(v)
		}
		if rank >= capLeaf {
			flights[i] = flight{state: flightLost}
			res.Deferred++
			rank++
			continue
		}
		lca, dstLeaf := 0, 0 // sentinel: exits through the root interface
		if dst := pending[i].Dst; dst != core.External {
			dstLeaf = st.leaf(dst)
			lca = v >> st.lcaShift[bits.Len(uint(v^dstLeaf))]
		}
		flights[i] = flight{state: flightUp, node: v, wire: rank, lca: lca, dstLeaf: dstLeaf}
		if lca == v>>pshift {
			turn = append(turn, k)
		} else {
			up = append(up, k)
		}
		rank++
	}
	st.keys, st.up, st.turn = keys, up, turn
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
	shift := st.lv[level+1].digit
	st.keys = siblingMerge(st.keys[:0], ku, shift)
	if st.sparse {
		kt = st.arrive(turn, &st.arrTurn[level])
	}
	st.turns = siblingMerge(st.turns, kt, shift)
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

// fuseUp is the up step at level: one pass over the request list routes
// every flight of each node run and sorts the winners into the flights that
// keep climbing and the flights that turn at the parent, which carryUp then
// hands to the level above. On ideal lossless switches with uniform sibling
// widths a flight gets its switch's parent-port rule inline: pass-through
// when the up channel is at least as wide as its d children (a child's wire
// offset by its digit times the first child's width), else rank j wins wire
// j; a right child wider than the left panics. Otherwise the run is routed
// first (routeRun) and each flight takes the output wire left in f.wire,
// lost when negative. A winner claims its guard bit and takes its new node,
// and is sorted as a climber, a turner, or a lone turner whose descent
// waits until the run is released and observed: a positional ideal run
// clears its winners' words, any other walks them (releaseRun).
//
// The sort writes each key to both up and turn and advances their cursors
// by the climb bit (LCA above the parent): only a root external output and
// a lone turner take a branch.
//
//ftlint:hotpath
func (st *streamState) fuseUp(level int) {
	keys := st.keys
	flights := st.e.scr.flights
	up, turn := grow(st.up[:0], len(keys)), grow(st.turn[:0], len(keys))
	lone := st.lone[:0]
	nu, nt := 0, 0
	sparse, sdown := st.sparse, st.sdown
	routed := st.routed()
	parentLv, childLv := &st.lv[level], &st.lv[level+1]
	arity, pshift, cbits := parentLv.arity, parentLv.digit, childLv.digit
	cmask := 1<<cbits - 1
	capParent, capChild := parentLv.cap, childLv.cap
	st.upUsed.fit(capParent)
	for p := 0; p < len(keys); {
		start, v := p, keys[p]>>32
		if st.ov != nil {
			capParent, capChild = st.capAt(int(v)), st.capAt(int(v<<cbits))
			st.upUsed.fit(capParent)
		}
		widest := capChild // a later child's widest input wire
		if routed {
			st.routeRun(int(v), keys[start:runEnd(keys, start)], 0, true)
			widest = math.MaxInt // f.wire is the run's output wire
		}
		pass := capParent >= arity*capChild && !routed
		off := capChild * b2i(pass) // the wire offset per child digit
		root, parent := v == 1, int(v>>pshift)
		lone = lone[:0]
		won := 0
		for ; p < len(keys) && keys[p]>>32 == v; p++ {
			k := keys[p]
			i := int(uint32(k))
			f := &flights[i]
			w, c := f.wire, f.node&cmask
			if w >= widest && c != 0 {
				panic(errUpWidened)
			}
			w += c * off
			if !pass {
				if !routed {
					w = p - start
				}
				if uint(w) >= uint(capParent) { // a rank past the channel, or -1
					f.state = flightLost
					continue
				}
			}
			st.upUsed.claim(w, capParent, errUpGuard)
			f.wire, f.node = w, int(v)
			won++
			if root && f.dstLeaf == 0 {
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
		if pass || routed {
			st.releaseRun(flights, run, true, cmask)
		} else {
			clear(st.upUsed[:(won+63)>>6])
		}
		st.drops += len(run) - won
		if st.e.obs != nil {
			st.e.observeStreamRun(int(v), run, true, won, nil, 0, st.rounds, st.faults)
		}
		for _, k := range lone {
			st.loneDescend(int(uint32(k)), level-1)
		}
	}
	st.lone = lone
	if level > 0 {
		st.carryUp(level-1, up[:nu], turn[:nt])
	}
}

// fuseDown is the down step at level: one pass over the request list routes
// every flight of each node run and carries the winners down in desc,
// placed child by child. On ideal lossless switches with uniform sibling
// widths every down port is Ideal and sized by the first child: the rank-j
// request for a port wins wire j below that width and loses from there on,
// and a turner on a wider child-side wire panics. Otherwise the run is
// routed first and takes its wires from routeRun, as in fuseUp. Each claim
// is checked against the child's own capacity. A positional ideal run
// clears the words each child's winners used, any other walks its winners;
// lone descenders wait, as in fuseUp.
//
// The first child's carried winners go straight to desc without a jump:
// desc and the held scratch (the up list, idle in the down sweep) are sized
// to the request list, each carried winner's key is written to both, and
// desc's cursor advances when its digit is 0, held's otherwise. After the
// run is observed and released, held is copied after the first child's
// winners when at most one later child had requests, as always on a binary
// tree, and otherwise placeLater scatters it child by child.
//
//ftlint:hotpath
func (st *streamState) fuseDown(level int) {
	keys := st.keys
	flights := st.e.scr.flights
	desc, held := grow(st.desc[:0], len(keys)), grow(st.up[:0], len(keys))
	lone := st.lone[:0]
	nd := 0
	sparse, sdown := st.sparse, st.sdown
	routed := st.routed()
	childLv := &st.lv[level+1]
	arity := st.lv[level].arity
	ports := st.down[:arity]
	cbits, below := childLv.digit, childLv.below
	cmask := 1<<cbits - 1
	capPort := childLv.cap
	for d := range ports {
		ports[d].used.fit(capPort)
	}
	final := level+1 == st.levels // the last step delivers every winner
	for p := 0; p < len(keys); {
		start, v := p, keys[p]>>32
		first := int(v << cbits)
		if st.ov != nil {
			capPort = st.capAt(first)
			for d := range ports {
				ports[d].used.fit(st.capAt(first | d))
			}
		}
		limit := capPort
		if routed {
			// f.wire becomes the run's output wire, which fits its port, or
			// -1: only the loss test below applies.
			st.routeRun(int(v), keys[start:runEnd(keys, start)], below, false)
			limit = math.MaxInt
		}
		lone = lone[:0]
		nh, drops := 0, 0
		for ; p < len(keys) && keys[p]>>32 == v; p++ {
			k := keys[p]
			i := int(uint32(k))
			f := &flights[i]
			if f.wire >= limit && f.state == flightUp {
				panic(errDownWidened)
			}
			child := f.dstLeaf >> below
			d := child & cmask
			pt := &ports[d]
			j := pt.rank
			pt.rank++
			if routed {
				j = f.wire
			}
			if uint(j) >= uint(limit) { // a rank past the port, or -1
				pt.lost++
				drops++
				f.state = flightLost
				continue
			}
			width := capPort // the child's own capacity
			if st.ov != nil {
				width = st.capAt(child)
			}
			pt.used.claim(j, width, errDownGuard)
			f.wire, f.node = j, child
			if final {
				f.state = flightDone
				continue
			}
			f.state = flightDown
			if sparse && level+1 > int(sdown[i]) {
				lone = append(lone, k)
				continue
			}
			k = uint64(child)<<32 | k&keyIndex
			side := b2i(d != 0) // 0 for the first child, 1 for a later one
			desc[nd], held[nh] = k, k
			nd += 1 - side
			nh += side
		}
		run := keys[start:p]
		st.drops += drops
		if st.e.obs != nil {
			st.e.observeStreamRun(int(v), run, false, len(run)-drops, ports, first, st.rounds, st.faults)
		}
		if routed {
			st.releaseRun(flights, run, false, cmask)
		}
		spread := -b2i(ports[0].rank > 0) // the later children with requests
		for d := range ports {
			pt := &ports[d]
			if !routed {
				clear(pt.used[:(pt.rank-pt.lost+63)>>6])
			}
			spread += b2i(pt.rank > 0)
			pt.rank, pt.lost = 0, 0
		}
		if spread > 1 {
			nd = st.placeLater(desc, nd, held[:nh], cmask)
		} else {
			nd += copy(desc[nd:], held[:nh])
		}
		for _, k := range lone {
			st.loneDescend(int(uint32(k)), level+1)
		}
	}
	st.lone = lone
	st.desc, st.up = desc[:nd], held[:0]
}

// placeLater appends to desc from nd on held, the carried winners of a down
// run's later children in message-index order, child by child (a key's
// digit is its node & cmask): a counting sort on the digit, stable, so each
// child's winners keep message-index order. It returns the end of what it
// placed and leaves offs zero.
//
//ftlint:hotpath
func (st *streamState) placeLater(desc []uint64, nd int, held []uint64, cmask int) int {
	offs := st.offs
	for _, k := range held {
		offs[int(k>>32)&cmask]++
	}
	for d := range offs {
		offs[d], nd = nd, nd+offs[d]
	}
	for _, k := range held {
		d := int(k>>32) & cmask
		desc[offs[d]] = k
		offs[d]++
	}
	clear(offs)
	return nd
}

// routed reports whether node runs and lone hops take their wires from
// routeRun: materialized switches for partial concentrators or injected
// loss, childRun on a per-child engine (which takes no lone hops). Ideal
// lossless switches of uniform sibling widths are stateless and
// positional, so the fused loops and the lone hops compute their wires
// inline.
//
//ftlint:hotpath
func (st *streamState) routed() bool {
	return st.kind != concentrator.KindIdeal || st.lossOn || st.perChild
}

// routeRun leaves in each flight of node v's run the output wire it wins,
// -1 when lost: from childRun on a per-child engine, else from v's switch
// (switchRoute). Climbing or turning at its LCA, a flight requests from its
// wire on its child's channel; descending, from its parent-side down wire.
// A down request asks for the port on its destination's side, the digit at
// shift; switches are built only on binary trees.
//
//ftlint:hotpath
func (st *streamState) routeRun(v int, run []uint64, shift uint, upSweep bool) {
	if st.perChild {
		st.childRun(v, run, shift, upSweep)
		return
	}
	flights := st.e.scr.flights
	reqs := st.reqs[:0]
	for _, k := range run {
		f := &flights[int(uint32(k))]
		in, out := concentrator.Parent, concentrator.Parent
		if upSweep || f.state == flightUp {
			in = concentrator.Left + concentrator.Port(f.node&1)
		}
		if !upSweep {
			out = concentrator.Left + concentrator.Port(f.dstLeaf>>shift&1)
		}
		reqs = append(reqs, concentrator.Request{In: in, InWire: f.wire, Out: out})
	}
	for j, w := range st.switchRoute(v, reqs) {
		flights[int(uint32(run[j]))].wire = w
	}
}

// childRun is routeRun on a non-binary tree with capacity overrides, whose
// sibling channels may differ in width: node v's ideal concentrators size
// each child port by its own child. Going up, a parent channel at least as
// wide as its children's together passes each request through, offset by
// the widths of the children before its own, and a narrower one grants
// wires 0, 1, 2, ... in request order; going down, each child's channel
// grants wires 0, 1, 2, ... to its first cap(child) requesters.
func (st *streamState) childRun(v int, run []uint64, shift uint, upSweep bool) {
	flights, offs := st.e.scr.flights, st.offs
	k := st.depth[bits.Len(uint(v))]
	cbits := st.lv[k+1].digit
	cmask := 1<<cbits - 1
	defer clear(offs)
	if !upSweep {
		for _, key := range run {
			f := &flights[int(uint32(key))]
			child := f.dstLeaf >> shift
			n := &offs[child&cmask] // child's requests so far
			f.wire = -1
			if *n < st.capAt(child) {
				f.wire = *n
			}
			*n++
		}
		return
	}
	capParent, sum := st.capAt(v), 0
	for c := range offs[:st.lv[k].arity] {
		offs[c], sum = sum, sum+st.capAt(v<<cbits|c)
	}
	for j, key := range run {
		f := &flights[int(uint32(key))]
		switch {
		case capParent >= sum:
			f.wire += offs[f.node&cmask]
		case j < capParent:
			f.wire = j
		default:
			f.wire = -1
		}
	}
}

// switchRoute contests node v with reqs on its switch, built on the node's
// first contest (switchFor), and returns the output wire the switch gives
// each request, -1 when lost; the slice is the switch's scratch, valid until
// its next Route. reqs is kept as the request scratch. With an observer
// attached the switch's counter deltas since its last observed contest are
// left in st.rounds and st.faults.
//
//ftlint:hotpath
func (st *streamState) switchRoute(v int, reqs []concentrator.Request) []int {
	st.reqs = reqs
	ss := st.switchFor(v)
	wires, _ := ss.sw.Route(reqs)
	if st.e.obs != nil {
		r, fd := ss.sw.MatchingRounds(), ss.sw.FaultDrops()
		st.rounds, st.faults = r-ss.lastRounds, fd-ss.lastFaults
		ss.lastRounds, ss.lastFaults = r, fd
	}
	return wires
}

// The widened-child panics of a binary tree, whose switch sizes both child
// ports by the left child. A materialized concentrator rejects an input
// wire beyond its width, and the ideal rules of fuseUp, fuseDown and the
// lone hops keep that check: an up request from a right child whose
// override widens it past the left, or a turning request on a child wider
// than the down port. Other arities size each port by its own child
// (childRun) and never reach them.
const (
	errUpWidened   = "sim: up request wire exceeds switch input width (widened right-child override)"
	errDownWidened = "sim: down request wire exceeds switch input width (widened child override)"
)

// lonePass starts a sparse cycle: it finds how far each admitted flight is
// alone and routes those hops at once, one flight at a time. A flight is
// alone in the up contests above both its LCA and the deepest level whose
// subtree holds another cycle source (its neighbours in the sorted
// injection keys tell which), and in the down contests above sdown[i],
// found the same way from a radix sort of the admitted destinations. A lone
// climber that meets another flight joins that level's carried lists
// through arrUp or arrTurn; a turner alone below its LCA descends to its
// leaf. Sources deferred at their leaf and flights dropped later count as
// neighbours, so detection errs towards the carried lists, whose outcome
// for a one-request run is the same.
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
			s := max(st.shareLevel(keys, p), int(st.depth[bits.Len(uint(flights[i].lca))]))
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
	s, leaf, top := -1, keys[p]>>32, st.leafBits+1
	if p > 0 {
		s = int(st.depth[top-bits.Len64(leaf^keys[p-1]>>32)])
	}
	if p+1 < len(keys) {
		s = max(s, int(st.depth[top-bits.Len64(leaf^keys[p+1]>>32)]))
	}
	return s
}

// loneClimb routes flight i from its leaf up through the levels below s
// alone, one hop per ancestor, then hands it to level s: as an arrival
// there, or, when it turns at level s and is alone below, straight down to
// its leaf.
//
// On ideal lossless switches a hop takes fuseUp's rule for a one-request
// run, by arithmetic: the wire plus its child's offset, times the
// pass-through bit, after the widened-child check. Every capacity is at
// least 1 (core.New and SetChannelCapacity reject less), so a lone ideal
// hop always wins. On partial or lossy switches a hop is one request to the
// node's switch, and the climb stops when the switch loses it. Each hop
// checks its wire against the channel and its guard bit (has: a run leaves
// none set), and an observer records it as a one-request run.
//
//ftlint:hotpath
func (st *streamState) loneClimb(i, s int) {
	f := &st.e.scr.flights[i]
	routed := st.routed()
	node, wire := f.node, f.wire
	out := f.dstLeaf == 0 // leaves through the root's external interface
	lv := st.lv
	for l := st.levels - 1; l > s; l-- {
		cbits := lv[l+1].digit
		v, c := node>>cbits, node&(1<<cbits-1)
		capParent, capChild := lv[l].cap, lv[l+1].cap
		if st.ov != nil {
			capParent, capChild = st.capAt(v), st.capAt(v<<cbits)
		}
		if routed {
			in := concentrator.Left + concentrator.Port(c)
			if wire = st.switchHop(i, v, in, wire, concentrator.Parent); wire < 0 {
				return
			}
		} else {
			if wire >= capChild && c != 0 {
				panic(errUpWidened)
			}
			wire = (wire + c*capChild) * b2i(capParent >= lv[l].arity*capChild)
		}
		if wire >= capParent || st.upUsed.has(wire) {
			panic(errUpGuard)
		}
		node = v
		if st.e.obs != nil {
			st.e.observeHop(i, v, v, int(core.Up), wire, v == 1 && out, st.rounds, st.faults)
		}
	}
	f.node, f.wire = node, wire
	if node == 1 && out {
		// The root up channel is the external interface: delivered.
		f.state = flightDone
		return
	}
	key := uint64(node)<<32 | uint64(uint32(i))
	switch {
	case f.lca != node>>lv[s+1].digit:
		st.arrUp[s] = append(st.arrUp[s], key)
	case s > int(st.sdown[i]):
		st.loneDescend(i, s)
	default:
		st.arrTurn[s] = append(st.arrTurn[s], key)
	}
}

// loneDescend routes flight i down alone from level d, its next down
// contest, to its leaf. On ideal lossless switches a lone request is rank 0
// at its down port, so by fuseDown's rule each hop wins wire 0, checked
// against the port width (a turner's first hop). On partial or lossy
// switches a hop is one request to the node's switch — from the turner's
// child side on the first hop, from the parent side after — and the descent
// stops when the switch loses it. Each hop checks its wire against the
// child's own capacity and its guard bit, as loneClimb does.
//
//ftlint:hotpath
func (st *streamState) loneDescend(i, d int) {
	f := &st.e.scr.flights[i]
	routed := st.routed()
	levels := st.levels
	dst, wire := f.dstLeaf, f.wire
	turning := f.state == flightUp
	lv, down := st.lv, st.down
	for l := d; l < levels; l++ {
		cl := &lv[l+1]
		cbits := cl.digit
		cmask := 1<<cbits - 1
		child := dst >> cl.below
		capPort, capChild := cl.cap, cl.cap
		if st.ov != nil {
			// A switch sizes every down port by its first child.
			capPort, capChild = st.capAt(child&^cmask), st.capAt(child)
		}
		if routed {
			in := concentrator.Parent
			if turning {
				in = concentrator.Left + concentrator.Port(f.node&cmask)
			}
			out := concentrator.Left + concentrator.Port(child&cmask)
			if wire = st.switchHop(i, child>>cbits, in, wire, out); wire < 0 {
				return
			}
		} else {
			if turning && wire >= capPort {
				panic(errDownWidened)
			}
			wire = 0
		}
		turning = false
		if wire >= capChild || down[child&cmask].used.has(wire) {
			panic(errDownGuard)
		}
		if st.e.obs != nil {
			st.e.observeHop(i, child>>cbits, child, int(core.Down), wire, l+1 == levels, st.rounds, st.faults)
		}
	}
	f.node, f.wire, f.state = dst, wire, flightDone
}

// switchHop routes flight i's lone hop through node v's switch as one
// request, in on port in's wire and out on port out, and returns the wire
// it wins. When the switch loses it the flight is dropped, the hop is
// recorded as a one-request run with one drop, and the wire is -1.
func (st *streamState) switchHop(i, v int, in concentrator.Port, wire int, out concentrator.Port) int {
	e := st.e
	w := st.switchRoute(v, append(st.reqs[:0], concentrator.Request{In: in, InWire: wire, Out: out}))[0]
	if w < 0 {
		e.scr.flights[i].state = flightLost
		st.drops++
		if o := e.obs; o != nil {
			o.SwitchDelta(st.nodeID(v), 1, 1, st.rounds, st.faults)
			o.Block(i, e.scr.pending[i], st.nodeID(v))
		}
	}
	return w
}
