package sched

import (
	"math"
	"math/bits"
	"slices"

	"fattree/internal/core"
	"fattree/internal/obsv"
)

// Scheduler is a reusable, allocation-free Theorem 1 scheduler bound to one
// fat-tree. It owns a scratch arena — flat grouping tables, two ping-pong
// message slabs, per-node bisection working sets, and a transient load
// tally — that is recycled across calls, so a warmed Scheduler runs
// OffLine/OffLineCompact at zero steady-state allocations per call.
//
// The ownership rules mirror the Engine arena contract (DESIGN.md §7/§9):
//
//   - The *Schedule returned by any method, including its Cycles and every
//     MessageSet inside them, is a loan from the scheduler's arena. It is
//     valid until the next call on the same Scheduler; use Schedule.Clone to
//     keep one alive longer.
//   - A Scheduler is not safe for concurrent use: calls on one Scheduler
//     must be serialized by the caller.
//   - Reuse is invisible: a reused Scheduler produces bit-identical schedules
//     to a fresh one.
//
// The package-level OffLine/OffLineCompact/... functions construct a fresh
// Scheduler per call, so their results are independently owned — existing
// one-shot callers keep value semantics.
type Scheduler struct {
	tree *core.FatTree
	n    int         // processors
	caps []int       // caps[v] = capacity of both channels above node v
	lam  *core.Loads // persistent load table, cleared per call, for λ(M)

	// Grouping tables, indexed by internal heap node id (1..n-1). The counts
	// are rebuilt per call; during the fill pass the offset tables serve as
	// running cursors and end up pointing at each segment's end.
	lrCnt, rlCnt []int32
	lrOff, rlOff []int32

	// groupA holds the grouped messages: external outputs, external inputs,
	// then for each internal node in ascending id order its left-to-right and
	// right-to-left crossing segments. groupB is the bisection ping-pong twin:
	// each bisection round writes the other slab at the same offsets, so a
	// partition is just a boundary list into whichever slab holds round parity.
	groupA, groupB []core.Message
	// cycleBuf backs the assembled delivery cycles; cycles holds their
	// headers. Both are truncated and refilled per call.
	cycleBuf []core.Message
	cycles   []core.MessageSet

	// chkLoad is the transient per-channel tally used by the one-cycle check,
	// indexed 2·node+dir. It is zero between checks (add, inspect, roll back).
	chkLoad []int32

	// bndSlab is carved into per-node boundary ping-pong lists each level.
	// bis is the matching-and-tracing scratch (string-end partner tables,
	// strand sides, and the composite processor<<32|index sort keys of the
	// hierarchical matching), sized to the whole message set and reused by
	// each node in turn.
	bndSlab []int32
	bis     bisector

	// nodes lists the non-empty nodes of the level being scheduled.
	nodes []nodeState

	out Schedule // loaned result of the last scheduling call

	// Compact state: per-output-cycle load tables and reusable cycle buffers.
	cmpLoads  [][]int32
	cmpCycles []core.MessageSet
	cmpUsed   int
	cmpPath   []core.Channel
	cmpOut    Schedule // loaned result of the last Compact call
}

// bisector is the matching-and-tracing scratch of a bisection: the
// scheduler's reused one, or one allocated per call by the exported
// EvenBisect.
type bisector struct {
	partner []int32 // partner[e] = end matched with e, or -1
	side    []int8  // side[m] = 0 (first half), 1 (second half), -1 unassigned
	keys    []int64 // composite sort keys: processor<<32 | message index
}

// nodeState is the per-node unit of a level's work: the node's two
// oriented crossing segments in groupA, its boundary ping-pong lists, and the
// resulting partition boundaries.
type nodeState struct {
	v              int
	lrOff, lrLen   int
	rlOff, rlLen   int
	lrBndA, lrBndB []int32
	rlBndA, rlBndB []int32
	lrBnd, rlBnd   []int32 // final boundaries (parts+1 entries; nil if empty)
	lrFlip, rlFlip bool    // true if the final parts live in groupB
}

// NewScheduler returns a reusable Theorem 1 scheduler for t. The capacity
// table is snapshotted here; SetChannelCapacity calls made after construction
// are not observed.
func NewScheduler(t *core.FatTree) *Scheduler {
	if !core.HeapIndexed(t) {
		panic("sched: the Theorem 1 scheduler requires a heap-indexed binary fat-tree; use Greedy for k-ary topologies")
	}
	n := t.Processors()
	sc := &Scheduler{
		tree:    t,
		n:       n,
		caps:    core.CapTableOf(t),
		lam:     core.NewLoads(t, nil),
		lrCnt:   make([]int32, n),
		rlCnt:   make([]int32, n),
		lrOff:   make([]int32, n),
		rlOff:   make([]int32, n),
		chkLoad: make([]int32, 4*n),
	}
	return sc
}

// Tree returns the fat-tree the scheduler is bound to.
func (sc *Scheduler) Tree() *core.FatTree { return sc.tree }

// OffLine schedules ms with the Theorem 1 algorithm. The returned schedule is
// a loan from the scheduler's arena, valid until the next call.
//
//ftlint:loan
func (sc *Scheduler) OffLine(ms core.MessageSet) *Schedule {
	return sc.schedule(ms, nil)
}

// OffLineObserved is OffLine with the observability layer attached; the
// schedule produced is identical to OffLine's.
//
//ftlint:loan
func (sc *Scheduler) OffLineObserved(ms core.MessageSet, o *obsv.Observer) *Schedule {
	return sc.schedule(ms, o)
}

// schedule is the shared implementation: validate, group by LCA, partition
// the external block and then every level, and assemble delivery cycles. o
// may be nil.
//
//ftlint:loan
//ftlint:hotpath
func (sc *Scheduler) schedule(ms core.MessageSet, o *obsv.Observer) *Schedule {
	t := sc.tree
	//ftlint:ignore hotalloc Validate allocates only on its error path, which feeds the panic below; the happy path is allocation-free.
	if err := ms.Validate(t); err != nil {
		panic(err)
	}
	sc.grow(len(ms))

	// λ(M) on the persistent load table.
	sc.lam.Clear()
	for _, m := range ms {
		sc.lam.Add(m)
	}
	lambda, _ := sc.lam.MaxFactor()

	eo, ei := sc.group(ms)
	sc.cycles = sc.cycles[:0]
	cycleCur := 0

	// External traffic crosses the root interface and shares channels with
	// every level, so it gets its own leading block of cycles: the i-th
	// output part is routed with the i-th input part (outputs use only up
	// channels, inputs only down channels).
	if eo+ei > 0 {
		bOff := 0
		outA := sc.bndSlab[bOff : bOff+2*eo+2]
		bOff += 2*eo + 2
		outB := sc.bndSlab[bOff : bOff+2*eo+2]
		bOff += 2*eo + 2
		inA := sc.bndSlab[bOff : bOff+2*ei+2]
		bOff += 2*ei + 2
		inB := sc.bndSlab[bOff : bOff+2*ei+2]
		outBnd, outFlip := sc.partition(0, 0, eo, &sc.bis, outA, outB, true, true)
		inBnd, inFlip := sc.partition(0, eo, ei, &sc.bis, inA, inB, true, false)
		maxParts := parts(outBnd)
		if p := parts(inBnd); p > maxParts {
			maxParts = p
		}
		added := 0
		for i := 0; i < maxParts; i++ {
			start := cycleCur
			cycleCur = sc.copyPart(outBnd, outFlip, i, cycleCur)
			cycleCur = sc.copyPart(inBnd, inFlip, i, cycleCur)
			if cycleCur > start {
				sc.cycles = append(sc.cycles, sc.cycleBuf[start:cycleCur:cycleCur])
				added++
			}
		}
		if o != nil {
			o.SchedLevel(t.Levels()+1, added, eo+ei)
		}
	}

	// Per level, every node's crossing sets are partitioned independently;
	// the i-th parts of all nodes at the level are
	// unioned into one delivery cycle. Different subtrees use disjoint
	// channels, and the lr/rl sets of one node also use disjoint channels,
	// so the union stays one-cycle.
	for level := 0; level < t.Levels(); level++ {
		first := 1 << uint(level)
		sc.nodes = sc.nodes[:0]
		bOff := 0
		levelMessages := 0
		for v := first; v < 2*first; v++ {
			klr, krl := int(sc.lrCnt[v]), int(sc.rlCnt[v])
			if klr+krl == 0 {
				continue
			}
			levelMessages += klr + krl
			ns := nodeState{
				v:     v,
				lrOff: int(sc.lrOff[v]) - klr, lrLen: klr,
				rlOff: int(sc.rlOff[v]) - krl, rlLen: krl,
			}
			ns.lrBndA = sc.bndSlab[bOff : bOff+2*klr+2]
			bOff += 2*klr + 2
			ns.lrBndB = sc.bndSlab[bOff : bOff+2*klr+2]
			bOff += 2*klr + 2
			ns.rlBndA = sc.bndSlab[bOff : bOff+2*krl+2]
			bOff += 2*krl + 2
			ns.rlBndB = sc.bndSlab[bOff : bOff+2*krl+2]
			bOff += 2*krl + 2
			sc.nodes = append(sc.nodes, ns)
		}
		if len(sc.nodes) == 0 {
			continue
		}
		for i := range sc.nodes {
			sc.runNode(&sc.nodes[i])
		}

		maxParts := 0
		for i := range sc.nodes {
			ns := &sc.nodes[i]
			if p := parts(ns.lrBnd); p > maxParts {
				maxParts = p
			}
			if p := parts(ns.rlBnd); p > maxParts {
				maxParts = p
			}
		}
		added := 0
		for i := 0; i < maxParts; i++ {
			start := cycleCur
			for j := range sc.nodes {
				ns := &sc.nodes[j]
				cycleCur = sc.copyPart(ns.lrBnd, ns.lrFlip, i, cycleCur)
				cycleCur = sc.copyPart(ns.rlBnd, ns.rlFlip, i, cycleCur)
			}
			if cycleCur > start {
				sc.cycles = append(sc.cycles, sc.cycleBuf[start:cycleCur:cycleCur])
				added++
			}
		}
		if o != nil && levelMessages > 0 {
			o.SchedLevel(level, added, levelMessages)
		}
	}

	sc.out = Schedule{
		Tree:       t,
		LoadFactor: lambda,
		Bound:      2 * (math.Ceil(lambda) + 1) * float64(t.Levels()),
	}
	if len(sc.cycles) > 0 {
		sc.out.Cycles = sc.cycles
	}
	return &sc.out
}

// grow sizes the message-proportional slabs for a call on m messages. Slabs
// only ever grow (to the high-water message count), never shrink and never
// move while a call is in flight, so carved regions stay valid.
func (sc *Scheduler) grow(m int) {
	sc.groupA = growSlab(sc.groupA, m)
	sc.groupB = growSlab(sc.groupB, m)
	sc.cycleBuf = growSlab(sc.cycleBuf, m)
	sc.bis.keys = growSlab(sc.bis.keys, m)
	sc.bis.side = growSlab(sc.bis.side, m)
	sc.bis.partner = growSlab(sc.bis.partner, 2*m)
	// Per level: every node needs two boundary ping-pong lists per oriented
	// segment (2k+2 entries each, since k messages split into at most 2k
	// parts), totalling 4·(messages at the level) + 8·(nodes at the level).
	sc.bndSlab = growSlab(sc.bndSlab, 4*m+8*sc.n+16)
}

// growSlab returns s with length n, reallocating only when capacity is
// insufficient. Contents are unspecified after growth.
func growSlab[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// group buckets ms into groupA — external outputs, external inputs, then per
// internal node (ascending heap id) the left-to-right and right-to-left
// crossing segments — preserving ms order within each segment, exactly like
// groupByLCA. It returns the external output and input counts.
//
//ftlint:hotpath
func (sc *Scheduler) group(ms core.MessageSet) (eo, ei int) {
	n := sc.n
	clear(sc.lrCnt)
	clear(sc.rlCnt)
	for _, m := range ms {
		if m.IsExternal() {
			if m.Dst == core.External {
				eo++
			} else {
				ei++
			}
			continue
		}
		a, b := n+m.Src, n+m.Dst
		shift := uint(bits.Len(uint(a ^ b)))
		v := a >> shift
		if (a>>(shift-1))&1 == 0 {
			sc.lrCnt[v]++
		} else {
			sc.rlCnt[v]++
		}
	}
	pos := int32(eo + ei)
	for v := 1; v < n; v++ {
		sc.lrOff[v] = pos
		pos += sc.lrCnt[v]
		sc.rlOff[v] = pos
		pos += sc.rlCnt[v]
	}
	co, ci := int32(0), int32(eo)
	for _, m := range ms {
		if m.IsExternal() {
			if m.Dst == core.External {
				sc.groupA[co] = m
				co++
			} else {
				sc.groupA[ci] = m
				ci++
			}
			continue
		}
		a, b := n+m.Src, n+m.Dst
		shift := uint(bits.Len(uint(a ^ b)))
		v := a >> shift
		if (a>>(shift-1))&1 == 0 {
			sc.groupA[sc.lrOff[v]] = m
			sc.lrOff[v]++
		} else {
			sc.groupA[sc.rlOff[v]] = m
			sc.rlOff[v]++
		}
	}
	return eo, ei
}

// runNode partitions one node's two oriented crossing segments. Besides the
// shared bisection scratch it touches only the node's groupA/B segments, its
// boundary lists, and the chkLoad entries inside its subtree.
//
//ftlint:hotpath
func (sc *Scheduler) runNode(ns *nodeState) {
	ns.lrBnd, ns.lrFlip = sc.partition(ns.v, ns.lrOff, ns.lrLen, &sc.bis, ns.lrBndA, ns.lrBndB, false, false)
	ns.rlBnd, ns.rlFlip = sc.partition(ns.v, ns.rlOff, ns.rlLen, &sc.bis, ns.rlBndA, ns.rlBndB, false, false)
}

// partition iteratively bisects the segment [off, off+k) of groupA until
// every part is a one-cycle message set, exactly mirroring the classic
// partitionWith loop: each round bisects *every* part (so parts = 2^rounds
// and part indices stay aligned across nodes), writing halves into the other
// ping-pong slab at the same offsets. It returns the part boundaries
// (parts+1 ascending offsets; nil when k == 0) and whether the final parts
// live in groupB. Since a part's maximum channel load ceil-halves each round,
// rounds <= ceil(lg k) and parts <= 2k, which bounds the boundary regions.
//
//ftlint:hotpath
func (sc *Scheduler) partition(v, off, k int, bi *bisector, bndA, bndB []int32, external, outbound bool) ([]int32, bool) {
	if k == 0 {
		return nil, false
	}
	src, dst := sc.groupA, sc.groupB
	cur, nxt := bndA, bndB
	cur[0], cur[1] = int32(off), int32(off+k)
	curLen := 2
	flip := false
	for {
		allFit := true
		for j := 0; j+1 < curLen; j++ {
			if !sc.partFits(src[cur[j]:cur[j+1]]) {
				allFit = false
				break
			}
		}
		if allFit {
			return cur[:curLen], flip
		}
		w := 0
		for j := 0; j+1 < curLen; j++ {
			a, b := cur[j], cur[j+1]
			la := bisectPart(sc.tree, v, src[a:b], dst[a:b], bi, external, outbound)
			nxt[w] = a
			nxt[w+1] = a + int32(la)
			w += 2
		}
		nxt[w] = cur[curLen-1]
		curLen = w + 1
		cur, nxt = nxt, cur
		src, dst = dst, src
		flip = !flip
	}
}

// partFits reports whether part respects every channel capacity (is a
// one-cycle message set): it tallies each message's path into chkLoad against
// the capacity snapshot, then rolls the tally back, leaving chkLoad zero.
//
//ftlint:hotpath
func (sc *Scheduler) partFits(part []core.Message) bool {
	ok := sc.tallyPart(part, 1)
	sc.tallyPart(part, -1)
	return ok
}

// tallyPart walks every message path in part, adding delta to the chkLoad
// entry of each channel touched, and reports whether no entry exceeded its
// capacity along the way (meaningful for delta = +1).
//
//ftlint:hotpath
func (sc *Scheduler) tallyPart(part []core.Message, delta int32) bool {
	ld, caps, n := sc.chkLoad, sc.caps, sc.n
	ok := true
	for _, m := range part {
		switch {
		case m.Dst == core.External:
			for v := n + m.Src; v >= 1; v >>= 1 {
				ld[2*v] += delta
				if int(ld[2*v]) > caps[v] {
					ok = false
				}
			}
		case m.Src == core.External:
			for v := n + m.Dst; v >= 1; v >>= 1 {
				ld[2*v+1] += delta
				if int(ld[2*v+1]) > caps[v] {
					ok = false
				}
			}
		default:
			a, b := n+m.Src, n+m.Dst
			lca := a >> uint(bits.Len(uint(a^b)))
			for v := a; v != lca; v >>= 1 {
				ld[2*v] += delta
				if int(ld[2*v]) > caps[v] {
					ok = false
				}
			}
			for v := b; v != lca; v >>= 1 {
				ld[2*v+1] += delta
				if int(ld[2*v+1]) > caps[v] {
					ok = false
				}
			}
		}
	}
	return ok
}

// parts returns the number of parts a boundary list describes.
func parts(bnd []int32) int {
	if len(bnd) == 0 {
		return 0
	}
	return len(bnd) - 1
}

// copyPart appends part i of an oriented partition to the cycle buffer at
// cur and returns the new cursor.
//
//ftlint:hotpath
func (sc *Scheduler) copyPart(bnd []int32, flip bool, i, cur int) int {
	if i >= parts(bnd) {
		return cur
	}
	src := sc.groupA
	if flip {
		src = sc.groupB
	}
	return cur + copy(sc.cycleBuf[cur:], src[bnd[i]:bnd[i+1]])
}

// bisectPart is the allocation-free matching-and-tracing even bisection: it
// splits q (all crossing node v in the same direction, or all external in the
// same direction when external is set) into a first half written to
// out[:la] and a second half written to out[la:], both in q order, and
// returns la. Every channel's load splits as ceil/floor. bi provides the
// scratch; out must not alias q.
//
//ftlint:hotpath
func bisectPart(t *core.FatTree, v int, q, out []core.Message, bi *bisector, external, outbound bool) int {
	k := len(q)
	if k == 0 {
		return 0
	}
	if k == 1 {
		out[0] = q[0]
		return 1
	}
	partner := bi.partner[:2*k]
	for i := range partner {
		partner[i] = -1
	}
	keys := bi.keys[:k]
	var unmatched int32 = -1
	if external {
		// Hierarchically match the processor ends over the whole tree; the
		// external ends all live at the interface and pair consecutively.
		for i, m := range q {
			p := m.Src
			if !outbound {
				p = m.Dst
			}
			keys[i] = int64(p)<<32 | int64(i)
		}
		slices.Sort(keys)
		unmatched = matchSorted(t.Processors(), 1, keys, 0, k, 0, partner)
		for i := 0; i+1 < k; i += 2 {
			partner[2*i+1] = int32(2*(i+1) + 1)
			partner[2*(i+1)+1] = int32(2*i + 1)
		}
	} else {
		// Match source ends within the source subtree and destination ends
		// within the destination subtree.
		srcChild, dstChild := 2*v, 2*v+1
		if !t.Contains(srcChild, q[0].Src) {
			srcChild, dstChild = dstChild, srcChild
		}
		for i, m := range q {
			keys[i] = int64(m.Src)<<32 | int64(i)
		}
		slices.Sort(keys)
		unmatched = matchSorted(t.Processors(), srcChild, keys, 0, k, 0, partner)
		for i, m := range q {
			keys[i] = int64(m.Dst)<<32 | int64(i)
		}
		slices.Sort(keys)
		matchSorted(t.Processors(), dstChild, keys, 0, k, 1, partner)
	}

	// Tracing: follow strings, alternating sides; start with the unmatched
	// source end if any (the single open path when k is odd), then pick
	// unassigned messages in q order (the remaining components are cycles).
	side := bi.side[:k]
	for i := range side {
		side[i] = -1
	}
	if unmatched != -1 {
		traceStrands(partner, side, unmatched)
	}
	for i := 0; i < k; i++ {
		if side[i] == -1 {
			traceStrands(partner, side, int32(2*i))
		}
	}
	la := 0
	for _, s := range side {
		if s == 0 {
			la++
		}
	}
	c0, c1 := 0, la
	for i, m := range q {
		if side[i] == 0 {
			out[c0] = m
			c0++
		} else {
			out[c1] = m
			c1++
		}
	}
	return la
}

// matchSorted performs the hierarchical matching over the subtree rooted at
// node: keys[lo:hi] are composite (processor<<32 | message index) keys sorted
// ascending, so each subtree owns a contiguous segment found by binary
// search. At each leaf consecutive ends pair up; at each internal node the
// (at most one) unmatched end from each child is paired. End ids are
// 2·index+endBit (endBit 0 = source/processor ends, 1 = destination ends).
// It returns the single unmatched end, or -1. n is the tree's processor
// count: heap node v at level k = bits.Len(v)-1 spans the n>>k processors
// from (v-2^k)·(n>>k).
//
//ftlint:hotpath
func matchSorted(n, node int, keys []int64, lo, hi, endBit int, partner []int32) int32 {
	if lo >= hi {
		return -1
	}
	k := uint(bits.Len(uint(node)) - 1)
	plo := (node - 1<<k) * (n >> k)
	phi := plo + n>>k
	if plo+1 == phi {
		for i := lo; i+1 < hi; i += 2 {
			a := int32(keys[i]&0xffffffff)<<1 | int32(endBit)
			b := int32(keys[i+1]&0xffffffff)<<1 | int32(endBit)
			partner[a] = b
			partner[b] = a
		}
		if (hi-lo)%2 == 1 {
			return int32(keys[hi-1]&0xffffffff)<<1 | int32(endBit)
		}
		return -1
	}
	mid := (plo + phi) / 2
	cut, top := lo, hi
	for cut < top {
		h := int(uint(cut+top) >> 1)
		if int(keys[h]>>32) < mid {
			cut = h + 1
		} else {
			top = h
		}
	}
	l := matchSorted(n, 2*node, keys, lo, cut, endBit, partner)
	r := matchSorted(n, 2*node+1, keys, cut, hi, endBit, partner)
	if l != -1 && r != -1 {
		partner[l] = r
		partner[r] = l
		return -1
	}
	if l != -1 {
		return l
	}
	return r
}

// traceStrands follows one string component starting from end start,
// assigning side 0 to messages traversed source→destination and side 1 to
// messages traversed destination→source, until the component closes or an
// unmatched end is reached.
//
//ftlint:hotpath
func traceStrands(partner []int32, side []int8, start int32) {
	e := start
	for {
		m := e / 2
		if side[m] != -1 {
			return
		}
		side[m] = 0
		p := partner[2*m+1]
		if p == -1 {
			return
		}
		m2 := p / 2
		if side[m2] != -1 {
			return
		}
		side[m2] = 1
		e = partner[2*m2]
		if e == -1 {
			return
		}
	}
}
