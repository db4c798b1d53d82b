package sim

import (
	"fattree/internal/concentrator"
	"fattree/internal/core"
)

// This file is the delivery-cycle data plane for fat-trees whose tiers are
// not all binary (!core.HeapIndexed): inject, a bucketed upward sweep, a
// bucketed downward sweep, collect. Every node and level is found through
// the tree's level-order tables (Parent, Children, LevelRange, AncestorAt). Each sweep
// step touches every in-flight message once to bucket it under its owning
// switch, and the buckets, injection counters and capacity table are
// allocated once at construction.
//
// The plane routes with *inline ideal concentrators* — the same rules the
// binary streaming plane applies to each node run, generalized to d
// children:
//
//   - Upward: when the parent channel is at least as wide as all child
//     channels together, every message passes through on the wire it already
//     holds, offset by the summed widths of the preceding siblings (the
//     identity concentrator of Section III). Otherwise the first cap(parent)
//     requesters, in deterministic message order, win wires 0,1,2,...
//   - Downward: each message steers to the destination-leaf ancestor one
//     level down; the first cap(child) requesters per child win that child's
//     wires 0,1,2,...
//
// Partial (Section IV) concentrators and loss injection are binary-hardware
// models and are rejected at construction — the k-ary plane exists to study
// topology shape (radix, oversubscription), not switch internals.
//
// Determinism: buckets are built in message-index order and contested in
// first-touch node order, and the routing rules above consume no
// randomness.

// karyState is the per-engine state of the k-ary plane.
type karyState struct {
	t *core.FatTree
	// node[v] is internal node v's routing scratch; leaf slots stay empty.
	node []karyNodeScratch

	// caps memoizes the channel capacity above every node (both directions
	// share one capacity), indexed by node id, so the sweep never consults
	// the tree's override map. Snapshotted at construction.
	caps []int

	// Per-processor injection counters, epoch-stamped so they need no
	// clearing between cycles.
	injUsed  []int
	injStamp []int64
	epoch    int64

	// Per-level bucketing state: buckets[v-first] lists the flight indices
	// switch v owns this sweep step in message-index order; nodes lists the
	// non-empty buckets in first-touch (= message-index) order.
	buckets [][]int
	nodes   []int
}

// karyNodeScratch holds one internal node's contest state: epoch-stamped
// wire guards for the up channel above it and the down channels above its
// children (the hardware invariant: no wire assigned twice in one sweep),
// plus the per-child rank counters and pass-through offsets of the inline
// ideal rules.
type karyNodeScratch struct {
	upStamp   []int64   // wires of the up channel above this node
	downStamp [][]int64 // per child ordinal: wires of the down channel above it
	rank      []int     // per child ordinal: down-contest rank counter
	off       []int     // per child ordinal: prefix sum of preceding siblings' up widths
	sumChild  int       // total child-side up wires (pass-through threshold)
	gen       int64
}

// newKaryEngine builds the k-ary delivery engine. Only ideal concentrators
// are supported.
func newKaryEngine(t *core.FatTree, kind concentrator.Kind) *Engine {
	if kind != concentrator.KindIdeal {
		panic("sim: k-ary topologies route with ideal concentrators only; partial concentrators model the binary Section IV hardware")
	}
	ks := &karyState{t: t, caps: core.CapTableOf(t)}
	ks.node = make([]karyNodeScratch, t.Nodes()+1)
	maxLevelNodes := 1
	for k := 0; k < t.Levels(); k++ {
		first, count := t.LevelRange(k)
		if count > maxLevelNodes {
			maxLevelNodes = count
		}
		for v := first; v < first+count; v++ {
			cFirst, cCount := t.Children(v)
			ns := &ks.node[v]
			ns.upStamp = make([]int64, ks.caps[v])
			ns.downStamp = make([][]int64, cCount)
			ns.rank = make([]int, cCount)
			ns.off = make([]int, cCount)
			for c := 0; c < cCount; c++ {
				ns.downStamp[c] = make([]int64, ks.caps[cFirst+c])
				ns.off[c] = ns.sumChild
				ns.sumChild += ks.caps[cFirst+c]
			}
		}
	}
	n := t.Processors()
	ks.injUsed = make([]int, n)
	ks.injStamp = make([]int64, n)
	ks.buckets = make([][]int, maxLevelNodes)
	ks.nodes = make([]int, 0, maxLevelNodes)
	return &Engine{tree: t, kary: ks}
}

// injectKary starts a delivery cycle: each source leaf offers its up channel's
// wires to its pending messages in order; the surplus is deferred to a later
// cycle (the processor buffers them, per Section II). Inputs from the
// external world inject into the root down channel; outputs carry the
// sentinel LCA 0 ("above the root") so the upward sweep forwards them through
// every switch and out the root channel.
//
//ftlint:hotpath
func (e *Engine) injectKary(pending core.MessageSet) ([]flight, CycleResult) {
	ks := e.kary
	kt := ks.t
	scr := &e.scr
	ks.epoch++
	if cap(scr.flights) < len(pending) {
		scr.flights = make([]flight, len(pending), len(pending)+len(pending)/2)
	}
	flights := scr.flights[:len(pending)]
	scr.flights = flights
	var res CycleResult

	rootInjected := 0 // root down-channel wires used by inputs
	for i, m := range pending {
		if m.Src == core.External {
			if rootInjected >= ks.caps[1] {
				flights[i] = flight{state: flightLost}
				res.Deferred++
				continue
			}
			flights[i] = flight{state: flightDown, node: 1, wire: rootInjected, dstLeaf: kt.Leaf(m.Dst)}
			rootInjected++
			continue
		}
		leaf := kt.Leaf(m.Src)
		used := 0
		if ks.injStamp[m.Src] == ks.epoch {
			used = ks.injUsed[m.Src]
		}
		if used >= ks.caps[leaf] {
			flights[i] = flight{state: flightLost}
			res.Deferred++
			continue
		}
		lca := 0 // sentinel: the message exits through the root interface
		dstLeaf := 0
		if m.Dst != core.External {
			lca = kt.LCA(m.Src, m.Dst)
			dstLeaf = kt.Leaf(m.Dst)
		}
		flights[i] = flight{state: flightUp, node: leaf, wire: used, lca: lca, dstLeaf: dstLeaf}
		ks.injStamp[m.Src] = ks.epoch
		ks.injUsed[m.Src] = used + 1
	}
	return flights, res
}

// runCycleKary is runCycle with the sweeps driven by the k-ary level tables.
//
//ftlint:hotpath
func (e *Engine) runCycleKary(pending core.MessageSet) ([]bool, CycleResult) {
	ks := e.kary
	kt := ks.t
	leafLevel := kt.Levels()
	flights, res := e.injectKary(pending)
	if e.obs != nil {
		e.observeInject(pending, flights)
	}
	ks.nodes = ks.nodes[:0]

	// Upward sweep, leaf parents toward the root: a message ascending
	// through v holds a wire in the up channel above one of v's children
	// and its LCA is strictly above v.
	for level := leafLevel - 1; level >= 0; level-- {
		first, count := kt.LevelRange(level)
		for i := range flights {
			f := &flights[i]
			if f.state != flightUp {
				continue
			}
			p := kt.Parent(f.node)
			if f.lca == p {
				continue
			}
			ks.own(first, count, p, i)
		}
		e.routeLevel(first, true, &res)
	}

	// Downward sweep, root toward the leaves: a message either turns at v
	// (its LCA is v, and it still holds a child-side up wire) or descends
	// through v (it holds the parent-side down wire above v).
	for level := 0; level < leafLevel; level++ {
		first, count := kt.LevelRange(level)
		for i := range flights {
			f := &flights[i]
			switch f.state {
			case flightUp: // waiting to turn at its LCA
				ks.own(first, count, f.lca, i)
			case flightDown: // holds the down wire above f.node
				ks.own(first, count, f.node, i)
			}
		}
		e.routeLevel(first, false, &res)
	}

	delivered := e.collect(pending, flights, &res)
	if e.obs != nil {
		e.obs.CycleEnd(res.Delivered, res.Dropped, res.Deferred)
	}
	return delivered, res
}

// own buckets flight i under switch v if v belongs to the sweep level whose
// nodes are [first, first+count), recording the first touch of each bucket
// in nodes.
//
//ftlint:hotpath
func (ks *karyState) own(first, count, v, i int) {
	if v >= first && v < first+count {
		if len(ks.buckets[v-first]) == 0 {
			ks.nodes = append(ks.nodes, v)
		}
		ks.buckets[v-first] = append(ks.buckets[v-first], i)
	}
}

// routeLevel contests one sweep step's non-empty switches in first-touch
// node order, then resets the buckets.
//
//ftlint:hotpath
func (e *Engine) routeLevel(first int, upSweep bool, res *CycleResult) {
	ks := e.kary
	for _, v := range ks.nodes {
		e.routeKaryGathered(v, e.scr.flights, ks.buckets[v-first], upSweep, res)
	}
	if e.obs != nil {
		// Observation reads the level's outcomes before the buckets reset.
		e.observeLevel(first, upSweep)
	}
	for _, v := range ks.nodes {
		ks.buckets[v-first] = ks.buckets[v-first][:0]
	}
	ks.nodes = ks.nodes[:0]
}

// routeKaryGathered contests node v's inline ideal concentrators with the
// flights in who (in order) and applies the wire assignments.
//
//ftlint:hotpath
func (e *Engine) routeKaryGathered(v int, flights []flight, who []int, upSweep bool, res *CycleResult) {
	if len(who) == 0 {
		return
	}
	kt := e.kary.t
	leafLevel := kt.Levels()
	vLevel := kt.Level(v)
	ns := &e.kary.node[v]
	ns.gen++
	childFirst, childCount := kt.Children(v)

	if upSweep {
		// Contest the single parent-side output. Pass-through preserves each
		// message's child wire (shifted by the sibling prefix); a narrower
		// parent grants wires in request order.
		capParent := e.kary.caps[v]
		pass := capParent >= ns.sumChild
		rank := 0
		for _, i := range who {
			f := &flights[i]
			w := -1
			if pass {
				w = ns.off[f.node-childFirst] + f.wire
			} else if rank < capParent {
				w = rank
			}
			rank++
			if w < 0 {
				f.state = flightLost
				res.Dropped++
				continue
			}
			if w >= capParent || ns.upStamp[w] == ns.gen {
				panic("sim: up-channel wire oversubscribed (switch bug)")
			}
			ns.upStamp[w] = ns.gen
			f.wire = w
			f.state = flightUp
			f.node = v
			if v == 1 && f.dstLeaf == 0 {
				// The root up channel is the external interface: delivered.
				f.state = flightDone
			}
		}
		return
	}

	// Downward: steer each flight to the destination-leaf ancestor one level
	// below v; the first cap(child) requesters per child win its wires.
	for c := 0; c < childCount; c++ {
		ns.rank[c] = 0
	}
	for _, i := range who {
		f := &flights[i]
		child := kt.AncestorAt(f.dstLeaf, vLevel+1)
		c := child - childFirst
		w := -1
		if ns.rank[c] < e.kary.caps[child] {
			w = ns.rank[c]
		}
		ns.rank[c]++
		if w < 0 {
			f.state = flightLost
			res.Dropped++
			continue
		}
		if ns.downStamp[c][w] == ns.gen {
			panic("sim: down-channel wire oversubscribed (switch bug)")
		}
		ns.downStamp[c][w] = ns.gen
		f.wire = w
		f.node = child
		f.state = flightDown
		if vLevel+1 == leafLevel {
			f.state = flightDone
		}
	}
}
