package sim

import (
	"fattree/internal/concentrator"
	"fattree/internal/core"
)

// This file is the delivery-cycle data plane for generalized k-ary fat-trees
// (core.KaryFatTree): the same inject → bucketed upward sweep → bucketed
// downward sweep → collect pipeline as the dense binary engine, with the
// heap-index arithmetic (v>>1, 2v/2v+1, level = bits.Len) replaced by the
// topology's level-order tables (Parent, Children, LevelRange, AncestorAt).
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

// karyState is the per-engine state of the k-ary plane. It replaces the
// dense engine's switch objects and per-node scratch; the shared scratch
// arena (flights, buckets, injection counters, wire histories) is reused
// unchanged.
type karyState struct {
	t *core.KaryFatTree
	// node[v] is internal node v's routing scratch; leaf slots stay empty.
	node []karyNodeScratch
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
// are supported; the observer semantics match the dense engine.
func newKaryEngine(t *core.KaryFatTree, kind concentrator.Kind, seed int64, opts Options) *Engine {
	if kind != concentrator.KindIdeal {
		panic("sim: k-ary topologies route with ideal concentrators only; partial concentrators model the binary Section IV hardware")
	}
	_ = seed // no randomness: ideal routing is deterministic
	e := &Engine{
		tree: t,
		caps: core.CapTableOf(t),
		kary: &karyState{t: t},
	}
	ks := e.kary
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
			ns.upStamp = make([]int64, e.caps[v])
			ns.downStamp = make([][]int64, cCount)
			ns.rank = make([]int, cCount)
			ns.off = make([]int, cCount)
			for c := 0; c < cCount; c++ {
				ns.downStamp[c] = make([]int64, e.caps[cFirst+c])
				ns.off[c] = ns.sumChild
				ns.sumChild += e.caps[cFirst+c]
			}
		}
	}
	n := t.Processors()
	e.scr.injUsed = make([]int, n)
	e.scr.injStamp = make([]int64, n)
	e.scr.buckets = make([][]int, maxLevelNodes)
	e.scr.nodes = make([]int, 0, maxLevelNodes)
	if opts.Observer != nil {
		e.SetObserver(opts.Observer)
	}
	return e
}

// runCycleKary is runCycle with the sweeps driven by the k-ary level tables.
//
//ftlint:hotpath
func (e *Engine) runCycleKary(pending core.MessageSet) ([]bool, CycleResult) {
	kt := e.kary.t
	scr := &e.scr
	leafLevel := kt.Levels()
	flights, res := e.inject(pending)
	if e.obs != nil {
		e.observeInject(pending, flights)
	}
	scr.nodes = scr.nodes[:0]

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
			e.karyOwn(first, count, p, i)
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
				e.karyOwn(first, count, f.lca, i)
			case flightDown: // holds the down wire above f.node
				e.karyOwn(first, count, f.node, i)
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

// karyOwn is own with an explicit level width (k-ary levels are not powers
// of two).
//
//ftlint:hotpath
func (e *Engine) karyOwn(first, count, v, i int) {
	scr := &e.scr
	if v >= first && v < first+count {
		if len(scr.buckets[v-first]) == 0 {
			scr.nodes = append(scr.nodes, v)
		}
		scr.buckets[v-first] = append(scr.buckets[v-first], i)
	}
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
		capParent := e.caps[v]
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
			e.scr.histArena[f.histOff+f.histLen] = w
			f.histLen++
			f.state = flightUp
			f.node = v
			if v == 1 && f.msg.Dst == core.External {
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
		if ns.rank[c] < e.caps[child] {
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
		e.scr.histArena[f.histOff+f.histLen] = w
		f.histLen++
		f.node = child
		f.state = flightDown
		if vLevel+1 == leafLevel {
			f.state = flightDone
		}
	}
}
