package sim

import (
	"fattree/internal/core"
	"fattree/internal/obsv"
)

// This file is the engine side of the observability layer (internal/obsv).
// The engine holds the observer as a concrete *obsv.Observer pointer — never
// an interface — so the disabled path is one pointer compare with no
// interface-conversion allocation, and every hook sits at a fixed point of
// the cycle data plane:
//
//   - after injection, reading the flight table in message-index order;
//   - after each node run of the streaming plane (observeStreamRun) and
//     each of its lone hops (observeHop), and in the k-ary plane's
//     routeLevel after the level's switches are contested but before the
//     buckets are reset (observeLevel), reading each switch's requests in
//     message-index order;
//   - after collect, closing the cycle.
//
// A hook reads flight i's message as pending[i] of the cycle's offer. With
// an event ring, the inject and advance events of a flight carry every wire
// it was granted, in path order: they are the only record of a wire path
// (settings.go reads it back). Attaching an observer cannot perturb routing:
// it only reads engine state.

// SetObserver attaches an observer to the engine (nil detaches). The observer
// must be bound to a tree of the same size; it may keep its counters per node
// (obsv.New) or per level (obsv.NewCompact) on either plane, since every hook
// reaches the counters through the observer's slot map. Attaching snapshots
// the cumulative hardware counters of every switch built so far, so per-run
// deltas start at the attach point. The observer must not be shared with
// another engine running concurrently.
func (e *Engine) SetObserver(o *obsv.Observer) {
	if o != nil {
		if o.Nodes() != e.tree.Nodes()+1 {
			panic("sim: observer is bound to a tree of a different size")
		}
		if e.kary == nil {
			e.stream.primeSpecials()
		}
	}
	e.obs = o
}

// Observer returns the attached observer, or nil when observability is
// disabled.
func (e *Engine) Observer() *obsv.Observer { return e.obs }

// observeInject records the cycle start and the injection outcome of every
// flight in message-index order. Called only when an observer is attached.
//
//ftlint:hotpath
func (e *Engine) observeInject(pending core.MessageSet, flights []flight) {
	o := e.obs
	t := e.tree
	o.CycleStart(len(pending))
	for i := range flights {
		f, m := &flights[i], pending[i]
		if f.state == flightLost { // deferred: never entered the network
			node := 1
			if m.Src != core.External {
				node = t.Leaf(m.Src)
			}
			o.Defer(i, m, node)
			continue
		}
		o.Inject(i, m, f.node, f.wire)
	}
}

// observeLevel records one k-ary sweep step's outcomes after its switches
// are contested: per-switch contention, and per-flight advance/block/deliver
// events with the channel each winner occupies. Bucket order is first-touch
// node order and within a bucket message-index order. Called only when an
// observer is attached.
//
//ftlint:hotpath
func (e *Engine) observeLevel(first int, upSweep bool) {
	o := e.obs
	ks := e.kary
	flights, pending := e.scr.flights, e.scr.pending
	for _, v := range ks.nodes {
		bucket := ks.buckets[v-first]
		// Every bucketed flight was live when the contest started, so the
		// lost ones are exactly the switch's drops.
		dropped := 0
		for _, i := range bucket {
			if flights[i].state == flightLost {
				dropped++
			}
		}
		// Inline ideal routing has no hardware counters to difference.
		o.SwitchDelta(v, len(bucket), dropped, 0, 0)
		for _, i := range bucket {
			f, m := &flights[i], pending[i]
			switch f.state {
			case flightLost:
				o.Block(i, m, v)
			case flightUp:
				// Ascended: now holds a wire in the up channel above v.
				o.Advance(i, m, v, v, int(core.Up), f.wire)
			case flightDown:
				// Turned or descended: holds the down channel above f.node.
				o.Advance(i, m, v, f.node, int(core.Down), f.wire)
			case flightDone:
				if upSweep {
					// External output: delivered through the root up channel.
					o.Advance(i, m, v, v, int(core.Up), f.wire)
				} else {
					// Reached the destination leaf's down channel.
					o.Advance(i, m, v, f.node, int(core.Down), f.wire)
				}
				o.Deliver(i, m, v)
			}
		}
	}
}

// observeStreamRun records one routed node run of the streaming plane: the
// contention record (with the hardware counter deltas), then the wires its
// winners took — won[0] in the up channel above v on an up run, won[0] and
// won[1] in the down channels into v's left and right children on a down
// run. With no event ring that is one counter add per channel. With a ring
// the run is replayed flight by flight in message-index order, as the
// advance, block and deliver events observeLevel emits for the k-ary plane;
// the counter totals are the same.
//
//ftlint:hotpath
func (e *Engine) observeStreamRun(v int, run []uint64, upSweep bool, won [2]int, drops int, dRounds, dFaults int64) {
	o := e.obs
	o.SwitchDelta(v, len(run), drops, dRounds, dFaults)
	if !o.Tracing() {
		if upSweep {
			o.Use(v, int(core.Up), won[0])
		} else {
			o.Use(2*v, int(core.Down), won[0])
			o.Use(2*v+1, int(core.Down), won[1])
		}
		return
	}
	flights, pending := e.scr.flights, e.scr.pending
	for _, k := range run {
		i := int(uint32(k))
		f, m := &flights[i], pending[i]
		switch f.state {
		case flightLost:
			o.Block(i, m, v)
		case flightUp:
			o.Advance(i, m, v, v, int(core.Up), f.wire)
		case flightDown:
			o.Advance(i, m, v, f.node, int(core.Down), f.wire)
		case flightDone:
			if upSweep {
				o.Advance(i, m, v, v, int(core.Up), f.wire)
			} else {
				o.Advance(i, m, v, f.node, int(core.Down), f.wire)
			}
			o.Deliver(i, m, v)
		}
	}
}

// observeHop records a lone hop of flight i through node v onto a wire of
// the channel (chanNode, dir): a one-request run with no drop and the hop's
// switch counter deltas (0 on ideal switches), which delivers the flight
// when done.
//
//ftlint:hotpath
func (e *Engine) observeHop(i, v, chanNode, dir, wire int, done bool, dRounds, dFaults int64) {
	o := e.obs
	o.SwitchDelta(v, 1, 0, dRounds, dFaults)
	if !o.Tracing() {
		o.Use(chanNode, dir, 1)
		return
	}
	m := e.scr.pending[i]
	o.Advance(i, m, v, chanNode, dir, wire)
	if done {
		o.Deliver(i, m, v)
	}
}
