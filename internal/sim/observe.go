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
//   - after each node run (observeStreamRun) and each lone hop
//     (observeHop), reading the node's requests in message-index order;
//   - after collect, closing the cycle.
//
// Every hook hands the observer the tree's level-order ids, translated from
// the engine's padded ids by nodeID, and reads flight i's message as
// pending[i] of the cycle's offer. With an event ring, the inject and
// advance events of a flight carry every wire it was granted, in path
// order: they are the only record of a wire path (settings.go reads it
// back). Attaching an observer cannot perturb routing: it only reads engine
// state.

// SetObserver attaches an observer to the engine (nil detaches). The observer
// must be bound to a tree of the same size; it may keep its counters per node
// (obsv.New) or per level (obsv.NewCompact), since every hook reaches the
// counters through the observer's slot map. Attaching snapshots
// the cumulative hardware counters of every switch built so far, so per-run
// deltas start at the attach point. The observer must not be shared with
// another engine running concurrently.
func (e *Engine) SetObserver(o *obsv.Observer) {
	if o != nil {
		if o.Nodes() != e.tree.Nodes()+1 {
			panic("sim: observer is bound to a tree of a different size")
		}
		for _, ss := range e.stream.special {
			ss.lastRounds, ss.lastFaults = ss.sw.MatchingRounds(), ss.sw.FaultDrops()
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
		o.Inject(i, m, e.stream.nodeID(f.node), f.wire)
	}
}

// observeStreamRun records one routed node run: the contention record
// (with the hardware counter deltas) of its won winners, then the wires
// they took — in the up channel above v on an up run, each port's rank −
// lost in the down channel into its child (firstChild + digit) on a down
// run. With no event ring that is one counter add per channel. With a ring
// the run is replayed flight by flight in message-index order, as advance,
// block and deliver events; the counter totals are the same.
//
//ftlint:hotpath
func (e *Engine) observeStreamRun(v int, run []uint64, upSweep bool, won int, ports []downPort, firstChild int, dRounds, dFaults int64) {
	o, st := e.obs, e.stream
	id := st.nodeID(v)
	o.SwitchDelta(id, len(run), len(run)-won, dRounds, dFaults)
	if !o.Tracing() {
		if upSweep {
			o.Use(id, int(core.Up), won)
			return
		}
		for c, pt := range ports {
			if won := pt.rank - pt.lost; won > 0 {
				o.Use(st.nodeID(firstChild+c), int(core.Down), won)
			}
		}
		return
	}
	flights, pending := e.scr.flights, e.scr.pending
	for _, k := range run {
		i := int(uint32(k))
		f, m := &flights[i], pending[i]
		switch f.state {
		case flightLost:
			o.Block(i, m, id)
		case flightUp:
			o.Advance(i, m, id, id, int(core.Up), f.wire)
		case flightDown:
			o.Advance(i, m, id, st.nodeID(f.node), int(core.Down), f.wire)
		case flightDone:
			if upSweep {
				o.Advance(i, m, id, id, int(core.Up), f.wire)
			} else {
				o.Advance(i, m, id, st.nodeID(f.node), int(core.Down), f.wire)
			}
			o.Deliver(i, m, id)
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
	o, st := e.obs, e.stream
	id := st.nodeID(v)
	o.SwitchDelta(id, 1, 0, dRounds, dFaults)
	if !o.Tracing() {
		o.Use(st.nodeID(chanNode), dir, 1)
		return
	}
	m := e.scr.pending[i]
	o.Advance(i, m, id, st.nodeID(chanNode), dir, wire)
	if done {
		o.Deliver(i, m, id)
	}
}
