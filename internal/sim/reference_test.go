package sim

import (
	"math/bits"
	"reflect"
	"slices"
	"testing"

	"fattree/internal/concentrator"
	"fattree/internal/core"
	"fattree/internal/obsv"
	"fattree/internal/sched"
)

// refEngine is the reference the binary cycle plane is checked against: the
// Fig. 3 delivery cycle transcribed directly, with nothing carried, sorted
// or reused between steps. Every internal node v owns one eager
// concentrator.NewSwitch(cap(v), cap(2v), kind, seed+v); injection admits
// the first cap(leaf) messages of each leaf in message order; then the up
// sweep and the down sweep run level by level, each level's nodes in
// ascending order and each node's requests in message-index order.
type refEngine struct {
	t    *core.FatTree
	caps []int
	sw   []*concentrator.Switch // indexed by internal node 1..n-1

	// requests and drops are the per-switch contest totals since
	// construction, indexed by node.
	requests, drops []int64

	lossOn bool // injectLoss was called
}

// refFlight is one message inside a reference cycle.
type refFlight struct {
	state   int  // flightUp, flightDown, flightDone or flightLost
	node    int  // node beneath the channel whose wire it holds
	wire    int  // wire held in that channel
	lca     int  // 0 for an output to the external world
	dstLeaf int  // 0 for an output to the external world
	out     bool // exits through the root channel
	hist    []int
}

// refCycle is one reference cycle's outcome.
type refCycle struct {
	res       CycleResult
	delivered []bool
	hist      [][]int // each delivered message's wires in path order, nil otherwise
}

func newRefEngine(t *core.FatTree, kind concentrator.Kind, seed int64) *refEngine {
	n := t.Processors()
	r := &refEngine{
		t:        t,
		caps:     core.CapTableOf(t),
		sw:       make([]*concentrator.Switch, n),
		requests: make([]int64, n),
		drops:    make([]int64, n),
	}
	for v := 1; v < n; v++ {
		r.sw[v] = concentrator.NewSwitch(r.caps[v], r.caps[2*v], kind, seed+int64(v))
	}
	return r
}

// injectLoss wraps every switch in the transient-fault model, seeded per
// node by seed+3v.
func (r *refEngine) injectLoss(rate float64, seed int64) {
	r.lossOn = true
	for v := 1; v < len(r.sw); v++ {
		r.sw[v].InjectLoss(rate, seed+int64(3*v))
	}
}

// cycle routes one delivery cycle.
func (r *refEngine) cycle(pending core.MessageSet) refCycle {
	t := r.t
	levels := t.Levels()
	fl := make([]refFlight, len(pending))
	var res CycleResult

	// Injection: an external input takes the next wire of the root down
	// channel (node 1), any other message the next wire of its source
	// leaf's up channel; a full channel defers the message.
	used := map[int]int{}
	for i, m := range pending {
		ch := 1
		if m.Src != core.External {
			ch = t.Leaf(m.Src)
		}
		w := used[ch]
		if w >= r.caps[ch] {
			fl[i].state = flightLost
			res.Deferred++
			continue
		}
		used[ch] = w + 1
		f := refFlight{state: flightUp, node: ch, wire: w, out: m.Dst == core.External, hist: []int{w}}
		if m.Src == core.External {
			f.state = flightDown
		}
		if m.Dst != core.External {
			f.dstLeaf = t.Leaf(m.Dst)
			if m.Src != core.External {
				f.lca = t.LCA(m.Src, m.Dst)
			}
		}
		fl[i] = f
	}

	// Up sweep: node v contests the flights climbing out of its children
	// whose LCA lies above v.
	for level := levels - 1; level >= 0; level-- {
		for v := 1 << level; v < 2<<level; v++ {
			var who []int
			for i := range fl {
				if f := &fl[i]; f.state == flightUp && f.node>>1 == v && f.lca != v {
					who = append(who, i)
				}
			}
			r.contest(v, fl, who, true, &res)
		}
	}

	// Down sweep: node v contests the flights turning at it and the flights
	// descending through it.
	for level := 0; level < levels; level++ {
		for v := 1 << level; v < 2<<level; v++ {
			var who []int
			for i := range fl {
				f := &fl[i]
				if (f.state == flightUp && f.lca == v) || (f.state == flightDown && f.node == v) {
					who = append(who, i)
				}
			}
			r.contest(v, fl, who, false, &res)
		}
	}

	c := refCycle{res: res, delivered: make([]bool, len(pending)), hist: make([][]int, len(pending))}
	for i := range fl {
		if fl[i].state == flightDone {
			c.delivered[i] = true
			c.hist[i] = fl[i].hist
			c.res.Delivered++
		}
	}
	return c
}

// contest routes the flights in who through switch v in one sweep.
func (r *refEngine) contest(v int, fl []refFlight, who []int, upSweep bool, res *CycleResult) {
	if len(who) == 0 {
		return
	}
	levels := r.t.Levels()
	vLevel := bits.Len(uint(v)) - 1
	reqs := make([]concentrator.Request, len(who))
	for j, i := range who {
		f := &fl[i]
		in := concentrator.Parent
		if f.state == flightUp {
			in = concentrator.Left
			if f.node&1 == 1 {
				in = concentrator.Right
			}
		}
		out := concentrator.Parent
		if !upSweep {
			out = concentrator.Left
			if f.dstLeaf>>uint(levels-vLevel-1)&1 == 1 {
				out = concentrator.Right
			}
		}
		reqs[j] = concentrator.Request{In: in, InWire: f.wire, Out: out}
	}
	wires, _ := r.sw[v].Route(reqs)
	r.requests[v] += int64(len(who))
	for j, i := range who {
		f := &fl[i]
		if wires[j] < 0 {
			f.state = flightLost
			res.Dropped++
			r.drops[v]++
			continue
		}
		f.wire = wires[j]
		f.hist = append(f.hist, wires[j])
		if upSweep {
			f.node = v
			if v == 1 && f.out {
				f.state = flightDone
			}
			continue
		}
		f.node = 2 * v
		if reqs[j].Out == concentrator.Right {
			f.node++
		}
		f.state = flightDown
		if vLevel+1 == levels {
			f.state = flightDone
		}
	}
}

// run is the Section II retry loop on the reference: every cycle offers the
// undelivered messages in order, until all are delivered or a cycle
// delivers nothing — with loss injected, until maxZeroStreak consecutive
// cycles deliver nothing, since a fault can empty one cycle by chance.
func (r *refEngine) run(ms core.MessageSet) Stats {
	var st Stats
	stallLimit, zeroStreak := 1, 0
	if r.lossOn {
		stallLimit = maxZeroStreak
	}
	pending := slices.Clone(ms)
	for len(pending) > 0 && st.Cycles < maxCyclesDefault {
		c := r.cycle(pending)
		st.Cycles++
		st.Delivered += c.res.Delivered
		st.Drops += c.res.Dropped
		st.Deferrals += c.res.Deferred
		st.PerCycle = append(st.PerCycle, c.res.Delivered)
		var next core.MessageSet
		for i, ok := range c.delivered {
			if !ok {
				next = append(next, pending[i])
			}
		}
		pending = next
		if c.res.Delivered == 0 {
			zeroStreak++
		} else {
			zeroStreak = 0
		}
		if zeroStreak >= stallLimit {
			break
		}
	}
	return st
}

// refSettings compiles a schedule on an ideal reference engine, the
// reference counterpart of CompileSettings.
func refSettings(t *core.FatTree, s *sched.Schedule) [][]WirePath {
	r := newRefEngine(t, concentrator.KindIdeal, 0)
	out := make([][]WirePath, len(s.Cycles))
	for ci, cyc := range s.Cycles {
		c := r.cycle(cyc)
		for i, m := range cyc {
			out[ci] = append(out[ci], WirePath{Msg: m, Wires: c.hist[i]})
		}
	}
	return out
}

// checkCycles runs ms through e and r in lockstep, carrying each cycle's
// losers to the next, and demands the reference's CycleResult, delivered
// flags and wire paths every cycle. The engine's paths are read from the
// event ring of a per-level observer (runCycleTraced), so e must have no
// observer of its own.
func checkCycles(t *testing.T, e *Engine, r *refEngine, ms core.MessageSet) {
	t.Helper()
	pending := slices.Clone(ms)
	for cyc := 0; len(pending) > 0; cyc++ {
		delivered, res, hist := e.runCycleTraced(pending)
		want := r.cycle(pending)
		if res != want.res || !slices.Equal(delivered, want.delivered) || !reflect.DeepEqual(hist, want.hist) {
			t.Fatalf("cycle %d diverges from the reference\nref    %+v %v %v\nengine %+v %v %v",
				cyc, want.res, want.delivered, want.hist, res, delivered, hist)
		}
		if res.Delivered == 0 {
			return
		}
		var next core.MessageSet
		for i, ok := range delivered {
			if !ok {
				next = append(next, pending[i])
			}
		}
		pending = next
	}
}

// checkSwitchCounters demands that a per-node observer's per-switch counters
// equal the reference's: requests, drops, matching rounds and faults. The
// observer must have been attached to a fresh engine that routed the same
// traffic as r.
func checkSwitchCounters(t *testing.T, o *obsv.Observer, r *refEngine) {
	t.Helper()
	n := len(r.sw)
	rounds, faults := make([]int64, n), make([]int64, n)
	for v := 1; v < n; v++ {
		rounds[v], faults[v] = r.sw[v].MatchingRounds(), r.sw[v].FaultDrops()
	}
	for _, c := range []struct {
		name     string
		got, ref []int64
	}{
		{"requests", o.C.Requests[:n], r.requests},
		{"drops", o.C.Drops[:n], r.drops},
		{"matching rounds", o.C.MatchRounds[:n], rounds},
		{"faults", o.C.Faults[:n], faults},
	} {
		if !slices.Equal(c.got, c.ref) {
			t.Fatalf("per-switch %s diverge from the reference\nref      %v\nobserved %v", c.name, c.ref, c.got)
		}
	}
}
