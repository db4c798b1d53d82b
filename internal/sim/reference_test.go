package sim

import (
	"reflect"
	"slices"
	"testing"

	"fattree/internal/concentrator"
	"fattree/internal/core"
	"fattree/internal/obsv"
	"fattree/internal/sched"
)

// refEngine is the reference the cycle plane is checked against: the Fig. 3
// delivery cycle transcribed directly, with nothing carried, sorted or reused
// between steps, on a tree of any arity. It navigates with the tree's
// level-order tables (Parent, Children, LevelRange, AncestorAt). Injection
// admits the first cap(leaf) messages of each leaf in message order; then the
// up sweep and the down sweep run level by level, each level's nodes in
// ascending order and each node's requests in message-index order.
//
// On a binary tree every internal node v owns one eager
// concentrator.NewSwitch(cap(v), cap(2v), kind, seed+v). On any other arity
// the nodes route with the ideal concentrators of Section III, written out
// inline (inlineRoute); partial switches and loss model binary hardware and
// are not transcribed there.
type refEngine struct {
	t    *core.FatTree
	caps []int
	sw   []*concentrator.Switch // binary trees only: indexed by internal node 1..n-1

	// requests and drops are the per-switch contest totals since
	// construction, indexed by internal node.
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
	internal := t.InternalNodes() + 1
	r := &refEngine{
		t:        t,
		caps:     core.CapTableOf(t),
		requests: make([]int64, internal),
		drops:    make([]int64, internal),
	}
	if core.HeapIndexed(t) {
		r.sw = make([]*concentrator.Switch, internal)
		for v := 1; v < internal; v++ {
			first, _ := t.Children(v)
			r.sw[v] = concentrator.NewSwitch(r.caps[v], r.caps[first], kind, seed+int64(v))
		}
	} else if kind != concentrator.KindIdeal {
		panic("reference: a non-binary tree routes with inline ideal concentrators only")
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
		first, count := t.LevelRange(level)
		for v := first; v < first+count; v++ {
			var who []int
			for i := range fl {
				if f := &fl[i]; f.state == flightUp && t.Parent(f.node) == v && f.lca != v {
					who = append(who, i)
				}
			}
			r.contest(v, fl, who, true, &res)
		}
	}

	// Down sweep: node v contests the flights turning at it and the flights
	// descending through it.
	for level := 0; level < levels; level++ {
		first, count := t.LevelRange(level)
		for v := first; v < first+count; v++ {
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

// contest routes the flights in who through node v in one sweep: an up
// request leaves on the parent channel, a down request on the channel into
// the child whose subtree holds its destination.
func (r *refEngine) contest(v int, fl []refFlight, who []int, upSweep bool, res *CycleResult) {
	if len(who) == 0 {
		return
	}
	t := r.t
	vLevel := t.Level(v)
	first, _ := t.Children(v)
	child := make([]int, len(who)) // the child each down request leaves into
	if !upSweep {
		for j, i := range who {
			child[j] = t.AncestorAt(fl[i].dstLeaf, vLevel+1)
		}
	}
	var wires []int
	if r.sw != nil {
		reqs := make([]concentrator.Request, len(who))
		for j, i := range who {
			f := &fl[i]
			in, out := concentrator.Parent, concentrator.Parent
			if f.state == flightUp {
				in = concentrator.Left + concentrator.Port(f.node-first)
			}
			if !upSweep {
				out = concentrator.Left + concentrator.Port(child[j]-first)
			}
			reqs[j] = concentrator.Request{In: in, InWire: f.wire, Out: out}
		}
		wires, _ = r.sw[v].Route(reqs)
	} else {
		wires = r.inlineRoute(v, fl, who, child, upSweep)
	}
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
		f.node = child[j]
		f.state = flightDown
		if vLevel+1 == t.Levels() {
			f.state = flightDone
		}
	}
}

// inlineRoute is node v's contest on the ideal concentrators of Section III,
// for a tree of any arity: the output wire of each request in who, -1 when
// it loses. Going up, a parent channel at least as wide as all its child
// channels together passes every request through on its child wire, offset
// by the widths of the preceding siblings; a narrower one grants wires
// 0, 1, 2, ... in request order. Going down, each child's channel grants
// wires 0, 1, 2, ... to its first cap(child) requesters (child[j] is the
// child request j leaves into).
func (r *refEngine) inlineRoute(v int, fl []refFlight, who, child []int, upSweep bool) []int {
	first, count := r.t.Children(v)
	wires := make([]int, len(who))
	if upSweep {
		off := make([]int, count+1) // off[c]: the widths of children first..first+c-1
		for c := 0; c < count; c++ {
			off[c+1] = off[c] + r.caps[first+c]
		}
		for j, i := range who {
			switch f := &fl[i]; {
			case r.caps[v] >= off[count]:
				wires[j] = off[f.node-first] + f.wire
			case j < r.caps[v]:
				wires[j] = j
			default:
				wires[j] = -1
			}
		}
		return wires
	}
	requested := make([]int, count)
	for j := range who {
		c := child[j] - first
		wires[j] = -1
		if requested[c] < r.caps[child[j]] {
			wires[j] = requested[c]
		}
		requested[c]++
	}
	return wires
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
	n := len(r.requests)
	rounds, faults := make([]int64, n), make([]int64, n) // inline routing has no hardware counters
	for v := 1; v < len(r.sw); v++ {
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

// karyShapes are the non-binary trees FuzzEnginePlaneEquivalence folds its
// messages onto, one picked per input by the fuzzed seed.
var karyShapes = []core.KaryDesc{
	{Down: []int{3, 4}, Up: []int{2, 1}, Parallel: []int{1, 1}},
	{Down: []int{4, 2, 3}, Up: []int{3, 2, 1}, Parallel: []int{1, 1, 1}},
	{Down: []int{5, 5}, Up: []int{2, 1}, Parallel: []int{3, 2}, Root: 7},
}

// smallKaryDescs returns every KaryDesc with at most maxLeaves leaves whose
// Up and Parallel entries lie in {1, 2}, with the default root width: every
// sequence of arities >= 2 whose product is at most maxLeaves, binary ones
// included.
func smallKaryDescs(maxLeaves int) []core.KaryDesc {
	var downs [][]int
	var extend func(prefix []int, leaves int)
	extend = func(prefix []int, leaves int) {
		if len(prefix) > 0 {
			downs = append(downs, slices.Clone(prefix))
		}
		for d := 2; leaves*d <= maxLeaves; d++ {
			extend(append(prefix, d), leaves*d)
		}
	}
	extend(nil, 1)
	var out []core.KaryDesc
	for _, down := range downs {
		tiers := len(down)
		for up := 0; up < 1<<tiers; up++ {
			for par := 0; par < 1<<tiers; par++ {
				desc := core.KaryDesc{Down: down, Up: make([]int, tiers), Parallel: make([]int, tiers)}
				for i := range down {
					desc.Up[i], desc.Parallel[i] = 1+up>>i&1, 1+par>>i&1
				}
				out = append(out, desc)
			}
		}
	}
	return out
}

// TestKaryMatchesReference checks the engine against the reference on
// trees of every arity: the k-ary shapes of FuzzEnginePlaneEquivalence,
// every KaryDesc with at most 8 leaves and up, parallel ∈ {1, 2}, and
// trees whose capacity overrides (SetChannelCapacity, FailNode,
// DegradeChannels) make sibling channels differ in width, each with three
// random message sets that include external inputs and outputs.
func TestKaryMatchesReference(t *testing.T) {
	descs := append(slices.Clone(karyShapes), smallKaryDescs(8)...)
	if len(descs) != 3+172 {
		t.Fatalf("%d shapes, want 175", len(descs))
	}
	trees := make([]*core.FatTree, 0, len(descs)+8)
	for _, desc := range descs {
		trees = append(trees, core.NewKary(desc))
	}

	// Overridden trees, whose sibling channels differ in width. Root 1 of
	// Down 3,2 has children 2, 3 and 4 over leaves 5-6, 7-8 and 9-10, and
	// every channel is 2 wires wide until overridden; a 9-wire root passes
	// its children's wires through, each child's offset by the widths of
	// the children before it.
	overridden := func(caps ...[2]int) *core.FatTree {
		kt := core.NewKary(core.KaryDesc{Down: []int{3, 2}, Up: []int{2, 2}, Parallel: []int{1, 1}})
		for _, c := range caps {
			kt.SetChannelCapacity(c[0], c[1])
		}
		return kt
	}
	failed := overridden()
	core.FailNode(failed, 3)
	trees = append(trees,
		overridden([2]int{1, 9}, [2]int{4, 3}, [2]int{10, 3}), // widened later children
		overridden([2]int{1, 9}, [2]int{2, 1}, [2]int{5, 1}),  // narrowed first children
		overridden([2]int{3, 1}, [2]int{8, 1}),                // narrowed later children
		failed)
	for i, desc := range karyShapes {
		kt := core.NewKary(desc)
		core.DegradeChannels(kt, 0.5, 0.5, int64(i))
		trees = append(trees, kt)
		kt = core.NewKary(desc)
		core.FailNode(kt, 2)
		trees = append(trees, kt)
	}
	for _, kt := range trees {
		n := kt.Processors()
		for seed := int64(1); seed <= 3; seed++ {
			checkIdealAgainstRef(t, kt, randomMessages(n, 2*n*int(seed), seed, true))
		}
	}

	// A 130-wire leaf 10 (processor 5) under node 4 beside a 1-wire leaf 9:
	// external inputs to it win wires of its down port well past the first
	// child's width, and its outputs climb through node 4 and the root.
	var wide core.MessageSet
	for range 130 {
		wide = append(wide, core.Message{Src: core.External, Dst: 5}, core.Message{Src: 5, Dst: core.External})
	}
	checkIdealAgainstRef(t, overridden([2]int{1, 200}, [2]int{4, 130}, [2]int{9, 1}, [2]int{10, 130}), wide)
}

// checkIdealAgainstRef runs ms on ideal lossless switches on ft and demands
// the reference's outcome: Stats with no observer, a per-node and a
// per-level observer attached, the per-node observer's per-switch counters,
// the per-level observer's report, and every cycle's delivered flags and
// wire paths, with the lone pass left to its gate and forced on and off.
func checkIdealAgainstRef(t *testing.T, ft *core.FatTree, ms core.MessageSet) {
	t.Helper()
	ref := newRefEngine(ft, concentrator.KindIdeal, 0)
	want := ref.run(ms)
	perNode, perLevel := obsv.New(ft), obsv.NewCompact(ft)
	for _, o := range []*obsv.Observer{nil, perNode, perLevel} {
		if got := NewWithOptions(ft, concentrator.KindIdeal, 0, Options{Observer: o}).Run(ms); !reflect.DeepEqual(got, want) {
			t.Fatalf("%v: engine diverges from the reference\nref    %+v\nengine %+v", ft, want, got)
		}
	}
	checkSwitchCounters(t, perNode, ref)
	checkSameLevels(t, ft, perNode, perLevel)
	mk := func() *Engine { return New(ft, concentrator.KindIdeal, 0) }
	mkRef := func() *refEngine { return newRefEngine(ft, concentrator.KindIdeal, 0) }
	checkCycles(t, mk(), mkRef(), ms)
	checkLoneGates(t, mk, mkRef, ms, want)
}
