package sched

import (
	"fmt"
	"math"
	"math/bits"

	"fattree/internal/core"
	"fattree/internal/obsv"
)

// A Schedule is a partition of a message set into one-cycle message sets
// M_1, ..., M_d: each cycle respects every channel capacity, so a fat-tree
// with ideal concentrator switches delivers each cycle in one delivery cycle.
type Schedule struct {
	Tree   *core.FatTree
	Cycles []core.MessageSet

	// LoadFactor is λ(M), the lower bound on the number of delivery cycles.
	LoadFactor float64
	// Bound is the theoretical upper bound on len(Cycles) guaranteed by the
	// algorithm that produced the schedule (Theorem 1 or Corollary 2).
	Bound float64
}

// Length returns d, the number of delivery cycles.
func (s *Schedule) Length() int { return len(s.Cycles) }

// Utilization returns the schedule's mean channel fill: the total
// wire-cycles actually carrying messages divided by the wire-cycles the
// loaded channels offer across all cycles. It measures how tightly the
// schedule packs (compaction raises it); channels with zero load in a cycle
// are excluded from the denominator only when they carry nothing in the
// *whole* schedule, so idle-by-design hardware does not mask slack.
func (s *Schedule) Utilization() float64 {
	if len(s.Cycles) == 0 {
		return 0
	}
	// everLoaded is a flat per-channel flag array indexed by 2·node+dir —
	// the same arena layout the engine's Replay uses — instead of a channel
	// map, so the two passes below do array reads only.
	everLoaded := make([]bool, 2*(s.Tree.Nodes()+1))
	any := false
	for _, cyc := range s.Cycles {
		l := core.NewLoads(s.Tree, cyc)
		s.Tree.Channels(func(c core.Channel) {
			if l.Load(c) > 0 {
				everLoaded[2*c.Node+int(c.Dir)] = true
				any = true
			}
		})
	}
	if !any {
		return 0
	}
	used, offered := 0, 0
	for _, cyc := range s.Cycles {
		l := core.NewLoads(s.Tree, cyc)
		s.Tree.Channels(func(c core.Channel) {
			if everLoaded[2*c.Node+int(c.Dir)] {
				used += l.Load(c)
				offered += s.Tree.Capacity(c)
			}
		})
	}
	return float64(used) / float64(offered)
}

// Messages returns the total number of messages across all cycles.
func (s *Schedule) Messages() int {
	total := 0
	for _, c := range s.Cycles {
		total += len(c)
	}
	return total
}

// Verify checks that the schedule is a valid partition of ms into one-cycle
// message sets: the concatenation of cycles equals ms as a multiset, and every
// cycle fits all channel capacities. It returns nil if the schedule is valid.
func (s *Schedule) Verify(ms core.MessageSet) error {
	if got := core.Concat(s.Cycles...); !got.Equal(ms) {
		return fmt.Errorf("sched: schedule is not a partition: %d messages scheduled, %d expected",
			len(got), len(ms))
	}
	for i, cyc := range s.Cycles {
		if !core.IsOneCycle(s.Tree, cyc) {
			l := core.NewLoads(s.Tree, cyc)
			f, arg := l.MaxFactor()
			return fmt.Errorf("sched: cycle %d is not one-cycle: λ=%.2f at channel %v", i, f, arg)
		}
	}
	return nil
}

// crossing holds the two oriented message sets whose least common ancestor is
// a given node: lr goes from the left subtree to the right, rl the reverse.
type crossing struct {
	lr, rl core.MessageSet
}

// groupByLCA buckets internal messages by their unique least-common-ancestor
// switch and crossing direction, and external messages by direction (they
// all cross the root interface). byNode is a flat slice indexed by heap node
// id (internal LCAs occupy 1..n-1; index 0 and the leaves stay empty), so
// grouping is one array write per message with no map churn, and callers
// iterate nodes in ascending id order without sorting.
//
//ftlint:hotpath
func groupByLCA(t *core.FatTree, ms core.MessageSet) (byNode []crossing, extOut, extIn core.MessageSet) {
	byNode = make([]crossing, t.Processors())
	for _, m := range ms {
		if m.IsExternal() {
			if m.Dst == core.External {
				extOut = append(extOut, m)
			} else {
				extIn = append(extIn, m)
			}
			continue
		}
		// Heap-index LCA of the two leaves; the bit below the common prefix
		// on the source side tells which child subtree the message departs
		// from (0 = left, so it crosses left-to-right).
		a, b := t.Leaf(m.Src), t.Leaf(m.Dst)
		shift := uint(bits.Len(uint(a ^ b)))
		x := &byNode[a>>shift]
		if (a>>(shift-1))&1 == 0 {
			x.lr = append(x.lr, m)
		} else {
			x.rl = append(x.rl, m)
		}
	}
	return byNode, extOut, extIn
}

// empty reports whether no message crosses this node.
func (x *crossing) empty() bool { return len(x.lr) == 0 && len(x.rl) == 0 }

// OffLine schedules ms on t using the algorithm of Theorem 1: the messages
// through the root are partitioned into one-cycle sets by repeated even
// bisection (left-to-right and right-to-left crossings routed simultaneously),
// then the messages within the two subtrees of the root are recursively
// partitioned; subtrees with roots at the same level are routed at the same
// time. The schedule length satisfies d = O(λ(M)·lg n); Theorem 1's explicit
// form is d <= sum over levels of 2·ceil(λ_level) <= 2(λ(M)+1)·lg n.
//
// OffLine constructs a fresh Scheduler per call, so the returned schedule is
// independently owned; loops that schedule many message sets on one tree
// should hold a Scheduler and call its OffLine method instead.
func OffLine(t *core.FatTree, ms core.MessageSet) *Schedule {
	//ftlint:ignore loanescape fresh Scheduler per call: its arena is unreachable elsewhere, so the result is independently owned
	return NewScheduler(t).OffLine(ms)
}

// OffLineObserved is OffLine with the observability layer attached: the
// observer's SchedLevel counters record, per tree level, how many delivery
// cycles the level contributed to the schedule and how many messages have
// their LCA there (index lg n + 1 holds the external-traffic block). The
// schedule produced is identical to OffLine's.
func OffLineObserved(t *core.FatTree, ms core.MessageSet, o *obsv.Observer) *Schedule {
	//ftlint:ignore loanescape fresh Scheduler per call: its arena is unreachable elsewhere, so the result is independently owned
	return NewScheduler(t).OffLineObserved(ms, o)
}

// OffLineBig schedules ms on t using the algorithm of Corollary 2, which
// applies when channel capacities are large (cap(c) >= α·lg n for α > 1).
// Fictitious capacities cap'(c) = cap(c) - lg n determine a load factor λ'(M);
// every node's crossing sets are bisected the same fixed number of times and
// part i of *every* node is routed in the same delivery cycle. The bisections
// are even to within one message per channel, and the error accumulated down
// the tree is at most lg n per channel, absorbed by the fictitious slack.
// The schedule length is the smallest power of two >= λ'(M), hence
// d <= 2·λ'(M) = 2(α/(α-1))·λ(M) when capacities are >= α·lg n.
func OffLineBig(t *core.FatTree, ms core.MessageSet) *Schedule {
	if !core.HeapIndexed(t) {
		panic("sched: the Theorem 1 scheduler requires a heap-indexed binary fat-tree; use Greedy for k-ary topologies")
	}
	if err := ms.Validate(t); err != nil {
		panic(err)
	}
	slack := core.Lg(t.Processors())
	lambdaPrime := core.LoadFactorWithSlack(t, ms, slack)
	rounds := 0
	for 1<<uint(rounds) < int(math.Ceil(lambdaPrime)) {
		rounds++
	}
	r := 1 << uint(rounds)

	s := &Schedule{
		Tree:       t,
		LoadFactor: core.LoadFactor(t, ms),
		Bound:      2 * lambdaPrime,
	}
	if s.Bound < 1 {
		s.Bound = 1
	}

	byNode, extOut, extIn := groupByLCA(t, ms)

	cycles := make([]core.MessageSet, r)
	for _, q := range []core.MessageSet{extOut, extIn} {
		parts := bisectRoundsWith(q, rounds, func(p core.MessageSet) (core.MessageSet, core.MessageSet) {
			return EvenBisectExternal(t, p)
		})
		for i, p := range parts {
			cycles[i] = append(cycles[i], p...)
		}
	}
	// byNode is indexed by heap node id, so ascending v is already the
	// deterministic (sorted) node order.
	for v := 1; v < len(byNode); v++ {
		x := &byNode[v]
		if x.empty() {
			continue
		}
		for _, q := range []core.MessageSet{x.lr, x.rl} {
			parts := bisectRounds(t, v, q, rounds)
			for i, p := range parts {
				cycles[i] = append(cycles[i], p...)
			}
		}
	}

	// Corollary 2's correctness argument needs the fictitious slack to absorb
	// the ±1-per-level bisection error, i.e. cap(c) >= α·lg n everywhere.
	// For fat-trees outside that regime (e.g. capacity-1 leaf channels) the
	// cycles may overflow; extract the overflowing messages and schedule the
	// remainder with Theorem 1 so OffLineBig is correct on every input while
	// retaining the Corollary 2 bound whenever its precondition holds (the
	// remainder is then empty).
	var remainder core.MessageSet
	for _, c := range cycles {
		fit, over := trimToCapacity(t, c)
		if len(fit) > 0 {
			s.Cycles = append(s.Cycles, fit)
		}
		remainder = append(remainder, over...)
	}
	if len(remainder) > 0 {
		tail := OffLine(t, remainder)
		s.Cycles = append(s.Cycles, tail.Cycles...)
		s.Bound += tail.Bound
	}
	return s
}

// trimToCapacity greedily keeps a maximal prefix-feasible subset of cycle:
// messages are admitted in order as long as no channel on their path exceeds
// its capacity; the rest are returned as overflow.
func trimToCapacity(t *core.FatTree, cycle core.MessageSet) (fit, over core.MessageSet) {
	loads := core.NewLoads(t, nil)
	var buf []core.Channel
	for _, m := range cycle {
		buf = t.Path(m, buf[:0])
		ok := true
		for _, c := range buf {
			if loads.Load(c)+1 > t.Capacity(c) {
				ok = false
				break
			}
		}
		if ok {
			loads.Add(m)
			fit = append(fit, m)
		} else {
			over = append(over, m)
		}
	}
	return fit, over
}

// bisectRounds splits q into 2^rounds parts by repeated even bisection at
// node v.
func bisectRounds(t *core.FatTree, v int, q core.MessageSet, rounds int) []core.MessageSet {
	return bisectRoundsWith(q, rounds, func(p core.MessageSet) (core.MessageSet, core.MessageSet) {
		return EvenBisect(t, v, p)
	})
}

// bisectRoundsWith splits q into 2^rounds parts with the given bisection.
func bisectRoundsWith(q core.MessageSet, rounds int,
	bisect func(core.MessageSet) (core.MessageSet, core.MessageSet)) []core.MessageSet {
	parts := []core.MessageSet{q}
	for i := 0; i < rounds; i++ {
		next := make([]core.MessageSet, 0, 2*len(parts))
		for _, p := range parts {
			a, b := bisect(p)
			next = append(next, a, b)
		}
		parts = next
	}
	return parts
}

// Greedy is a baseline scheduler used for comparison in the benchmarks: it
// fills delivery cycles first-fit in message order without the even-bisection
// machinery. It is correct (cycles are one-cycle sets) but offers no bound
// better than d <= Σ load — on adversarial inputs it can be a lg n factor or
// worse off the Theorem 1 schedule.
func Greedy(t *core.FatTree, ms core.MessageSet) *Schedule {
	if err := ms.Validate(t); err != nil {
		panic(err)
	}
	s := &Schedule{Tree: t, LoadFactor: core.LoadFactor(t, ms)}
	var cycleLoads []*core.Loads
	for _, m := range ms {
		placed := false
		for i, l := range cycleLoads {
			// The cycle fits without m, so only m's path can overflow.
			if l.AddFits(m) {
				s.Cycles[i] = append(s.Cycles[i], m)
				placed = true
				break
			}
			l.Remove(m)
		}
		if !placed {
			l := core.NewLoads(t, core.MessageSet{m})
			cycleLoads = append(cycleLoads, l)
			s.Cycles = append(s.Cycles, core.MessageSet{m})
		}
	}
	s.Bound = math.Inf(1)
	return s
}
