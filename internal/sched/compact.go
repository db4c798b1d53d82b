package sched

import "fattree/internal/core"

// Compact merges s's delivery cycles greedily into the scheduler's arena:
// each cycle's messages are folded into the earliest prior cycle with spare
// capacity on every affected channel. Theorem 1 schedules are
// level-sequential — the cycles of level L+1 start after level L's even when
// the channels they use are disjoint — so compaction typically removes a
// large fraction of the cycles on workloads whose load spreads across levels,
// without affecting validity (every output cycle is still a one-cycle message
// set). The Theorem 1 upper bound is preserved because compaction never adds
// cycles. s must be a schedule on the scheduler's tree; the result is a loan
// valid until the next Compact/OffLineCompact call on this scheduler (it is
// independent of the OffLine arena, so compacting the last OffLine result is
// safe).
//
//ftlint:loan
//ftlint:hotpath
func (sc *Scheduler) Compact(s *Schedule) *Schedule {
	if s.Tree != sc.tree {
		panic("sched: Compact: schedule belongs to a different fat-tree")
	}
	// Reset the previous call's cycle buffers and load tables; doing it here
	// rather than on return keeps the previous result valid until this call.
	for j := 0; j < sc.cmpUsed; j++ {
		sc.cmpCycles[j] = sc.cmpCycles[j][:0]
		clear(sc.cmpLoads[j])
	}
	used := 0
	for _, cyc := range s.Cycles {
		for _, m := range cyc {
			sc.cmpPath = sc.tree.Path(m, sc.cmpPath[:0])
			placed := false
			for j := 0; j < used; j++ {
				ld := sc.cmpLoads[j]
				fits := true
				for _, c := range sc.cmpPath {
					if int(ld[2*c.Node+int(c.Dir)])+1 > sc.caps[c.Node] {
						fits = false
						break
					}
				}
				if fits {
					for _, c := range sc.cmpPath {
						ld[2*c.Node+int(c.Dir)]++
					}
					sc.cmpCycles[j] = append(sc.cmpCycles[j], m)
					placed = true
					break
				}
			}
			if !placed {
				if used == len(sc.cmpCycles) {
					sc.cmpCycles = append(sc.cmpCycles, nil)
					sc.cmpLoads = append(sc.cmpLoads, make([]int32, 4*sc.n))
				}
				ld := sc.cmpLoads[used]
				for _, c := range sc.cmpPath {
					ld[2*c.Node+int(c.Dir)]++
				}
				sc.cmpCycles[used] = append(sc.cmpCycles[used], m)
				used++
			}
		}
	}
	sc.cmpUsed = used
	sc.cmpOut = Schedule{Tree: s.Tree, LoadFactor: s.LoadFactor, Bound: s.Bound}
	if used > 0 {
		sc.cmpOut.Cycles = sc.cmpCycles[:used]
	}
	return &sc.cmpOut
}

// OffLineCompact schedules ms with Theorem 1 and compacts the result — the
// recommended production entry point: same worst-case guarantee, fewer cycles
// in practice. The result is a loan from the scheduler's arena.
//
//ftlint:loan
func (sc *Scheduler) OffLineCompact(ms core.MessageSet) *Schedule {
	return sc.Compact(sc.schedule(ms, nil))
}

// Compact merges a schedule's delivery cycles greedily (never more cycles,
// usually fewer). It constructs a fresh Scheduler per call, so the result is
// independently owned.
func Compact(s *Schedule) *Schedule {
	//ftlint:ignore loanescape fresh Scheduler per call: its arena is unreachable elsewhere, so the result is independently owned
	return NewScheduler(s.Tree).Compact(s)
}

// OffLineCompact runs the Theorem 1 scheduler and compacts the result. It
// constructs a fresh Scheduler per call; loops should hold a Scheduler and
// call its OffLineCompact method instead.
func OffLineCompact(t *core.FatTree, ms core.MessageSet) *Schedule {
	//ftlint:ignore loanescape fresh Scheduler per call: its arena is unreachable elsewhere, so the result is independently owned
	return NewScheduler(t).OffLineCompact(ms)
}
