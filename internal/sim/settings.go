package sim

import (
	"fmt"

	"fattree/internal/concentrator"
	"fattree/internal/core"
	"fattree/internal/obsv"
	"fattree/internal/sched"
)

// This file implements the paper's off-line compilation artifact: "the
// switches, although dynamically set, have their settings predetermined by an
// off-line scheduling algorithm" (Section II). CompileSettings runs a
// schedule through the engine once and records every wire assignment; the
// result is the compiled program a real off-line fat-tree would load —
// per delivery cycle, per message, the exact wire held in every channel on
// its path. The engine itself, like the switches it models, keeps no record
// of the wires it granted, so the paths are read back from the event ring of
// an observer attached for the compilation. Replay applies the settings with no concentrator logic at all
// (the acknowledgment hardware can be omitted, "thereby reducing the
// complexity of the design") and re-verifies the physical invariants.

// WirePath is a message's compiled route: the wire it occupies in each
// channel along its unique path, in path order.
type WirePath struct {
	Msg   core.Message
	Wires []int // parallel to the tree path returned by FatTree.Path
}

// Settings is a compiled schedule: the complete switch program for a message
// set.
type Settings struct {
	Tree   *core.FatTree
	Cycles [][]WirePath
}

// CycleCount returns the number of delivery cycles in the program.
func (st *Settings) CycleCount() int { return len(st.Cycles) }

// Messages returns the total message count across cycles.
func (st *Settings) Messages() int {
	total := 0
	for _, c := range st.Cycles {
		total += len(c)
	}
	return total
}

// CompileSettings lowers a valid schedule to switch settings by running each
// cycle through ideal-concentrator hardware and recording the wire
// assignments. It panics if the schedule drops anything — a valid one-cycle
// partition never does on ideal switches, so a panic means the schedule was
// not verified.
func CompileSettings(t *core.FatTree, s *sched.Schedule) *Settings {
	e := New(t, concentrator.KindIdeal, 0)
	st := &Settings{Tree: t, Cycles: make([][]WirePath, len(s.Cycles))}
	for ci, cyc := range s.Cycles {
		delivered, res, paths := e.runCycleTraced(cyc)
		for i, ok := range delivered {
			if !ok {
				panic(fmt.Sprintf("sim: compile dropped message %v in cycle %d (%+v) — unverified schedule?",
					cyc[i], ci, res))
			}
			st.Cycles[ci] = append(st.Cycles[ci], WirePath{Msg: cyc[i], Wires: paths[i]})
		}
	}
	return st
}

// runCycleTraced is one delivery cycle of pending plus its wire paths:
// paths[i] is message i's wire in each channel of its path, in path order,
// and nil unless the message was delivered. The paths are read from the
// inject and advance events of a per-level observer attached for the cycle,
// whose ring is sized to hold every event the cycle can record: a start and
// an end, and per flight an inject, at most 2·levels − 1 advances and a
// deliver or block. A ring that overwrote an event panics. The engine must
// have no observer of its own; it has none afterwards.
func (e *Engine) runCycleTraced(pending core.MessageSet) ([]bool, CycleResult, [][]int) {
	o := obsv.NewCompact(e.tree)
	ring := o.EnableTrace(2 + len(pending)*(2*e.tree.Levels()+1))
	e.SetObserver(o)
	delivered, res := e.runCycle(pending)
	e.SetObserver(nil)
	if ring.Overwritten() > 0 {
		panic(fmt.Sprintf("sim: event ring overwrote %d events; wire paths incomplete", ring.Overwritten()))
	}
	paths := make([][]int, len(pending))
	ring.Do(func(ev obsv.Event) {
		if (ev.Kind == obsv.EvInject || ev.Kind == obsv.EvAdvance) && delivered[ev.Flight] {
			paths[ev.Flight] = append(paths[ev.Flight], int(ev.Wire))
		}
	})
	return delivered, res, paths
}

// Replay validates and "executes" compiled settings without any switching
// logic: for every cycle it checks that each message's wire path is
// consistent (one wire per channel on the unique route, within capacity,
// no two messages sharing a wire) and returns the delivery count. It is the
// software analog of streaming the program through dumb switches.
//
// The wire-occupancy check uses one flat arena over all channels — an offset
// table built from the memoized capacity table plus a cycle-stamped wire
// array — rather than nested per-channel maps, so replaying a program does
// O(total wires) setup once and O(1) work per wire thereafter.
func (st *Settings) Replay() (delivered int, err error) {
	caps := core.CapTableOf(st.Tree)
	// off[2*v+dir] is the arena offset of channel (v, dir); both directions
	// of an edge have the same width but occupy distinct wire slots.
	off := make([]int, 2*len(caps))
	total := 0
	for v := 1; v < len(caps); v++ {
		off[2*v] = total
		off[2*v+1] = total + caps[v]
		total += 2 * caps[v]
	}
	used := make([]int, total) // stamped with cycle index + 1; zero = free

	var buf []core.Channel
	for ci, cyc := range st.Cycles {
		stamp := ci + 1
		for _, wp := range cyc {
			buf = st.Tree.Path(wp.Msg, buf[:0])
			if len(buf) != len(wp.Wires) {
				return delivered, fmt.Errorf("sim: cycle %d message %v: %d wires for %d channels",
					ci, wp.Msg, len(wp.Wires), len(buf))
			}
			for i, c := range buf {
				w := wp.Wires[i]
				if w < 0 || w >= caps[c.Node] {
					return delivered, fmt.Errorf("sim: cycle %d message %v: wire %d out of range on %v",
						ci, wp.Msg, w, c)
				}
				slot := off[2*c.Node+int(c.Dir)] + w
				if used[slot] == stamp {
					return delivered, fmt.Errorf("sim: cycle %d: wire %d of %v assigned twice", ci, w, c)
				}
				used[slot] = stamp
			}
			delivered++
		}
	}
	return delivered, nil
}
