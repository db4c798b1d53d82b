package sched

import (
	"encoding/json"
	"fmt"
	"io"

	"fattree/internal/core"
)

// Schedules are compiled artifacts — Section II's off-line setting has the
// switch program "compiled, as when simulating a large VLSI design or
// emulating a fixed-connection network" — so they need a durable format.
// This file serializes schedules to JSON: portable between the scheduler
// host and the machine (or between runs of the cmd tools).

// scheduleJSON is the wire format.
type scheduleJSON struct {
	// Processors and Capacities identify the target fat-tree: a schedule is
	// only valid for the machine it was compiled for.
	Processors int     `json:"processors"`
	Capacities []int   `json:"capacities"` // per level, 0 = root
	LoadFactor float64 `json:"loadFactor"`
	Bound      float64 `json:"bound"`
	// Cycles lists each delivery cycle's messages as [src, dst] pairs
	// (External is -1).
	Cycles [][][2]int `json:"cycles"`
}

// WriteTo serializes the schedule as JSON.
func (s *Schedule) WriteTo(w io.Writer) (int64, error) {
	sj := scheduleJSON{
		Processors: s.Tree.Processors(),
		LoadFactor: s.LoadFactor,
		Bound:      s.Bound,
		Cycles:     make([][][2]int, len(s.Cycles)),
	}
	for k := 0; k <= s.Tree.Levels(); k++ {
		sj.Capacities = append(sj.Capacities, s.Tree.CapacityAtLevel(k))
	}
	for i, cyc := range s.Cycles {
		sj.Cycles[i] = make([][2]int, len(cyc))
		for j, m := range cyc {
			sj.Cycles[i][j] = [2]int{m.Src, m.Dst}
		}
	}
	cw := &countingWriter{w: w}
	enc := json.NewEncoder(cw)
	err := enc.Encode(sj)
	return cw.n, err
}

// ReadSchedule deserializes a schedule and binds it to the given fat-tree,
// verifying that the tree matches the one the schedule was compiled for
// (processor count and level capacities).
func ReadSchedule(r io.Reader, t *core.FatTree) (*Schedule, error) {
	var sj scheduleJSON
	if err := json.NewDecoder(r).Decode(&sj); err != nil {
		return nil, fmt.Errorf("sched: decoding schedule: %w", err)
	}
	if sj.Processors != t.Processors() {
		return nil, fmt.Errorf("sched: schedule compiled for n=%d, tree has n=%d",
			sj.Processors, t.Processors())
	}
	if len(sj.Capacities) != t.Levels()+1 {
		return nil, fmt.Errorf("sched: schedule has %d capacity levels, tree has %d",
			len(sj.Capacities), t.Levels()+1)
	}
	for k, c := range sj.Capacities {
		if t.CapacityAtLevel(k) != c {
			return nil, fmt.Errorf("sched: capacity mismatch at level %d: schedule %d, tree %d",
				k, c, t.CapacityAtLevel(k))
		}
	}
	s := &Schedule{Tree: t, LoadFactor: sj.LoadFactor, Bound: sj.Bound}
	for _, cyc := range sj.Cycles {
		out := make(core.MessageSet, len(cyc))
		for j, pair := range cyc {
			out[j] = core.Message{Src: pair[0], Dst: pair[1]}
		}
		s.Cycles = append(s.Cycles, out)
	}
	return s, nil
}

// Clone returns a deep copy of the schedule with independently owned cycle
// storage. Schedules produced by a reusable Scheduler are loans from its
// arena, invalidated by the scheduler's next call; Clone is the escape hatch
// that turns a loan into a durable artifact (the Tree pointer is shared —
// fat-trees are immutable apart from capacity overrides).
func (s *Schedule) Clone() *Schedule {
	out := &Schedule{Tree: s.Tree, LoadFactor: s.LoadFactor, Bound: s.Bound}
	if s.Cycles != nil {
		out.Cycles = make([]core.MessageSet, len(s.Cycles))
		for i, cyc := range s.Cycles {
			out.Cycles[i] = cyc.Clone()
		}
	}
	return out
}

// countingWriter tracks bytes written for the io.WriterTo contract.
type countingWriter struct {
	w io.Writer
	n int64
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.w.Write(p)
	cw.n += int64(n)
	return n, err
}
