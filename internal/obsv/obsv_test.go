package obsv

import (
	"strings"
	"testing"

	"fattree/internal/core"
)

func TestRingOverwrite(t *testing.T) {
	r := NewRing(3)
	if r.Cap() != 3 || r.Len() != 0 {
		t.Fatalf("fresh ring: cap=%d len=%d", r.Cap(), r.Len())
	}
	for i := 0; i < 5; i++ {
		r.push(Event{Kind: EvInject, Flight: int32(i)})
	}
	if r.Len() != 3 {
		t.Fatalf("len = %d, want 3", r.Len())
	}
	if r.Overwritten() != 2 {
		t.Fatalf("overwritten = %d, want 2", r.Overwritten())
	}
	got := r.Events()
	for i, e := range got {
		if want := int32(i + 2); e.Flight != want {
			t.Fatalf("event %d flight = %d, want %d (oldest-first)", i, e.Flight, want)
		}
	}
	// Do must visit the same sequence without copying.
	var seen []int32
	r.Do(func(e Event) { seen = append(seen, e.Flight) })
	if len(seen) != 3 || seen[0] != 2 || seen[2] != 4 {
		t.Fatalf("Do order = %v", seen)
	}
	r.Reset()
	if r.Len() != 0 || r.Overwritten() != 0 || r.Cap() != 3 {
		t.Fatalf("reset ring: len=%d over=%d cap=%d", r.Len(), r.Overwritten(), r.Cap())
	}
}

func TestNewRingPanicsOnZeroCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewRing(0) did not panic")
		}
	}()
	NewRing(0)
}

func TestObserverCountersAndConservation(t *testing.T) {
	tr := core.NewUniversal(8, 4)
	o := New(tr)
	o.EnableTrace(64)

	m := core.Message{Src: 0, Dst: 5}
	o.CycleStart(3)
	o.Inject(0, m, tr.Leaf(0), 0)
	o.Inject(1, core.Message{Src: 1, Dst: 2}, tr.Leaf(1), 0)
	o.Defer(2, core.Message{Src: 2, Dst: 3}, tr.Leaf(2))
	o.SwitchDelta(2, 2, 1, 5, 1)
	o.Advance(0, m, 2, 2, int(core.Up), 1)
	o.Block(1, core.Message{Src: 1, Dst: 2}, 2)
	o.Deliver(0, m, 2)
	o.CycleEnd(1, 1, 1)
	o.Retries(1)

	c := &o.C
	if c.Cycles != 1 {
		t.Fatalf("cycles = %d", c.Cycles)
	}
	if c.Offered != c.Delivered+c.Dropped+c.Deferred {
		t.Fatalf("conservation broken: offered %d != %d+%d+%d",
			c.Offered, c.Delivered, c.Dropped, c.Deferred)
	}
	if c.Retried != 1 {
		t.Fatalf("retried = %d", c.Retried)
	}
	if got := c.WireUse[2*tr.Leaf(0)+int(core.Up)]; got != 1 {
		t.Fatalf("leaf 0 up wire-use = %d", got)
	}
	if got := c.WireUse[2*2+int(core.Up)]; got != 1 {
		t.Fatalf("node 2 up wire-use = %d", got)
	}
	if c.Requests[2] != 2 || c.Grants[2] != 1 || c.Drops[2] != 1 {
		t.Fatalf("switch 2 contention = req %d grant %d drop %d",
			c.Requests[2], c.Grants[2], c.Drops[2])
	}
	// Per-sweep hardware deltas accumulate.
	if c.MatchRounds[2] != 5 || c.Faults[2] != 1 {
		t.Fatalf("rounds=%d faults=%d", c.MatchRounds[2], c.Faults[2])
	}
	o.SwitchDelta(2, 1, 0, 2, 0)
	if c.MatchRounds[2] != 7 || c.Faults[2] != 1 {
		t.Fatalf("after second sweep rounds=%d faults=%d", c.MatchRounds[2], c.Faults[2])
	}
	// cycle-start, 2 injects, defer, advance, block, deliver, cycle-end.
	if o.Trace().Len() != 8 {
		t.Fatalf("traced events = %d, want 8", o.Trace().Len())
	}
}

func TestExternalInjectUsesRootDownChannel(t *testing.T) {
	tr := core.NewUniversal(8, 4)
	o := New(tr)
	o.Inject(0, core.Message{Src: core.External, Dst: 3}, 1, 0)
	if got := o.C.WireUse[2*1+int(core.Down)]; got != 1 {
		t.Fatalf("root down wire-use = %d, want 1", got)
	}
	if got := o.C.WireUse[2*1+int(core.Up)]; got != 0 {
		t.Fatalf("root up wire-use = %d, want 0", got)
	}
}

// TestStallAndQueueDirection pins the buffered-channel map of Stall and
// Queue: channel 2·v+dir lands in the slot of node v (the node itself per
// node, its level per level) and in direction dir, so the up and down
// channels above one node keep apart. The two directions get different
// counts, and every other entry must stay zero.
func TestStallAndQueueDirection(t *testing.T) {
	binary := core.NewUniversal(16, 4)
	kary := core.NewKary(core.KaryDesc{Down: []int{4, 4}, Up: []int{2, 1}, Parallel: []int{1, 1}})
	karyNode, _ := kary.LevelRange(1)
	for _, tc := range []struct {
		name string
		tr   *core.FatTree
		v    int
	}{{"binary", binary, 5}, {"kary", kary, karyNode + 1}} {
		for _, g := range []struct {
			name string
			bind func(*core.FatTree) *Observer
			slot func(tr *core.FatTree, v int) int
		}{
			{"per-node", New, func(_ *core.FatTree, v int) int { return v }},
			{"per-level", NewCompact, func(tr *core.FatTree, v int) int { return tr.Level(v) }},
		} {
			t.Run(tc.name+"/"+g.name, func(t *testing.T) {
				o := g.bind(tc.tr)
				up, down := 2*tc.v+int(core.Up), 2*tc.v+int(core.Down)
				o.Stall(up)
				o.Stall(down)
				o.Stall(down)
				o.Queue(up, 3)
				o.Queue(down, 7)
				s := g.slot(tc.tr, tc.v)
				for _, c := range []struct {
					name     string
					got      []int64
					up, down int64
				}{{"stalls", o.C.Stalls, 1, 2}, {"queue peak", o.C.QueuePeak, 3, 7}} {
					want := make([]int64, len(c.got))
					want[2*s+int(core.Up)], want[2*s+int(core.Down)] = c.up, c.down
					for i := range want {
						if c.got[i] != want[i] {
							t.Fatalf("%s[%d] = %d, want %d (node %d in slot %d: up %d, down %d)",
								c.name, i, c.got[i], want[i], tc.v, s, c.up, c.down)
						}
					}
				}
			})
		}
	}
}

func TestCountersEqualAndReset(t *testing.T) {
	tr := core.NewUniversal(8, 4)
	a, b := New(tr), New(tr)
	if !CountersEqual(a, b) {
		t.Fatal("fresh observers differ")
	}
	a.CycleStart(2)
	a.Inject(0, core.Message{Src: 0, Dst: 1}, tr.Leaf(0), 0)
	a.CycleEnd(1, 1, 0)
	if CountersEqual(a, b) {
		t.Fatal("recorded observer equals fresh observer")
	}
	a.Reset()
	if !CountersEqual(a, b) {
		t.Fatal("reset observer still differs from fresh observer")
	}
}

func TestPerLevelAndReport(t *testing.T) {
	tr := core.NewUniversal(8, 4)
	o := New(tr)
	o.CycleStart(1)
	o.Inject(0, core.Message{Src: 0, Dst: 7}, tr.Leaf(0), 0)
	o.SwitchDelta(1, 1, 0, 2, 0)
	o.Advance(0, core.Message{Src: 0, Dst: 7}, 1, 1, int(core.Up), 0)
	o.CycleEnd(1, 0, 0)

	rows := o.PerLevel()
	if len(rows) != tr.Levels()+1 {
		t.Fatalf("rows = %d, want %d", len(rows), tr.Levels()+1)
	}
	if rows[0].Nodes != 1 || rows[0].WireUse != 1 || rows[0].MatchRounds != 2 {
		t.Fatalf("root row = %+v", rows[0])
	}
	leaf := rows[tr.Levels()]
	if leaf.Nodes != tr.Processors() || leaf.WireUse != 1 {
		t.Fatalf("leaf row = %+v", leaf)
	}
	// One wire used out of 2·cap·nodes·cycles at the root.
	wantUtil := 1.0 / float64(2*rows[0].Capacity)
	if rows[0].Utilization != wantUtil {
		t.Fatalf("root utilization = %v, want %v", rows[0].Utilization, wantUtil)
	}

	var sb strings.Builder
	if err := o.Report(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{"observed 1 cycles", "offered 1", "level", "util"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q:\n%s", want, out)
		}
	}
}

// TestPerLevelMixedCapacity pins each level's capacity and total wires on
// both granularities against a walk of the tree's channels: a level reads
// mixed (-1) only when two of its channels differ, whatever overrides put
// them there.
func TestPerLevelMixedCapacity(t *testing.T) {
	cases := []struct {
		name  string
		set   func(tr *core.FatTree)
		level int
		want  int
	}{
		{"root overridden", func(tr *core.FatTree) { tr.SetChannelCapacity(1, 9) }, 0, 9},
		{"every node of a level overridden", func(tr *core.FatTree) {
			for v := 4; v < 8; v++ {
				tr.SetChannelCapacity(v, 3)
			}
		}, 2, 3},
		{"every node of a level, two values", func(tr *core.FatTree) {
			for v := 4; v < 8; v++ {
				tr.SetChannelCapacity(v, 2+v%2)
			}
		}, 2, -1},
		{"one node of a level overridden", func(tr *core.FatTree) { tr.SetChannelCapacity(2, 1+tr.CapAt(3)) }, 1, -1},
		{"one node overridden to the base", func(tr *core.FatTree) { tr.SetChannelCapacity(9, tr.CapAt(8)) }, 3, 1},
	}
	for _, c := range cases {
		for _, g := range []struct {
			name string
			bind func(*core.FatTree) *Observer
		}{{"per-node", New}, {"per-level", NewCompact}} {
			tr := core.NewUniversal(16, 4)
			c.set(tr)
			rows := g.bind(tr).PerLevel()
			for level, row := range rows {
				first, count := tr.LevelRange(level)
				capacity, wires := tr.CapAt(first), int64(0)
				for v := first; v < first+count; v++ {
					if tr.CapAt(v) != capacity {
						capacity = -1
					}
					wires += int64(tr.CapAt(v))
				}
				if row.Capacity != capacity || row.Wires != wires {
					t.Errorf("%s, %s: level %d capacity %d wires %d, want %d and %d",
						c.name, g.name, level, row.Capacity, row.Wires, capacity, wires)
				}
			}
			if got := rows[c.level].Capacity; got != c.want {
				t.Errorf("%s, %s: level %d capacity %d, want %d", c.name, g.name, c.level, got, c.want)
			}
		}
	}
}
