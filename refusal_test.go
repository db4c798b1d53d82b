package fattree_test

import (
	"fmt"
	"io"
	"strings"
	"testing"

	"fattree/internal/baseline"
	"fattree/internal/core"
	"fattree/internal/sched"
	"fattree/internal/sim"
	"fattree/internal/trace"
	"fattree/internal/viz"
	"fattree/internal/vlsi"
)

// TestHeapOnlyEntryPointsRefuseKary feeds a non-binary tree to every entry
// point that navigates its tree with heap arithmetic (v/2, 2v, n+p, bits.Len
// on node ids) and expects the up-front refusal, not a misrouted result or a
// stray index panic from deep inside.
func TestHeapOnlyEntryPointsRefuseKary(t *testing.T) {
	kt := core.NewKary(core.KaryDesc{Down: []int{4, 4}, Up: []int{2, 1}, Parallel: []int{1, 1}})
	ms := core.MessageSet{{Src: 0, Dst: 5}, {Src: 3, Dst: 12}}
	const binaryOnly = "needs a binary (heap-indexed) fat-tree"
	cases := []struct {
		name, want string
		call       func()
	}{
		{"sim.RunBuffered", binaryOnly, func() { sim.RunBuffered(kt, ms, 2) }},
		{"sim.RunBufferedObserved", binaryOnly, func() { sim.RunBufferedObserved(kt, ms, 2, nil) }},
		{"sim.EncodeHeader", "frame format is binary", func() {
			sim.EncodeHeader(kt, sim.WirePath{Msg: ms[0]}, 8)
		}},
		{"viz.Silhouette", binaryOnly, func() { viz.Silhouette(io.Discard, kt) }},
		{"viz.Utilization", binaryOnly, func() { viz.Utilization(io.Discard, kt, ms) }},
		{"viz.ScheduleGantt", binaryOnly, func() { viz.ScheduleGantt(io.Discard, kt, []core.MessageSet{ms}) }},
		{"vlsi.LayoutFatTree", binaryOnly, func() { vlsi.LayoutFatTree(kt) }},
		{"baseline.NewFatTreeNetwork", binaryOnly, func() { baseline.NewFatTreeNetwork(kt) }},
		{"trace.Run", binaryOnly, func() { trace.Run(kt, trace.FFT(16), 8) }},
		{"sched.EvenBisect", binaryOnly, func() { sched.EvenBisect(kt, 1, ms) }},
		{"sched.EvenBisectExternal", binaryOnly, func() {
			sched.EvenBisectExternal(kt, core.MessageSet{{Src: 0, Dst: core.External}, {Src: 9, Dst: core.External}})
		}},
		{"sched.NewScheduler", "requires a heap-indexed binary fat-tree", func() { sched.NewScheduler(kt) }},
		{"sched.OffLineBig", "requires a heap-indexed binary fat-tree", func() { sched.OffLineBig(kt, ms) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if got := fmt.Sprint(recover()); !strings.Contains(got, c.want) {
					t.Fatalf("recovered %q, want a refusal containing %q", got, c.want)
				}
			}()
			c.call()
		})
	}
	if err := trace.FFT(16).Validate(kt); err == nil || !strings.Contains(err.Error(), binaryOnly) {
		t.Fatalf("trace Validate on a k-ary tree: %v, want a refusal containing %q", err, binaryOnly)
	}
}
