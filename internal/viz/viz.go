// Package viz renders terminal visualizations of fat-tree state: per-level
// capacity/utilization bars and tree silhouettes. The experiments and cmd
// tools use it to make the "fat" in fat-tree visible — capacities thickening
// toward the root and traffic concentrating where the workload's locality
// puts it.
package viz

import (
	"fmt"
	"io"
	"strings"

	"fattree/internal/core"
	"fattree/internal/decomp"
)

// barWidth is the maximum bar length in characters.
const barWidth = 40

// Silhouette writes an ASCII silhouette of the fat-tree: one row per level,
// bar length proportional to the level's channel capacity — the Fig. 1
// picture, sideways.
func Silhouette(w io.Writer, t *core.FatTree) {
	core.RequireHeapIndexed(t, "viz: Silhouette")
	maxCap := t.CapacityAtLevel(0)
	fmt.Fprintf(w, "fat-tree silhouette (n=%d, root capacity %d)\n", t.Processors(), t.RootCapacity())
	for k := 0; k <= t.Levels(); k++ {
		c := t.CapacityAtLevel(k)
		bar := scaled(c, maxCap)
		label := "switches"
		if k == 0 {
			label = "root"
		} else if k == t.Levels() {
			label = "leaves"
		}
		fmt.Fprintf(w, "L%-2d %-*s cap %-6d ×%-6d %s\n", k, barWidth, bar, c, 1<<uint(k), label)
	}
}

// Utilization writes per-level utilization bars for a message set: for each
// level, the most loaded channel's load against its capacity. Overloaded
// levels (λ > 1) are flagged — they are the channels that force extra
// delivery cycles.
func Utilization(w io.Writer, t *core.FatTree, ms core.MessageSet) {
	core.RequireHeapIndexed(t, "viz: Utilization")
	loads := core.NewLoads(t, ms)
	fmt.Fprintf(w, "per-level peak utilization (%d messages, λ = %.2f)\n",
		len(ms), core.LoadFactor(t, ms))
	for k := 0; k <= t.Levels(); k++ {
		maxLoad := 0
		first := 1 << uint(k)
		for v := first; v < 2*first && v < 2*t.Processors(); v++ {
			for _, dir := range []core.Direction{core.Up, core.Down} {
				if l := loads.Load(core.Channel{Node: v, Dir: dir}); l > maxLoad {
					maxLoad = l
				}
			}
		}
		cap := t.CapacityAtLevel(k)
		frac := float64(maxLoad) / float64(cap)
		bar := scaledFrac(frac)
		flag := ""
		if frac > 1 {
			flag = fmt.Sprintf("  <- overloaded %.1fx", frac)
		}
		fmt.Fprintf(w, "L%-2d %-*s %4d/%-4d%s\n", k, barWidth+2, bar, maxLoad, cap, flag)
	}
}

// DecompositionProfile renders a decomposition tree's per-level bandwidths
// as bars — the (w, a) staircase of Theorem 5, with the measured decay ratio
// in the footer.
func DecompositionProfile(w io.Writer, t *decomp.Tree) {
	fmt.Fprintf(w, "decomposition tree: depth %d, %d processors\n", t.Depth, t.Procs())
	max := t.W[0]
	for i, bw := range t.W {
		n := int(bw / max * float64(barWidth))
		if n == 0 && bw > 0 {
			n = 1
		}
		fmt.Fprintf(w, "L%-2d %-*s %.1f\n", i, barWidth, strings.Repeat("█", n), bw)
	}
	fmt.Fprintf(w, "per-level decay ratio a = %.3f\n", t.Ratio())
}

// ScheduleGantt renders a schedule as a level × cycle occupancy chart: one
// row per tree level, one column per delivery cycle, each cell showing how
// full the level's most loaded channel is in that cycle (' ' idle, '.' <50%,
// 'o' <100%, '#' full). Level-sequential Theorem 1 schedules show a
// staircase; compacted schedules fill the rectangle.
func ScheduleGantt(w io.Writer, t *core.FatTree, cycles []core.MessageSet) {
	core.RequireHeapIndexed(t, "viz: ScheduleGantt")
	fmt.Fprintf(w, "schedule occupancy (%d cycles x %d levels)\n", len(cycles), t.Levels()+1)
	grids := make([][]byte, t.Levels()+1)
	for k := range grids {
		grids[k] = make([]byte, len(cycles))
	}
	for ci, cyc := range cycles {
		loads := core.NewLoads(t, cyc)
		for k := 0; k <= t.Levels(); k++ {
			maxFrac := 0.0
			first := 1 << uint(k)
			for v := first; v < 2*first; v++ {
				for _, dir := range []core.Direction{core.Up, core.Down} {
					c := core.Channel{Node: v, Dir: dir}
					f := float64(loads.Load(c)) / float64(t.Capacity(c))
					if f > maxFrac {
						maxFrac = f
					}
				}
			}
			switch {
			case maxFrac == 0:
				grids[k][ci] = ' '
			case maxFrac < 0.5:
				grids[k][ci] = '.'
			case maxFrac < 1:
				grids[k][ci] = 'o'
			default:
				grids[k][ci] = '#'
			}
		}
	}
	for k, row := range grids {
		fmt.Fprintf(w, "L%-2d |%s|\n", k, string(row))
	}
}

// CycleProfile writes a histogram of messages delivered per cycle — the
// drain curve of an online run.
func CycleProfile(w io.Writer, perCycle []int) {
	max := 0
	for _, c := range perCycle {
		if c > max {
			max = c
		}
	}
	if max == 0 {
		fmt.Fprintln(w, "(no deliveries)")
		return
	}
	fmt.Fprintf(w, "deliveries per cycle (%d cycles)\n", len(perCycle))
	for i, c := range perCycle {
		fmt.Fprintf(w, "cycle %-4d %-*s %d\n", i+1, barWidth, scaled(c, max), c)
	}
}

// scaled renders a bar of length proportional to v/max.
func scaled(v, max int) string {
	if max == 0 {
		return ""
	}
	n := v * barWidth / max
	if n == 0 && v > 0 {
		n = 1
	}
	return strings.Repeat("█", n)
}

// scaledFrac renders a utilization bar: full width means 100%; overload is
// shown with a '!' tail capped at the bar width plus two.
func scaledFrac(frac float64) string {
	n := int(frac * barWidth)
	if n <= barWidth {
		if n == 0 && frac > 0 {
			n = 1
		}
		return strings.Repeat("█", n)
	}
	return strings.Repeat("█", barWidth) + "!!"
}
