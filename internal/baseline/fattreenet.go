package baseline

import (
	"fattree/internal/core"
	"fattree/internal/decomp"
	"fattree/internal/vlsi"
)

// FatTreeNetwork adapts a fat-tree to the Network interface, so a fat-tree
// can play the role of the arbitrary routing network R in the Theorem 10
// machinery — including the pleasing self-application of simulating a
// fat-tree on a fat-tree. Graph nodes are the heap-indexed switches and
// leaves; each tree edge is modelled as cap(c) parallel unit links collapsed
// into one link of the store-and-forward simulator (the congestion figures
// thus overestimate the real fat-tree, which Deliver's callers account for by
// comparing shapes, not constants).
type FatTreeNetwork struct {
	ft     *core.FatTree
	layout *vlsi.TreeLayout
}

// NewFatTreeNetwork wraps the binary tree ft with its geometric layout.
func NewFatTreeNetwork(ft *core.FatTree) *FatTreeNetwork {
	core.RequireHeapIndexed(ft, "baseline: NewFatTreeNetwork")
	return &FatTreeNetwork{ft: ft, layout: vlsi.LayoutFatTree(ft)}
}

// Name returns "fat-tree".
func (f *FatTreeNetwork) Name() string { return "fat-tree" }

// Nodes returns 2n (heap slots; slot 0 unused).
func (f *FatTreeNetwork) Nodes() int { return 2 * f.ft.Processors() }

// Procs returns n.
func (f *FatTreeNetwork) Procs() int { return f.ft.Processors() }

// ProcNode returns processor p's leaf heap index.
func (f *FatTreeNetwork) ProcNode(p int) int { return f.ft.Leaf(p) }

// Degree returns 3 (tree node degree; channel widths are capacities, not
// extra links).
func (f *FatTreeNetwork) Degree() int { return 3 }

// BisectionWidth returns the root edge capacity — 2·cap(level 1) wires cross
// the halving cut.
func (f *FatTreeNetwork) BisectionWidth() int {
	return 2 * f.ft.Capacity(core.Channel{Node: 2, Dir: core.Up})
}

// Volume returns the *achieved* volume of the geometric layout.
func (f *FatTreeNetwork) Volume() float64 { return f.layout.Volume() }

// Layout returns the geometric processor placement.
func (f *FatTreeNetwork) Layout() *decomp.Layout { return f.layout.Processors }

// Route is the unique tree path through the least common ancestor.
func (f *FatTreeNetwork) Route(src, dst int) []int {
	path := []int{f.ft.Leaf(src)}
	for _, c := range f.ft.Path(core.Message{Src: src, Dst: dst}, nil) {
		if c.Dir == core.Up {
			path = append(path, c.Node>>1)
		} else {
			path = append(path, c.Node)
		}
	}
	return path
}

var _ Network = (*FatTreeNetwork)(nil)
