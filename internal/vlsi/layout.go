package vlsi

import (
	"fmt"
	"math"

	"fattree/internal/core"
	"fattree/internal/decomp"
)

// This file realizes a fat-tree geometrically: a recursive three-dimensional
// placement in the spirit of the Leighton–Rosenberg construction Theorem 4
// cites. Each subtree occupies a box; a node's two child boxes sit side by
// side along the box's currently shortest axis, and the node's own switch
// occupies a slab of volume Θ(m^(3/2)) extending the next-shortest axis —
// the greedy choices keep every box near-cubic. The achieved bounding volume
// is a constructive witness for the Theorem 4 figure, and the resulting
// processor positions feed the Section V decomposition machinery — letting a
// fat-tree be decomposed, balanced and simulated like any other network.

// PlacedBox is an axis-aligned box at a position.
type PlacedBox struct {
	Origin decomp.Point
	Size   Box
}

// TreeLayout is a complete 3-D placement of a fat-tree.
type TreeLayout struct {
	Tree *core.FatTree
	// Switches[v] is the slab occupied by internal node v (index 1..n-1);
	// index 0 is unused.
	Switches []PlacedBox
	// Processors places the leaf processors inside the bounding cube.
	Processors *decomp.Layout
	// Bounding is the total box of the layout.
	Bounding Box
	// BoxSum is the summed volume of switch slabs and unit processor cells —
	// a lower bound on any layout of this tree.
	BoxSum float64
}

// Volume returns the achieved bounding volume.
func (tl *TreeLayout) Volume() float64 { return tl.Bounding.Volume() }

// AspectRatio returns the longest side over the shortest side of the
// bounding box; the construction keeps it bounded.
func (tl *TreeLayout) AspectRatio() float64 {
	lo := math.Min(tl.Bounding.X, math.Min(tl.Bounding.Y, tl.Bounding.Z))
	hi := math.Max(tl.Bounding.X, math.Max(tl.Bounding.Y, tl.Bounding.Z))
	return hi / lo
}

// LayoutFatTree computes the recursive placement of the binary tree t.
func LayoutFatTree(t *core.FatTree) *TreeLayout {
	core.RequireHeapIndexed(t, "vlsi: LayoutFatTree")
	tl := &TreeLayout{
		Tree:     t,
		Switches: make([]PlacedBox, t.Processors()),
		Processors: &decomp.Layout{
			Pos: make([]decomp.Point, t.Processors()),
		},
	}

	// dims computes the box shape of each subtree bottom-up. The stacking and
	// slab axes are chosen greedily (always extend the currently shortest
	// side), which keeps every box near-cubic; the choices are recorded so
	// the placement pass below makes the same ones.
	n := t.Processors()
	dims := make([]Box, 2*n)
	stackAxis := make([]int, n)
	slabAxisOf := make([]int, n)
	var computeDims func(v int) Box
	computeDims = func(v int) Box {
		if v >= n { // leaf: a unit processor cell
			dims[v] = Box{X: 1, Y: 1, Z: 1}
			tl.BoxSum++
			return dims[v]
		}
		child := computeDims(2 * v)
		other := computeDims(2*v + 1)
		// Children sit side by side along the currently shortest axis; their
		// shapes can differ only via per-channel overrides, so take the max
		// in the other axes.
		b := Box{
			X: math.Max(child.X, other.X),
			Y: math.Max(child.Y, other.Y),
			Z: math.Max(child.Z, other.Z),
		}
		stack := shortestAxis(b)
		stackAxis[v] = stack
		setAxis(&b, stack, axis(child, stack)+axis(other, stack))
		// The node's switch slab extends the (new) shortest axis.
		m := nodeWires(t, v)
		slab := shortestAxis(b)
		slabAxisOf[v] = slab
		face := b.Volume() / axis(b, slab)
		thickness := math.Pow(float64(m), 1.5) / face
		tl.BoxSum += math.Pow(float64(m), 1.5)
		setAxis(&b, slab, axis(b, slab)+thickness)
		dims[v] = b
		return b
	}
	tl.Bounding = computeDims(1)

	// place assigns origins top-down, repeating the recorded axis choices.
	var place func(v int, origin decomp.Point)
	place = func(v int, origin decomp.Point) {
		if v >= n {
			tl.Processors.Pos[t.ProcessorOf(v)] = decomp.Point{
				X: origin.X + 0.5, Y: origin.Y + 0.5, Z: origin.Z + 0.5,
			}
			return
		}
		stack := stackAxis[v]
		slab := slabAxisOf[v]
		b := dims[v]
		left, right := dims[2*v], dims[2*v+1]
		place(2*v, origin)
		childOrigin := origin
		shiftPoint(&childOrigin, stack, axis(left, stack))
		place(2*v+1, childOrigin)
		// Switch slab: the region above the children along the slab axis.
		childHeight := math.Max(axis(left, slab), axis(right, slab))
		slabOrigin := origin
		shiftPoint(&slabOrigin, slab, childHeight)
		slabSize := b
		setAxis(&slabSize, slab, axis(b, slab)-childHeight)
		tl.Switches[v] = PlacedBox{Origin: slabOrigin, Size: slabSize}
	}
	place(1, decomp.Point{})

	// The decomposition machinery wants a cube: use the longest side, with
	// the layout in a corner.
	side := math.Max(tl.Bounding.X, math.Max(tl.Bounding.Y, tl.Bounding.Z))
	tl.Processors.Side = side * (1 + 1e-9)
	return tl
}

// nodeWires counts the wires incident on node v (both directions of the
// parent channel and the two child channels).
func nodeWires(t *core.FatTree, v int) int {
	capParent := t.Capacity(core.Channel{Node: v, Dir: core.Up})
	capLeft := t.Capacity(core.Channel{Node: 2 * v, Dir: core.Up})
	capRight := t.Capacity(core.Channel{Node: 2*v + 1, Dir: core.Up})
	return 2 * (capParent + capLeft + capRight)
}

// axis reads one dimension of a box (0 = X, 1 = Y, 2 = Z).
func axis(b Box, a int) float64 {
	switch a {
	case 0:
		return b.X
	case 1:
		return b.Y
	default:
		return b.Z
	}
}

// setAxis writes one dimension of a box.
func setAxis(b *Box, a int, v float64) {
	switch a {
	case 0:
		b.X = v
	case 1:
		b.Y = v
	default:
		b.Z = v
	}
}

// shiftPoint moves a point along one axis.
func shiftPoint(p *decomp.Point, a int, v float64) {
	switch a {
	case 0:
		p.X += v
	case 1:
		p.Y += v
	default:
		p.Z += v
	}
}

// Validate checks the layout's geometric invariants: processors within the
// cube, pairwise distinct, and the bounding volume at least the box sum.
func (tl *TreeLayout) Validate() error {
	if err := tl.Processors.Validate(); err != nil {
		return err
	}
	if tl.Volume() < tl.BoxSum-1e-6 {
		return fmt.Errorf("vlsi: bounding volume %.1f below the box sum %.1f", tl.Volume(), tl.BoxSum)
	}
	return nil
}

// shortestAxis returns the index of the box's shortest side.
func shortestAxis(b Box) int {
	best, arg := b.X, 0
	if b.Y < best {
		best, arg = b.Y, 1
	}
	if b.Z < best {
		arg = 2
	}
	return arg
}
