package workload

import (
	"fmt"

	"fattree/internal/core"
)

// This file generates the planar finite-element workloads that motivate
// fat-trees in the paper's introduction: "many finite-element problems are
// planar, and planar graphs have a bisection width of size O(sqrt n)", so a
// hypercube's full bandwidth is wasted on them while a fat-tree can be scaled
// down to match.

// FEMesh is a planar finite-element mesh: nodes are mesh points assigned to
// processors, and Edges are the adjacency of the stiffness matrix. A
// relaxation step exchanges one message in each direction along every edge.
type FEMesh struct {
	// Rows, Cols give the grid dimensions (Rows*Cols mesh points).
	Rows, Cols int
	// Assign maps mesh point index (r*Cols + c) to a processor.
	Assign []int
	// Edges lists undirected mesh edges as [2]int{pointA, pointB}.
	Edges [][2]int
}

// NewGridMesh builds a rows×cols 2-D grid mesh (5-point stencil adjacency)
// whose points are assigned to processors 0..rows*cols-1 in row-major order —
// the natural embedding where processor numbering follows a space-filling
// row-major curve, so grid neighbours are usually numerically close.
func NewGridMesh(rows, cols int) *FEMesh {
	if rows < 1 || cols < 1 {
		panic(fmt.Sprintf("workload: grid mesh %dx%d invalid", rows, cols))
	}
	m := &FEMesh{Rows: rows, Cols: cols, Assign: make([]int, rows*cols)}
	for i := range m.Assign {
		m.Assign[i] = i
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			p := r*cols + c
			if c+1 < cols {
				m.Edges = append(m.Edges, [2]int{p, p + 1})
			}
			if r+1 < rows {
				m.Edges = append(m.Edges, [2]int{p, p + cols})
			}
		}
	}
	return m
}

// NewGridMeshShuffled is NewGridMesh with mesh points assigned to processors
// by a random permutation — the pessimal embedding that destroys locality.
// Comparing the two embeddings quantifies how much of the fat-tree's locality
// advantage comes from a good layout.
func NewGridMeshShuffled(rows, cols int, seed int64) *FEMesh {
	m := NewGridMesh(rows, cols)
	rng := getSource(seed)
	defer sourcePool.Put(rng)
	m.Assign = make([]int, rows*cols)
	for i := range m.Assign { // rand.Perm's shuffle, draw for draw
		j := rng.intn(i + 1)
		m.Assign[i] = m.Assign[j]
		m.Assign[j] = i
	}
	return m
}

// Points returns the number of mesh points (= processors used).
func (m *FEMesh) Points() int { return m.Rows * m.Cols }

// ExchangeStep returns the message set of one relaxation step: one message in
// each direction along every mesh edge, between the processors owning the two
// endpoints. Edges whose endpoints share a processor produce no messages.
func (m *FEMesh) ExchangeStep() core.MessageSet {
	ms := make(core.MessageSet, 0, 2*len(m.Edges))
	for _, e := range m.Edges {
		a, b := m.Assign[e[0]], m.Assign[e[1]]
		if a == b {
			continue
		}
		ms = append(ms, core.Message{Src: a, Dst: b}, core.Message{Src: b, Dst: a})
	}
	return ms
}

// BisectionWidth returns the number of mesh edges crossing the halving cut of
// the processor space [0, n/2) vs [n/2, n) under the current assignment. For
// the row-major embedding of a k×k grid this is Θ(k) = Θ(sqrt n), exhibiting
// the Lipton–Tarjan O(sqrt n) planar bisection the paper cites.
func (m *FEMesh) BisectionWidth(n int) int {
	half := n / 2
	count := 0
	for _, e := range m.Edges {
		a, b := m.Assign[e[0]], m.Assign[e[1]]
		if (a < half) != (b < half) {
			count++
		}
	}
	return count
}
