package fattree

import "fattree/internal/workload"

// This file re-exports the workload generators. All randomized generators
// take an explicit seed and are reproducible bit-for-bit.

// RandomPermutation is a uniform random permutation workload (fixed points
// dropped).
func RandomPermutation(n int, seed int64) MessageSet { return workload.RandomPermutation(n, seed) }

// AppendWorkload appends the named workload to dst and returns the extended
// set: perm, random, bitrev, transpose, shuffle, reversal, nn, alltoall,
// hotspot or local, each the same set as its generator here. k sizes random,
// hotspot and local, radius sizes local. Reusing dst across calls makes a
// call allocation-free once dst has grown. An unknown name panics.
func AppendWorkload(dst MessageSet, name string, n, k, radius int, seed int64) MessageSet {
	return workload.Append(dst, name, n, k, radius, seed)
}

// Random is k messages with uniform endpoints.
func Random(n, k int, seed int64) MessageSet { return workload.Random(n, k, seed) }

// BitReversal is the bit-reversal permutation — adversarial for trees.
func BitReversal(n int) MessageSet { return workload.BitReversal(n) }

// Transpose is the matrix-transpose permutation (n an even power of two).
func Transpose(n int) MessageSet { return workload.Transpose(n) }

// Shuffle is the perfect-shuffle permutation of Schwartz's ultracomputer.
func Shuffle(n int) MessageSet { return workload.Shuffle(n) }

// Reversal is the mirror permutation p -> n-1-p (everything crosses the
// root).
func Reversal(n int) MessageSet { return workload.Reversal(n) }

// AllToAll is the complete exchange (n(n-1) messages).
func AllToAll(n int) MessageSet { return workload.AllToAll(n) }

// KLocal is k messages within ±radius of their source — the local traffic a
// fat-tree routes without touching the expensive upper channels.
func KLocal(n, k, radius int, seed int64) MessageSet { return workload.KLocal(n, k, radius, seed) }

// NearestNeighbor is the 1-D stencil exchange.
func NearestNeighbor(n int) MessageSet { return workload.NearestNeighbor(n) }

// HotSpot is k messages converging on processor 0.
func HotSpot(n, k int, seed int64) MessageSet { return workload.HotSpot(n, k, seed) }

// ExternalIO is `reads` input messages from the external world plus `writes`
// output messages to it, through the root interface.
func ExternalIO(n, reads, writes int, seed int64) MessageSet {
	return workload.ExternalIO(n, reads, writes, seed)
}

// FEMesh is a planar finite-element mesh whose relaxation steps generate the
// locality-rich traffic of the paper's introduction.
type FEMesh = workload.FEMesh

// NewGridMesh builds a rows×cols grid mesh with the row-major processor
// embedding.
func NewGridMesh(rows, cols int) *FEMesh { return workload.NewGridMesh(rows, cols) }

// NewGridMeshShuffled builds the same mesh with a random (locality-
// destroying) processor embedding.
func NewGridMeshShuffled(rows, cols int, seed int64) *FEMesh {
	return workload.NewGridMeshShuffled(rows, cols, seed)
}
