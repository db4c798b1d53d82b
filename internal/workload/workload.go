// Package workload generates message sets that exercise a fat-tree (or any
// routing network on n processors). The generators cover the traffic classes
// the paper's discussion motivates: structured permutations that stress the
// top of the tree (bit-reversal, transpose, shuffle), local traffic that the
// fat-tree routes "within the exchange" (k-local, nearest-neighbour), the
// planar finite-element workloads of the introduction, dense all-to-all
// exchanges, and adversarial hot-spots.
//
// Every randomized generator takes an explicit seed so that experiments are
// reproducible bit-for-bit.
package workload

import (
	"fmt"
	"math/bits"
	"slices"

	"fattree/internal/core"
)

// RandomPermutation returns a uniformly random permutation workload: each
// processor sends exactly one message and receives exactly one message.
// Fixed points (p -> p) are dropped since self-messages never enter the
// network, so the result may have slightly fewer than n messages.
func RandomPermutation(n int, seed int64) core.MessageSet { return appendPermutation(nil, n, seed) }

func appendPermutation(dst core.MessageSet, n int, seed int64) core.MessageSet {
	requireProcs("RandomPermutation", n)
	rng := getSource(seed)
	defer sourcePool.Put(rng)
	base := len(dst)
	dst = slices.Grow(dst, n)[:base+n]
	// rand.Perm's shuffle, with the permutation held in the Dst fields, so
	// the draws (and the set a seed names) are exactly Perm's.
	perm := dst[base:]
	for i := range perm {
		j := rng.intn(i + 1)
		perm[i].Dst = perm[j].Dst
		perm[j].Dst = i
	}
	// Compact in place, dropping fixed points: the write index never passes
	// the read index.
	w := base
	for src, m := range perm {
		if m.Dst != src {
			dst[w] = core.Message{Src: src, Dst: m.Dst}
			w++
		}
	}
	return dst[:w]
}

// Random returns k messages with independently uniform sources and
// destinations (excluding self-loops).
func Random(n, k int, seed int64) core.MessageSet { return appendRandom(nil, n, k, seed) }

func appendRandom(dst core.MessageSet, n, k int, seed int64) core.MessageSet {
	requireProcs("Random", n)
	requireMessages("Random", k)
	rng := getSource(seed)
	defer sourcePool.Put(rng)
	dst = slices.Grow(dst, k)
	for end := len(dst) + k; len(dst) < end; {
		s, d := rng.intn(n), rng.intn(n)
		if s != d {
			dst = append(dst, core.Message{Src: s, Dst: d})
		}
	}
	return dst
}

// BitReversal returns the bit-reversal permutation on n = 2^L processors:
// processor with binary address b_{L-1}..b_0 sends to b_0..b_{L-1}. This is a
// classic worst case for tree-structured networks — almost all messages cross
// the root.
func BitReversal(n int) core.MessageSet { return appendBitReversal(nil, n) }

func appendBitReversal(dst core.MessageSet, n int) core.MessageSet {
	requirePow2("BitReversal", n)
	lgn := bits.Len(uint(n)) - 1
	dst = slices.Grow(dst, n)
	for p := 0; p < n; p++ {
		d := int(bits.Reverse64(uint64(p)) >> (64 - lgn))
		if d != p {
			dst = append(dst, core.Message{Src: p, Dst: d})
		}
	}
	return dst
}

// Transpose returns the matrix-transpose permutation: viewing the L address
// bits as two halves (row, col), processor (r, c) sends to (c, r). n must be
// an even power of two.
func Transpose(n int) core.MessageSet { return appendTranspose(nil, n) }

func appendTranspose(dst core.MessageSet, n int) core.MessageSet {
	requirePow2("Transpose", n)
	lgn := bits.Len(uint(n)) - 1
	if lgn%2 != 0 {
		panic(fmt.Sprintf("workload: Transpose needs an even power of two, got n=%d", n))
	}
	half := lgn / 2
	mask := (1 << half) - 1
	dst = slices.Grow(dst, n)
	for p := 0; p < n; p++ {
		row, col := p>>half, p&mask
		d := col<<half | row
		if d != p {
			dst = append(dst, core.Message{Src: p, Dst: d})
		}
	}
	return dst
}

// Shuffle returns the perfect-shuffle permutation (cyclic left rotation of the
// address bits), the interconnection pattern of Schwartz's ultracomputer and
// Stone's shuffle network which the paper discusses.
func Shuffle(n int) core.MessageSet { return appendShuffle(nil, n) }

func appendShuffle(dst core.MessageSet, n int) core.MessageSet {
	requirePow2("Shuffle", n)
	lgn := bits.Len(uint(n)) - 1
	dst = slices.Grow(dst, n)
	for p := 0; p < n; p++ {
		d := ((p << 1) | (p >> (lgn - 1))) & (n - 1)
		if d != p {
			dst = append(dst, core.Message{Src: p, Dst: d})
		}
	}
	return dst
}

// Reversal returns the "mirror" permutation p -> n-1-p, which sends every
// message across the root.
func Reversal(n int) core.MessageSet { return appendReversal(nil, n) }

func appendReversal(dst core.MessageSet, n int) core.MessageSet {
	dst = slices.Grow(dst, n)
	for p := 0; p < n; p++ {
		if d := n - 1 - p; d != p {
			dst = append(dst, core.Message{Src: p, Dst: d})
		}
	}
	return dst
}

// AllToAll returns the complete exchange: every processor sends one message to
// every other processor — n(n-1) messages. Use small n.
func AllToAll(n int) core.MessageSet { return appendAllToAll(nil, n) }

func appendAllToAll(dst core.MessageSet, n int) core.MessageSet {
	dst = slices.Grow(dst, n*(n-1))
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s != d {
				dst = append(dst, core.Message{Src: s, Dst: d})
			}
		}
	}
	return dst
}

// KLocal returns k messages whose destinations are uniform within a window of
// ±radius of the source (wrapping is not applied; destinations are clamped to
// the address space). Small radii produce traffic that stays low in the tree,
// the regime where fat-trees route "locally without soaking up the precious
// bandwidth higher up in the tree".
func KLocal(n, k, radius int, seed int64) core.MessageSet {
	return appendKLocal(nil, n, k, radius, seed)
}

func appendKLocal(dst core.MessageSet, n, k, radius int, seed int64) core.MessageSet {
	requireProcs("KLocal", n)
	requireMessages("KLocal", k)
	if radius < 1 {
		panic("workload: KLocal radius must be >= 1")
	}
	rng := getSource(seed)
	defer sourcePool.Put(rng)
	dst = slices.Grow(dst, k)
	for end := len(dst) + k; len(dst) < end; {
		s := rng.intn(n)
		off := rng.intn(2*radius+1) - radius
		d := s + off
		if d < 0 {
			d = 0
		}
		if d >= n {
			d = n - 1
		}
		if d != s {
			dst = append(dst, core.Message{Src: s, Dst: d})
		}
	}
	return dst
}

// NearestNeighbor returns the 1-D nearest-neighbour exchange: each processor
// sends to both neighbours (boundary processors to their single neighbour) —
// the communication pattern of a 1-D stencil computation.
func NearestNeighbor(n int) core.MessageSet { return appendNearestNeighbor(nil, n) }

func appendNearestNeighbor(dst core.MessageSet, n int) core.MessageSet {
	dst = slices.Grow(dst, 2*n)
	for p := 0; p < n; p++ {
		if p > 0 {
			dst = append(dst, core.Message{Src: p, Dst: p - 1})
		}
		if p < n-1 {
			dst = append(dst, core.Message{Src: p, Dst: p + 1})
		}
	}
	return dst
}

// HotSpot returns k messages all destined to processor 0 from uniformly random
// sources — the adversarial concentration workload. The load factor is driven
// by the destination's leaf channel.
func HotSpot(n, k int, seed int64) core.MessageSet { return appendHotSpot(nil, n, k, seed) }

func appendHotSpot(dst core.MessageSet, n, k int, seed int64) core.MessageSet {
	requireProcs("HotSpot", n)
	requireMessages("HotSpot", k)
	rng := getSource(seed)
	defer sourcePool.Put(rng)
	dst = slices.Grow(dst, k)
	for end := len(dst) + k; len(dst) < end; {
		if s := rng.intn(n); s != 0 {
			dst = append(dst, core.Message{Src: s, Dst: 0})
		}
	}
	return dst
}

// Append appends the named workload to dst and returns the extended set, so
// a caller that reuses one set across calls allocates nothing once it has
// grown. The names are the command-line menu: perm, random, bitrev,
// transpose, shuffle, reversal, nn, alltoall, hotspot and local. k sizes
// random, hotspot and local; radius sizes local; seed seeds the randomized
// ones. Each builds the same set as its generator above. An unknown name
// panics.
func Append(dst core.MessageSet, name string, n, k, radius int, seed int64) core.MessageSet {
	switch name {
	case "perm":
		return appendPermutation(dst, n, seed)
	case "random":
		return appendRandom(dst, n, k, seed)
	case "bitrev":
		return appendBitReversal(dst, n)
	case "transpose":
		return appendTranspose(dst, n)
	case "shuffle":
		return appendShuffle(dst, n)
	case "reversal":
		return appendReversal(dst, n)
	case "nn":
		return appendNearestNeighbor(dst, n)
	case "alltoall":
		return appendAllToAll(dst, n)
	case "hotspot":
		return appendHotSpot(dst, n, k, seed)
	case "local":
		return appendKLocal(dst, n, k, radius, seed)
	}
	panic(fmt.Sprintf("workload: unknown workload %q", name))
}

// ExternalIO returns an I/O workload through the root interface (Section II:
// "the channel leaving the root of the tree corresponds to an interface with
// the external world"): `reads` input messages from the external world to
// uniformly random processors and `writes` output messages from uniformly
// random processors to the external world.
func ExternalIO(n, reads, writes int, seed int64) core.MessageSet {
	if n < 1 {
		panic(fmt.Sprintf("workload: ExternalIO needs n >= 1 processors, got %d", n))
	}
	requireMessages("ExternalIO", reads)
	requireMessages("ExternalIO", writes)
	rng := getSource(seed)
	defer sourcePool.Put(rng)
	ms := make(core.MessageSet, 0, reads+writes)
	for i := 0; i < reads; i++ {
		ms = append(ms, core.Message{Src: core.External, Dst: rng.intn(n)})
	}
	for i := 0; i < writes; i++ {
		ms = append(ms, core.Message{Src: rng.intn(n), Dst: core.External})
	}
	return ms
}

// requirePow2 panics unless n is a power of two >= 2.
func requirePow2(who string, n int) {
	if n < 2 || n&(n-1) != 0 {
		panic(fmt.Sprintf("workload: %s needs a power-of-two n >= 2, got %d", who, n))
	}
}

// requireProcs panics unless n >= 2. Every generator that redraws until
// src != dst needs at least two distinct processors, or its rejection loop
// can never terminate (the historical Funnel hang).
func requireProcs(who string, n int) {
	if n < 2 {
		panic(fmt.Sprintf("workload: %s needs n >= 2 processors, got %d", who, n))
	}
}

// requireMessages panics unless k >= 0. A negative count used to fall through
// the `len(ms) < k` loops and silently return an empty set.
func requireMessages(who string, k int) {
	if k < 0 {
		panic(fmt.Sprintf("workload: %s needs a non-negative message count, got %d", who, k))
	}
}
