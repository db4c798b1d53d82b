package workload

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"fattree/internal/core"
)

// edgeSeeds are the seeds math/rand's normalization treats specially: 0
// (replaced), negatives, multiples of 2^31−1 (reduced to 0), and the int64
// extremes.
var edgeSeeds = []int64{
	0, 1, -1, 2, lehmerM - 1, lehmerM, lehmerM + 1, 2 * lehmerM, -lehmerM, -2*lehmerM + 5,
	89482311, math.MinInt64, math.MinInt64 + 1, math.MaxInt64, 1 << 31, 1 << 40,
}

// TestSourceMatchesMathRand checks Source against rand.NewSource: 5,000
// draws on every edge seed, and on 20,000 random seeds the first 334 draws,
// which read every word of the seeded register.
func TestSourceMatchesMathRand(t *testing.T) {
	check := func(seed int64, draws int) {
		t.Helper()
		ref := rand.NewSource(seed).(rand.Source64)
		src := NewSource(seed)
		for i := 0; i < draws; i++ {
			if got, want := src.Uint64(), ref.Uint64(); got != want {
				t.Fatalf("seed %d draw %d: %#x, math/rand %#x", seed, i, got, want)
			}
		}
	}
	for _, seed := range edgeSeeds {
		check(seed, 5000)
	}
	seeds := rand.New(rand.NewSource(20))
	n := 20000
	if testing.Short() {
		n = 2000
	}
	for i := 0; i < n; i++ {
		check(int64(seeds.Uint64()), rngLen-rngTap)
	}
}

// FuzzSourceMatchesMathRand drives a Source and a rand.Rand over
// rand.NewSource with the same operations — raw draws, intn against Intn
// (both of its branches), the generators' Perm shuffle, and re-seeding (the
// pool's reuse) — and requires identical results. The seed corpus is
// FuzzRouteHandler's request seeds and counts plus the edge seeds.
func FuzzSourceMatchesMathRand(f *testing.F) {
	for _, seed := range append([]int64{7, 3, 32, 900000, 16, -1}, edgeSeeds...) {
		f.Add(seed, []byte{0, 1, 2, 3, 4, 5, 0x41, 0x80, 0xc3, 0xff, 0x7b, 0x3b, 0x0c})
	}
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		ref := rand.New(rand.NewSource(seed))
		got := NewSource(seed)
		for i, op := range ops {
			arg := int(op >> 3)
			switch op & 7 {
			case 0:
				if a, b := got.Int63(), ref.Int63(); a != b {
					t.Fatalf("op %d Int63: %d, math/rand %d", i, a, b)
				}
			case 1:
				if a, b := got.Uint64(), ref.Uint64(); a != b {
					t.Fatalf("op %d Uint64: %d, math/rand %d", i, a, b)
				}
			case 2, 3:
				// Small n, powers of two, and n past 2^31 (Int63n's branch).
				n := 1 + arg<<(int(op&1)*(arg+8))
				if a, b := got.intn(n), ref.Intn(n); a != b {
					t.Fatalf("op %d Intn(%d): %d, math/rand %d", i, n, a, b)
				}
			case 4:
				n := arg + 2
				s := seed + int64(i)
				want := rand.New(rand.NewSource(s)).Perm(n)
				shuffled := NewGridMeshShuffled(1, n, s).Assign
				if !slices.Equal(shuffled, want) {
					t.Fatalf("op %d Perm(%d) with seed %d: %v, math/rand %v", i, n, s, shuffled, want)
				}
			case 5:
				s := seed ^ int64(arg)<<(arg%40)
				got.Seed(s)
				ref.Seed(s)
			default:
				for j := 0; j < arg*20; j++ {
					if a, b := got.Uint64(), ref.Uint64(); a != b {
						t.Fatalf("op %d draw %d: %d, math/rand %d", i, j, a, b)
					}
				}
			}
		}
	})
}

// TestRandomPermutationMatchesPerm checks the in-place shuffle against
// rand.Perm with fixed points dropped: the set a seed names is unchanged.
func TestRandomPermutationMatchesPerm(t *testing.T) {
	for _, n := range []int{2, 3, 7, 64, 100, 1024} {
		for _, seed := range []int64{0, 1, 7, -5, math.MinInt64} {
			var want core.MessageSet
			for src, dst := range rand.New(rand.NewSource(seed)).Perm(n) {
				if src != dst {
					want = append(want, core.Message{Src: src, Dst: dst})
				}
			}
			if got := RandomPermutation(n, seed); !got.Equal(want) {
				t.Fatalf("n=%d seed=%d: RandomPermutation differs from rand.Perm", n, seed)
			}
		}
	}
}

// TestAppendMatchesGenerators checks every name of Append against its
// generator, appending after a prefix into storage left dirty by an
// earlier, larger set.
func TestAppendMatchesGenerators(t *testing.T) {
	const n, k, radius, seed = 64, 200, 3, 11
	prefix := core.MessageSet{{Src: 1, Dst: 2}, {Src: 3, Dst: 4}}
	for name, want := range map[string]core.MessageSet{
		"perm":      RandomPermutation(n, seed),
		"random":    Random(n, k, seed),
		"bitrev":    BitReversal(n),
		"transpose": Transpose(n),
		"shuffle":   Shuffle(n),
		"reversal":  Reversal(n),
		"nn":        NearestNeighbor(n),
		"alltoall":  AllToAll(n),
		"hotspot":   HotSpot(n, k, seed),
		"local":     KLocal(n, k, radius, seed),
	} {
		dirty := AllToAll(n)
		for i := range dirty {
			dirty[i] = core.Message{Src: -7, Dst: 1 << 20}
		}
		dst := append(dirty[:0], prefix...)
		got := Append(dst, name, n, k, radius, seed)
		if !got[:len(prefix)].Equal(prefix) || !got[len(prefix):].Equal(want) {
			t.Errorf("Append(%q) differs from its generator", name)
		}
	}
}
