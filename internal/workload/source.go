package workload

import (
	"math/rand"
	"sync"
)

// Source is a rand.Source64 whose output is bit-identical to
// rand.NewSource(seed) for every seed, without math/rand's seeding cost.
//
// math/rand's source is an additive lagged-Fibonacci generator over a
// 607-word register (lags 607 and 273). Seeding fills the register from a
// Lehmer chain x_{t+1} = 48271·x_t mod (2^31−1), x_0 = seed: word i is
// (x_{21+3i}<<40) ^ (x_{22+3i}<<20) ^ x_{23+3i} ^ rngCooked[i], 1,841 chain
// steps in all, several times the cost of a Perm(64) that follows them.
// Since x_t = seed·48271^t mod (2^31−1), any word can be computed directly
// from a table of powers. Source does so on a word's first read, so Seed only
// normalizes the seed and a Perm(64) builds just the ~130 words it reads.
type Source struct {
	tap, feed int
	seed      uint64 // normalized seed, in [1, 2^31−2]
	unbuilt   int    // draws left that read a word not yet built
	vec       [rngLen]int64
}

const (
	rngLen    = 607
	rngTap    = 273
	rngMask   = 1<<63 - 1
	lehmerA   = 48271
	lehmerM   = 1<<31 - 1
	seedSteps = 20 + 3*rngLen // chain steps math/rand's Seed takes
)

var (
	// lehmerPow[t] is 48271^t mod (2^31−1).
	lehmerPow [seedSteps + 1]uint64
	// rngCooked is math/rand's precomputed table of the same name, XORed
	// into every seeded register (recovered at init by recoverCooked).
	rngCooked [rngLen]int64
)

func init() {
	p := uint64(1)
	for t := range lehmerPow {
		lehmerPow[t] = p
		p = mulMod(p, lehmerA)
	}
	recoverCooked()
}

// recoverCooked derives rngCooked from math/rand itself rather than copying
// the table. The first 607 outputs of rand.NewSource(1) determine its seeded
// register: output k (k = 1..607) adds the word at tap (607−k) into the word
// at feed (334−k mod 607) and returns the sum, and each word is fed exactly
// once in those 607 steps. Running the recurrence back from k = 607 recovers
// each fed word; the tap word is still the seeded one for k <= 273 and was
// overwritten by output k−273 after that. XORing out seed 1's Lehmer words
// leaves the table.
func recoverCooked() {
	ref := rand.NewSource(1).(rand.Source64)
	var out, vec [rngLen]int64
	for k := range out {
		out[k] = int64(ref.Uint64())
	}
	for k := rngLen; k >= 1; k-- {
		feed := (2*rngLen - rngTap - k) % rngLen
		tap := vec[rngLen-k] // fed at step 334+k > k, so already recovered
		if k > rngTap {
			tap = out[k-rngTap-1]
		}
		vec[feed] = out[k-1] - tap
	}
	for i := range rngCooked {
		rngCooked[i] = vec[i] ^ lehmerWord(1, i)
	}
}

// lehmerWord is word i of the register math/rand's Seed builds for the
// normalized seed, before the rngCooked XOR.
func lehmerWord(seed uint64, i int) int64 {
	t := 21 + 3*i
	x0 := int64(mulMod(seed, lehmerPow[t]))
	x1 := int64(mulMod(seed, lehmerPow[t+1]))
	x2 := int64(mulMod(seed, lehmerPow[t+2]))
	return x0<<40 ^ x1<<20 ^ x2
}

// mulMod returns a·b mod 2^31−1 for a, b in [1, 2^31−2], folding the
// product's high bits onto its low ones (2^31 ≡ 1) instead of dividing. The
// first fold leaves x < 2^32−1, the second x <= 2^31; since the prime
// 2^31−1 divides neither factor, x is never 0 or 2^31−1, and 2^31 would need
// x = 2^32−1 after the first fold. So x is the exact residue.
func mulMod(a, b uint64) uint64 {
	x := a * b
	x = x&lehmerM + x>>31
	return x&lehmerM + x>>31
}

// NewSource returns a Source seeded with seed.
func NewSource(seed int64) *Source {
	s := new(Source)
	s.Seed(seed)
	return s
}

// Seed resets the source to the state rand.NewSource(seed) starts in. It
// normalizes the seed exactly as math/rand does: reduced mod 2^31−1 into
// [0, 2^31−2], with 0 replaced by 89482311.
func (s *Source) Seed(seed int64) {
	s.tap = 0
	s.feed = rngLen - rngTap
	seed %= lehmerM
	if seed < 0 {
		seed += lehmerM
	}
	if seed == 0 {
		seed = 89482311
	}
	s.seed = uint64(seed)
	s.unbuilt = rngLen - rngTap
}

// build computes the words draw k = 335−s.unbuilt reads for the first
// time. The register is read in a fixed order: draw k adds the word at tap
// 607−k into the word at feed 334−k (mod 607). So draws 1..334 each read
// their feed word first, draws 1..273 their tap word too, and from draw 335
// on every word read has been built.
func (s *Source) build() {
	s.vec[s.feed] = lehmerWord(s.seed, s.feed) ^ rngCooked[s.feed]
	if s.unbuilt > rngLen-2*rngTap {
		s.vec[s.tap] = lehmerWord(s.seed, s.tap) ^ rngCooked[s.tap]
	}
	s.unbuilt--
}

// Uint64 returns the next 64 pseudo-random bits, as math/rand's source does.
func (s *Source) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	if s.unbuilt > 0 {
		s.build()
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (s *Source) Int63() int64 { return int64(s.Uint64() & rngMask) }

// intn returns what rand.New(s).Intn(n) would, consuming the same draws:
// math/rand's Int31n for n < 2^31 and its Int63n above, both fixed by Go 1
// compatibility (FuzzSourceMatchesMathRand holds intn to them). Those reject
// a draw v in the incomplete block of width n at the top of the range,
// v > max = 2^b−1 − 2^b mod n; here that test is v − v%n > 2^b − n, which
// needs one division instead of two.
func (s *Source) intn(n int) int {
	if n <= 0 {
		panic("invalid argument to Intn")
	}
	if n <= 1<<31-1 {
		m := uint32(n)
		v := uint32(s.Int63() >> 32)
		if m&(m-1) == 0 {
			return int(v & (m - 1))
		}
		for {
			if r := v % m; v-r <= 1<<31-m {
				return int(r)
			}
			v = uint32(s.Int63() >> 32)
		}
	}
	m := uint64(n)
	v := uint64(s.Int63())
	if m&(m-1) == 0 {
		return int(v & (m - 1))
	}
	for {
		if r := v % m; v-r <= 1<<63-m {
			return int(r)
		}
		v = uint64(s.Int63())
	}
}

// sourcePool holds seeded sources for the generators, so a generator call
// allocates only its result.
var sourcePool = sync.Pool{New: func() any { return new(Source) }}

// getSource returns a pooled Source seeded with seed. Return it with
// sourcePool.Put.
func getSource(seed int64) *Source {
	s := sourcePool.Get().(*Source)
	s.Seed(seed)
	return s
}
