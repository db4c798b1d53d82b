// Package implicit models the implicit-topology streaming engine's hot
// shard loops (internal/sim/stream.go): a per-level capacity profile with a
// sparse override overlay, persistent scatter buffers that are reused across
// cycles, and a lazily materialized special-switch table. The fixture pins
// what hotalloc must and must not report on this shape —
// field-backed append reuse and map probes are clean, fresh-slice growth and
// lazy map materialization reached from a hot root are diagnosed, and the
// sanctioned lazy table carries an //ftlint:ignore.
package implicit

// state is the streaming engine's per-topology state: O(levels) profile,
// sparse overrides, persistent per-cycle scratch.
type state struct {
	levelCaps []int
	ov        map[int]int
	keys      []uint64
	special   map[int]int
}

// levelOf stands in for bits.Len arithmetic; pure and allocation-free.
func levelOf(v int) int {
	k := 0
	for v > 1 {
		v >>= 1
		k++
	}
	return k
}

// capAt probes the override overlay then the per-level profile: map reads
// and slice indexing allocate nothing, so a hot root may call it freely.
//
//ftlint:hotpath
func (st *state) capAt(v int) int {
	if st.ov != nil {
		if c, ok := st.ov[v]; ok {
			return c
		}
	}
	return st.levelCaps[levelOf(v)]
}

// scatter appends to the persistent field buffer — arena reuse at its
// high-water mark, not growth of a fresh local — and must stay clean.
//
//ftlint:hotpath
func (st *state) scatter(flights []int) {
	st.keys = st.keys[:0]
	for i, v := range flights {
		st.keys = append(st.keys, uint64(v)<<32|uint64(uint32(i)))
	}
}

// gatherRuns grows a fresh local per call; reached from the hot route loop
// below, it is the classic per-cycle allocation the streaming engine must
// avoid.
func gatherRuns(keys []uint64) []int {
	var runs []int
	for i := range keys {
		if i == 0 || keys[i]>>32 != keys[i-1]>>32 {
			runs = append(runs, i) // want `grows fresh local slice "runs" with append on a hot path: gatherRuns is reachable from //ftlint:hotpath \(\*state\)\.route`
		}
	}
	return runs
}

// materialize builds the lazy special-switch table without a sanction; the
// map allocation is attributed to the hot root that reaches it.
func (st *state) materialize(v int) int {
	if st.special == nil {
		st.special = make(map[int]int) // want `allocates a map on a hot path: \(\*state\)\.materialize is reachable from //ftlint:hotpath \(\*state\)\.route`
	}
	st.special[v] = st.capAt(v)
	return st.special[v]
}

// route is the hot shard loop: reuse is fine, the fresh slice and the
// unsanctioned lazy map are not.
//
//ftlint:hotpath
func (st *state) route(flights []int) int {
	st.scatter(flights)
	runs := gatherRuns(st.keys)
	total := 0
	for _, r := range runs {
		total += st.materialize(int(st.keys[r] >> 32))
	}
	return total
}

// sanctioned is the same lazy-table pattern with the escape hatch the real
// engine uses: a one-time materialization documented in place.
func (st *state) sanctioned(v int) int {
	if st.special == nil {
		//ftlint:ignore hotalloc one-time lazy table: populated on first contest, never on the steady state
		st.special = make(map[int]int)
	}
	return st.special[v]
}

// routeSanctioned exercises the ignore path end to end; no diagnostics.
//
//ftlint:hotpath
func (st *state) routeSanctioned(v int) int {
	return st.sanctioned(v) + st.capAt(v)
}
