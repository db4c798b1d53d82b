// Package hotalloc exercises the hotalloc analyzer: per-cycle allocation
// patterns inside functions annotated //ftlint:hotpath.
package hotalloc

// engine mimics a simulator with pooled scratch buffers.
type engine struct {
	scratch []int
	seen    []int64
	gen     int64
}

// route is a hot function committing both sins: transient map state and
// fresh-local-slice growth.
//
//ftlint:hotpath
func (e *engine) route(active []int) int {
	seen := make(map[int]bool, len(active)) // want `hot path allocates a map`
	var out []int
	for _, w := range active {
		if seen[w] {
			continue
		}
		seen[w] = true
		out = append(out, w) // want `grows fresh local slice "out"`
	}
	return len(out)
}

// routeLiterals covers the other fresh initializers: an empty composite
// literal, a zero-length make, and a map literal.
//
//ftlint:hotpath
func (e *engine) routeLiterals(active []int) int {
	dup := map[int]int{} // want `hot path allocates a map`
	a := []int{}
	b := make([]int, 0)
	for i, w := range active {
		dup[w] = i
		a = append(a, w) // want `grows fresh local slice "a"`
		b = append(b, w) // want `grows fresh local slice "b"`
	}
	return len(a) + len(b)
}

// routePooled is the sanctioned form: epoch-stamped guards and appends to a
// reslice of pooled scratch. Nothing is flagged.
//
//ftlint:hotpath
func (e *engine) routePooled(active []int) int {
	e.gen++
	buf := e.scratch[:0]
	for _, w := range active {
		if e.seen[w] == e.gen {
			continue
		}
		e.seen[w] = e.gen
		buf = append(buf, w) // reslice of pooled storage: exempt
	}
	e.scratch = buf
	return len(buf)
}

// results shows that named results and parameters are exempt append bases —
// building a caller-retained result is legitimate even on the hot path.
//
//ftlint:hotpath
func results(active []int, acc []int) (out []int) {
	for _, w := range active {
		out = append(out, w)
		acc = append(acc, w)
	}
	_ = acc
	return out
}

// warmUp carries a sanctioned one-time allocation behind an ignore
// directive.
//
//ftlint:hotpath
func warmUp(n int) int {
	//ftlint:ignore hotalloc one-time warm-up table build, not per-cycle
	table := make(map[int]int, n)
	for i := 0; i < n; i++ {
		table[i] = i
	}
	return len(table)
}

// sink models an observer interface a hot function might report into.
type sink interface{ observe(v int) }

// tally implements sink with a pointer receiver: handing a *tally to an
// interface stores the pointer directly, no allocation.
type tally struct{ n int }

func (t *tally) observe(v int) { t.n += v }

// sample implements sink by value: boxing a sample copies it to the heap.
type sample struct{ n int }

func (s sample) observe(int) {}

func emit(s sink)                        {}
func record(tag string, vs ...sink)      {}
func describe(msg string, s sink) string { return msg }

// routeObserved exercises the interface-boxing rule: value types handed to
// interface parameters, variadic slots, and explicit conversions are flagged;
// nil-guarded concrete pointers, nil literals, constants, and pass-through
// variadic slices are the sanctioned forms and pass.
//
//ftlint:hotpath
func (e *engine) routeObserved(active []int, obs *tally) int {
	if obs != nil {
		emit(obs) // concrete pointer into interface: no allocation, exempt
	}
	emit(nil) // untyped nil: exempt
	for _, w := range active {
		emit(sample{n: w})        // want `boxes non-pointer sample into an interface`
		record("cycle", sample{}) // want `boxes non-pointer sample into an interface`
		_ = sink(sample{n: w})    // want `boxes non-pointer sample into an interface`
		_ = any(w)                // want `boxes non-pointer int into an interface`
	}
	record("const-tag") // constant string tag only: exempt
	pool := []sink{obs}
	record("spread", pool...) // xs... passes the slice through: exempt
	return len(active)
}

// guarded shows the crash-path exemption: everything under a panic call is
// skipped, including interface boxing in the arguments that build the
// message.
//
//ftlint:hotpath
func guarded(obs *tally, s sample) {
	if obs == nil {
		panic(describe("nil observer", s)) // boxing inside panic: exempt
	}
	emit(obs)
}

// msg and scheduler mimic the sched arena (DESIGN.md §9): ping-pong message
// slabs, an int32 boundary slab carved into per-node regions, and reusable
// cycle headers.
type msg struct{ src, dst int }

type scheduler struct {
	groupA, groupB []msg
	bndSlab        []int32
	cycles         [][]msg
}

// partitionNaive is the pre-arena shape of the even-bisection loop: a
// per-call grouping map and a fresh boundary list, both flagged.
//
//ftlint:hotpath
func (s *scheduler) partitionNaive(q []msg) int {
	byNode := make(map[int][]msg, len(q)) // want `hot path allocates a map`
	var bnd []int32
	for i, m := range q {
		byNode[m.src] = append(byNode[m.src], m)
		bnd = append(bnd, int32(i)) // want `grows fresh local slice "bnd"`
	}
	return len(byNode) + len(bnd)
}

// partitionArena is the sanctioned scheduler form: boundary lists are carved
// from the pooled slab, messages ping-pong between pooled group slabs, and
// cycle headers append to a pooled field. Nothing is flagged.
//
//ftlint:hotpath
func (s *scheduler) partitionArena(q []msg) int {
	bnd := s.bndSlab[:0]
	buf := s.groupA[:0]
	for i, m := range q {
		bnd = append(bnd, int32(i))
		buf = append(buf, m)
	}
	s.bndSlab, s.groupA = bnd, buf
	s.cycles = append(s.cycles, buf) // append to pooled field: exempt
	return len(bnd)
}

// mustFit calls a map-building helper only inside its panic argument: the
// helper runs on the crash path alone, so nothing is flagged.
//
//ftlint:hotpath
func mustFit(n, limit int) int {
	if n > limit {
		panic(overflowReport(n))
	}
	return n
}

// overflowReport allocates, but only mustFit's panic argument reaches it.
func overflowReport(n int) int {
	seen := map[int]bool{n: true}
	return len(seen)
}

// cold is not annotated, so identical patterns pass: the analyzer only
// polices declared hot paths.
func cold(active []int) []int {
	seen := make(map[int]bool)
	var out []int
	for _, w := range active {
		if !seen[w] {
			seen[w] = true
			out = append(out, w)
		}
	}
	return out
}
