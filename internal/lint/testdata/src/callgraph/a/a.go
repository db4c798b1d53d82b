// Package a holds the hot roots of the callgraph fixtures. Its
// //ftlint:hotpath functions reach allocations directly, through
// same-package helpers, and — via the facts exported by package b — across
// the package boundary.
package a

import (
	"fmt"

	"callgraph/b"
)

// visit takes a func value, so the call through it produces no edge; the
// closure literal built at the call site is the allocation under test.
func visit(f func(int)) { f(0) }

// route's own body trips three rules: a map, a capturing closure, and fmt.
//
//ftlint:hotpath
func route(msgs []int) string {
	seen := make(map[int]bool, len(msgs)) // want `hot path allocates a map \(//ftlint:hotpath route\)`
	for _, m := range msgs {
		seen[m] = true
	}
	n := 0
	visit(func(i int) { n += i + len(msgs) }) // want `hot path creates a capturing closure \(//ftlint:hotpath route\)`
	return fmt.Sprintf("%d/%d", n, len(seen)) // want `hot path calls fmt\.Sprintf \(allocates its result\) \(//ftlint:hotpath route\)`
}

// fill is not annotated; its allocation is attributed to the hot root that
// reaches it.
func fill(n int) []int {
	var out []int
	for i := 0; i < n; i++ {
		out = append(out, i) // want `grows fresh local slice "out" with append on a hot path: fill is reachable from //ftlint:hotpath deliver`
	}
	return out
}

// deliver reaches fill's growth one hop down and b's allocations across the
// package boundary, through facts.
//
//ftlint:hotpath
func deliver(n int) int {
	out := fill(n)
	m := b.Build(n) // want `hot path reaches an allocation in another package: b\.Build → allocates a map at b\.go:\d+ \(reachable from //ftlint:hotpath deliver\)`
	k := b.Outer(n) // want `hot path reaches an allocation in another package: b\.Outer → inner → grows fresh local slice "out" with append at b\.go:\d+ \(reachable from //ftlint:hotpath deliver\)`
	return len(out) + len(m) + k + b.Clean(n)
}

type engine struct {
	scratch []int
	limit   int
}

// step's helper allocates only inside a panic argument tree, which is
// exempt, and its own fmt call carries a sanctioned //ftlint:ignore.
//
//ftlint:hotpath
func (e *engine) step(n int) int {
	e.check(n)
	//ftlint:ignore hotalloc fixture-sanctioned warm-up formatting
	s := fmt.Sprint(n)
	return len(s)
}

func (e *engine) check(n int) {
	if n > e.limit {
		panic(fmt.Sprintf("step %d exceeds limit %d", n, e.limit)) // crash path: exempt
	}
}

// drain is allocation-free end to end: pooled-scratch reslice in its own
// body, an allocation-free callee across the boundary. Nothing is flagged.
//
//ftlint:hotpath
func (e *engine) drain(msgs []int) int {
	buf := e.scratch[:0]
	for _, m := range msgs {
		buf = append(buf, m)
	}
	e.scratch = buf
	return b.Clean(len(buf))
}
