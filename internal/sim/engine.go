// Package sim simulates message delivery on a fat-tree at two granularities.
//
// The delivery-cycle engine drives the actual switching hardware of Section
// II: during a cycle, every pending message snakes from its source leaf up to
// its least common ancestor and back down, competing for channel wires at
// each node's concentrator switches; messages that lose a concentrator port
// are dropped (congestion), negatively acknowledged, and retried in a later
// cycle. Running an off-line schedule (Section III) through the engine with
// ideal concentrators delivers every cycle's messages without loss — the
// integration of Theorem 1 with the Fig. 3 node design.
//
// The bit-serial timing model (Fig. 2) accounts the clock ticks a delivery
// cycle takes: messages establish paths leading-bit-first, address bits are
// stripped one per switch, and the payload follows, so a cycle lasts
// O(lg n + payload) ticks.
//
// # The data planes
//
// A binary fat-tree (core.HeapIndexed) routes on the streaming plane of
// stream.go: each sweep step carries sorted (node, flight) key lists to the
// next, so a cycle does O(flights × path length) work and engine memory is
// independent of the processor count. Ideal switches are computed inline
// from the capacity profile; partial or lossy switches are built lazily the
// first time their node is contested. A fat-tree of any other arity routes
// on the level-table plane of kary.go. Both planes keep every transient —
// the flight table, the key lists or buckets, the wire guards and the wire
// histories — in a per-engine scratch arena reused from cycle to cycle: the
// first cycle after construction (or after a growth in problem size) warms
// the arena, and later cycles allocate nothing. See DESIGN.md "Scratch-arena
// ownership" for
// the reuse rules.
//
// # Determinism
//
// Every cycle runs on the calling goroutine, and each switch sees its
// requests in message-index order. Every source of randomness — partial-
// concentrator wiring and transient-fault (loss) injection — draws from a
// per-switch RNG stream seeded by (seed, node), so a run's outcome depends
// only on the tree, the seed, and the message order.
package sim

import (
	"fattree/internal/concentrator"
	"fattree/internal/core"
	"fattree/internal/obsv"
)

// Options configures optional engine behavior.
type Options struct {
	// Workers is ignored: every engine routes its cycles on the calling
	// goroutine.
	//
	// Deprecated: an engine has a single execution. Run independent engines
	// concurrently for parallelism.
	Workers int

	// Observer, when non-nil, attaches the observability layer (internal/
	// obsv) to the engine: per-channel and per-switch counters plus the
	// optional event trace, recorded at fixed points of the cycle data
	// plane. A nil Observer costs one pointer compare per hook and nothing
	// else. Equivalent to calling SetObserver.
	Observer *obsv.Observer
}

// Engine simulates delivery cycles on one fat-tree with persistent switch
// hardware (a switch, once built, keeps its concentrator graphs, as in a
// real machine).
//
// An Engine owns a scratch arena that is reused across cycles, so a single
// Engine must not run cycles from multiple goroutines concurrently, and the
// slices returned by RunCycle and friends are valid only until the engine's
// next cycle. Reusing one engine across many cycles and message sets is the
// intended mode and produces results identical to a fresh engine (the
// engine-reuse equivalence tests pin this).
type Engine struct {
	tree *core.FatTree

	// obs is the attached observability layer, nil when disabled. It is a
	// concrete pointer (never an interface) so the disabled hot path is a
	// single nil compare with no interface-conversion allocation; see
	// observe.go for the hook points and the determinism argument.
	obs *obsv.Observer

	scr scratch

	// Exactly one plane is set. stream is the plane of every binary fat-tree
	// (stream.go): it carries sorted (node, flight) key lists from one sweep
	// step to the next, so memory is O(messages × path length), independent
	// of n. kary is the level-table plane of a non-binary tree (kary.go).
	stream *streamState
	kary   *karyState
}

// scratch is the engine's reusable per-cycle arena, shared by both planes.
// Every slice grows to the high-water mark of the scenarios routed so far and
// is then reused without allocation; see DESIGN.md "Scratch-arena ownership".
type scratch struct {
	flights   []flight
	delivered []bool
	histArena []int // flat wire-history storage; flights hold offsets into it

	// Ping-pong pending buffers for the retry loop (deliver).
	pendA, pendB core.MessageSet

	// Ping-pong first-offer cycle stamps parallel to pendA/pendB, plus the
	// per-cycle latency batch handed to the observer. The retry loop keeps
	// them on every run, observed or not: open-loop mean latency is summed
	// from them, and a warmed engine reuses their storage without
	// allocating.
	ageA, ageB, latBuf []int64
}

// New builds the engine with concentrators of the given kind (ideal per
// Section III, or Pippenger-style partial per Section IV). seed feeds the
// partial constructions and is offset by the node id, so every switch draws
// from its own stream.
func New(t *core.FatTree, kind concentrator.Kind, seed int64) *Engine {
	return NewWithOptions(t, kind, seed, Options{})
}

// NewWithOptions is New with explicit Options. A binary tree
// (core.HeapIndexed) selects the streaming plane (stream.go); any other
// arity selects the level-table plane (kary.go), which routes with inline
// ideal concentrators.
func NewWithOptions(t *core.FatTree, kind concentrator.Kind, seed int64, opts Options) *Engine {
	var e *Engine
	if core.HeapIndexed(t) {
		e = newStreamEngine(t, kind, seed)
	} else {
		e = newKaryEngine(t, kind)
	}
	if opts.Observer != nil {
		e.SetObserver(opts.Observer)
	}
	return e
}

// Tree returns the fat-tree the engine simulates.
func (e *Engine) Tree() *core.FatTree { return e.tree }

// InjectLoss adds a transient-fault model to every switch: each routed
// message is independently corrupted with the given rate and must be retried
// (Section VII's fault-tolerance concern, absorbed by the Section II
// acknowledgment protocol). Each switch draws from its own RNG stream seeded
// by (seed, node), so fault patterns are reproducible.
func (e *Engine) InjectLoss(rate float64, seed int64) {
	if e.kary != nil {
		panic("sim: loss injection is not supported on k-ary topologies (ideal concentrators only)")
	}
	e.stream.injectLoss(rate, seed)
}

// CycleResult reports one delivery cycle.
type CycleResult struct {
	Delivered int // messages that reached their destination leaf channel
	Dropped   int // messages dropped at a congested or unlucky concentrator
	Deferred  int // messages that could not even inject at their source leaf
}

// flight tracks one message inside a cycle: its state, the node beneath the
// channel whose wire it currently holds, the wire index, and its slice of
// the engine's flat wire-history arena.
type flight struct {
	msg     core.Message
	state   int // flightUp, flightDown, flightDone, flightLost
	node    int // node beneath the current channel (leaf after injection)
	wire    int // wire held in the current channel
	lca     int
	dstLeaf int // heap index of the destination leaf (0 when Dst is External)
	histOff int // offset of this flight's wire history in scr.histArena
	histLen int // wires recorded so far (path order)
}

const (
	flightPending = iota
	flightUp
	flightDown
	flightDone
	flightLost
)

// RunCycle attempts to deliver all of pending in a single delivery cycle and
// returns which were delivered (parallel to pending) plus counts. Messages
// not delivered must be retried by the caller in a later cycle — the
// acknowledgment protocol of Section II.
//
// The returned slice is owned by the engine's scratch arena and valid only
// until the next cycle on this engine; copy it to retain it.
func (e *Engine) RunCycle(pending core.MessageSet) ([]bool, CycleResult) {
	return e.runCycle(pending)
}

// grow returns s resized to n entries, reusing its backing array when
// the capacity suffices and preserving existing contents on growth.
func grow[T int | uint64](s []T, n int) []T {
	if cap(s) >= n {
		return s[:n]
	}
	out := make([]T, n, n+n/2)
	copy(out, s)
	return out
}

// b2i is 1 for true and 0 for false. It compiles to a SETcc, not a jump,
// so it turns a data-dependent choice into arithmetic.
//
//ftlint:hotpath
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// collect finishes a delivery cycle: delivered flags (engine-owned scratch)
// and the delivered count.
//
//ftlint:hotpath
func (e *Engine) collect(pending core.MessageSet, flights []flight, res *CycleResult) []bool {
	scr := &e.scr
	if cap(scr.delivered) < len(pending) {
		scr.delivered = make([]bool, len(pending), len(pending)+len(pending)/2)
	}
	delivered := scr.delivered[:len(pending)]
	scr.delivered = delivered
	for i := range flights {
		done := flights[i].state == flightDone
		delivered[i] = done
		if done {
			res.Delivered++
		}
	}
	return delivered
}

// runCycle is one delivery cycle on the engine's plane.
//
//ftlint:hotpath
func (e *Engine) runCycle(pending core.MessageSet) ([]bool, CycleResult) {
	if e.kary != nil {
		return e.runCycleKary(pending)
	}
	return e.runCycleStream(pending)
}

// histories materializes the per-message wire paths of the last cycle as
// freshly allocated slices safe to retain: hist[i] is message i's wire
// sequence in path order, nil unless it was delivered. Used by the settings
// compiler; the hot retry loop never materializes.
func (e *Engine) histories(flights []flight) [][]int {
	hist := make([][]int, len(flights))
	for i := range flights {
		f := &flights[i]
		if f.state != flightDone {
			continue
		}
		h := make([]int, f.histLen)
		copy(h, e.scr.histArena[f.histOff:f.histOff+f.histLen])
		hist[i] = h
	}
	return hist
}
