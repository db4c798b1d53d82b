// Package fattree is a library implementation of Charles E. Leiserson's
// fat-tree routing networks ("Fat-Trees: Universal Networks for
// Hardware-Efficient Supercomputing", IEEE Transactions on Computers C-34(10),
// 1985). It provides:
//
//   - one fat-tree type, FatTree, for the paper's binary tree with arbitrary
//     or universal channel-capacity profiles and for k-ary per-tier
//     descriptors, with message sets, routing paths, and load factors
//     (Section II–III);
//   - the off-line schedulers of Theorem 1 and Corollary 2, built on the
//     matching-and-tracing even-bisection primitive;
//   - concentrator switches and a delivery-cycle simulator that drives the
//     Fig. 3 node hardware, with the Fig. 2 bit-serial timing model;
//   - the three-dimensional VLSI cost model of Section IV (component counts,
//     node boxes, universal fat-tree volume, volume→root-capacity inversion);
//   - decomposition trees, strings-of-pearls partitioning, and balanced
//     decomposition trees (Section V);
//   - the Theorem 10 universality pipeline, with hypercube, mesh, butterfly,
//     shuffle-exchange, and binary-tree baselines;
//   - workload generators for the traffic classes the paper discusses.
//
// This root package is a facade over the internal implementation packages;
// everything a downstream user needs is re-exported here. See the runnable
// programs under examples/ for end-to-end usage.
package fattree

import (
	"io"

	"fattree/internal/concentrator"
	"fattree/internal/core"
	"fattree/internal/obsv"
	"fattree/internal/sched"
	"fattree/internal/sim"
)

// Core topology types.
type (
	// FatTree is the fat-tree routing network, described per tier by level
	// tables in O(levels) memory. The binary constructors (New,
	// NewUniversal, ...) build the paper's tree, which the simulation engine
	// routes on the streaming plane (sorted flight keys carried from level
	// to level, so 2^20-endpoint networks simulate in bounded memory) and
	// the Theorem 1 scheduler accepts. NewKary builds any other arity, with
	// arbitrary radix and oversubscription; the engine routes it with inline
	// ideal concentrators, and it schedules with ScheduleGreedy.
	FatTree = core.FatTree
	// KaryDesc is a k-ary fat-tree descriptor: tier i (0 = the root tier)
	// fans every level-i node out to Down[i] children, each reached by a
	// channel of Up[i]×Parallel[i] wires.
	KaryDesc = core.KaryDesc
	// Message is a point-to-point message (source, destination).
	Message = core.Message
	// MessageSet is a multiset of messages.
	MessageSet = core.MessageSet
	// Channel identifies one directed channel (node, direction).
	Channel = core.Channel
	// Direction is Up (toward the root) or Down.
	Direction = core.Direction
	// Loads tabulates per-channel message loads.
	Loads = core.Loads
)

// Channel directions.
const (
	Up   = core.Up
	Down = core.Down
)

// New builds a fat-tree on n processors with capacity capAt(level) at each
// level (0 = root channel, lg n = leaf channels).
func New(n int, capAt func(level int) int) *FatTree { return core.New(n, capAt) }

// NewUniversal builds a universal fat-tree on n processors with root capacity
// w, using the Section IV capacity profile (doubling near the leaves,
// 4^(1/3) growth near the root).
func NewUniversal(n, w int) *FatTree { return core.NewUniversal(n, w) }

// NewConstant builds a fat-tree with capacity c on every channel (c = 1 is
// the plain binary tree).
func NewConstant(n, c int) *FatTree { return core.NewConstant(n, c) }

// NewDoubling builds the pure-doubling profile cap_k = ceil(n/2^k), the
// ablation profile that ignores the 3-D volume constraint near the root.
func NewDoubling(n int) *FatTree { return core.NewDoubling(n) }

// NewUniversal2D builds an area-universal fat-tree (the two-dimensional
// Thompson-model analog): capacities grow at 2^(1/2) per level near the root.
func NewUniversal2D(n, w int) *FatTree { return core.NewUniversal2D(n, w) }

// Universal2DCapacity returns the area-universal channel capacity at a level.
func Universal2DCapacity(n, w, level int) int { return core.Universal2DCapacity(n, w, level) }

// UniversalCapacity returns the Section IV channel capacity at a level of a
// universal fat-tree with n processors and root capacity w.
func UniversalCapacity(n, w, level int) int { return core.UniversalCapacity(n, w, level) }

// NewImplicitUniversal is NewUniversal.
//
// Deprecated: every FatTree is computed from its per-level profile and
// routes on the streaming plane; use NewUniversal.
func NewImplicitUniversal(n, w int) *FatTree { return core.NewUniversal(n, w) }

// NewKary builds a fat-tree from a per-tier descriptor; n is the product of
// the Down fan-outs. An all-binary descriptor builds the same tree as the
// binary constructors. Validation is up-front, as in New.
func NewKary(d KaryDesc) *FatTree { return core.NewKary(d) }

// NewLoads computes per-channel loads of ms on t.
func NewLoads(t *FatTree, ms MessageSet) *Loads { return core.NewLoads(t, ms) }

// LoadFactor returns λ(M) — the paper's lower bound on delivery cycles.
func LoadFactor(t *FatTree, ms MessageSet) float64 { return core.LoadFactor(t, ms) }

// IsOneCycle reports whether ms respects every channel capacity and can
// therefore be delivered in a single delivery cycle.
func IsOneCycle(t *FatTree, ms MessageSet) bool { return core.IsOneCycle(t, ms) }

// Lg is the paper's lg: max(1, ceil(log2 x)).
func Lg(x int) int { return core.Lg(x) }

// External is the pseudo-processor denoting the outside world: a message
// with Src or Dst External crosses the root channel, the fat-tree's
// "natural high-bandwidth external connection".
const External = core.External

// Concat concatenates message sets.
func Concat(sets ...MessageSet) MessageSet { return core.Concat(sets...) }

// Scheduling.
type (
	// Schedule is a partition of a message set into one-cycle message sets.
	Schedule = sched.Schedule
	// Scheduler is a reusable, allocation-free Theorem 1 scheduler bound to
	// one fat-tree: a warmed Scheduler runs OffLine/OffLineCompact at zero
	// steady-state allocations. Schedules it returns are loans from its
	// arena, valid until the next call; use Schedule.Clone to keep one.
	Scheduler = sched.Scheduler
)

// NewScheduler builds a reusable Theorem 1 scheduler for t. Loops that
// schedule many message sets on one tree should hold a Scheduler and call its
// methods; the package-level ScheduleOffline* functions construct a fresh one
// per call.
func NewScheduler(t *FatTree) *Scheduler { return sched.NewScheduler(t) }

// ScheduleOffline runs the Theorem 1 off-line scheduler:
// d = O(λ(M)·lg n) delivery cycles on any fat-tree.
func ScheduleOffline(t *FatTree, ms MessageSet) *Schedule { return sched.OffLine(t, ms) }

// ScheduleOfflineBig runs the Corollary 2 scheduler: on fat-trees whose
// channels all have capacity at least α·lg n it uses at most
// 2(α/(α-1))·λ(M) delivery cycles; on other fat-trees it remains correct but
// falls back to Theorem 1 for the overflow.
func ScheduleOfflineBig(t *FatTree, ms MessageSet) *Schedule { return sched.OffLineBig(t, ms) }

// ScheduleGreedy is the first-fit baseline scheduler (no bound).
func ScheduleGreedy(t *FatTree, ms MessageSet) *Schedule { return sched.Greedy(t, ms) }

// EvenBisect splits a set of messages crossing node v (all in the same
// direction) into halves whose load differs by at most one on every channel —
// the matching-and-tracing primitive from the proof of Theorem 1.
func EvenBisect(t *FatTree, v int, q MessageSet) (a, b MessageSet) {
	return sched.EvenBisect(t, v, q)
}

// Simulation.
type (
	// Engine is the delivery-cycle simulator driving concentrator switches.
	// An engine routes its cycles on the calling goroutine; run independent
	// engines concurrently for parallelism.
	Engine = sim.Engine
	// Options configures an engine's optional observer.
	Options = sim.Options
	// Stats summarizes a delivery run.
	Stats = sim.Stats
	// SwitchKind selects ideal or partial concentrators.
	SwitchKind = concentrator.Kind
)

// Switch kinds.
const (
	SwitchIdeal   = concentrator.KindIdeal
	SwitchPartial = concentrator.KindPartial
)

// NewEngine builds a delivery-cycle simulator for t with the given switch
// kind.
func NewEngine(t *FatTree, kind SwitchKind, seed int64) *Engine { return sim.New(t, kind, seed) }

// NewEngineWithOptions is NewEngine with explicit Options.
func NewEngineWithOptions(t *FatTree, kind SwitchKind, seed int64, opts Options) *Engine {
	return sim.NewWithOptions(t, kind, seed, opts)
}

// RunOnline delivers ms with the greedy online retry protocol.
func RunOnline(e *Engine, ms MessageSet) Stats { return sim.RunOnline(e, ms) }

// RunOnlineRandom delivers ms with the randomized on-line protocol of
// Greenberg and Leiserson (the paper's reference [8]): fresh random
// contention priorities every cycle, measured against the
// O(λ + lg n·lg lg n) envelope.
func RunOnlineRandom(e *Engine, ms MessageSet, seed int64) Stats {
	return sim.RunOnlineRandom(e, ms, seed)
}

// OnlineBound returns the randomized on-line envelope c·(λ + lg n·lg lg n).
func OnlineBound(t *FatTree, lambda, c float64) float64 { return sim.OnlineBound(t, lambda, c) }

// BufferedStats summarizes a buffered (backpressure) delivery run.
type BufferedStats = sim.BufferedStats

// RunBuffered delivers ms with per-channel FIFO queues of the given depth
// and backpressure instead of drop-and-retry — the modern switch discipline
// Section VII's "different design decisions" remark anticipates.
func RunBuffered(t *FatTree, ms MessageSet, queueDepth int) BufferedStats {
	return sim.RunBuffered(t, ms, queueDepth)
}

// Observability.
type (
	// Observer is the zero-overhead-when-disabled observability layer:
	// per-channel/per-switch counters and an optional ring-buffer event trace,
	// recorded at the engine's deterministic serial merge points. Attach with
	// Options.Observer or Engine.SetObserver.
	Observer = obsv.Observer
	// ObsvCounters is an observer's flat counter block.
	ObsvCounters = obsv.Counters
	// TraceRing is the fixed-capacity event ring buffer of an observer.
	TraceRing = obsv.Ring
	// TraceEvent is one traced simulator event.
	TraceEvent = obsv.Event
	// ObsvSnapshot is an immutable deep copy of an observer's counters and
	// histograms, safe to take from any goroutine while a run is in flight;
	// diff two with Sub, render with WriteHistSummary.
	ObsvSnapshot = obsv.Snapshot
	// ObsvHistSnap is an immutable copy of one telemetry histogram.
	ObsvHistSnap = obsv.HistSnap
	// PromLabel is one label pair of a Prometheus exposition sample.
	PromLabel = obsv.PromLabel
	// LabeledSnapshot pairs an observer snapshot with the label set
	// identifying its source in a Prometheus exposition.
	LabeledSnapshot = obsv.LabeledSnapshot
)

// WritePrometheus writes the snapshots as Prometheus text exposition
// (fattree_* metric families, one HELP/TYPE header per family).
func WritePrometheus(w io.Writer, snaps ...LabeledSnapshot) error {
	return obsv.WritePrometheus(w, snaps...)
}

// ValidatePromExposition strictly parses text as Prometheus text exposition,
// returning the first syntax or histogram-consistency violation.
func ValidatePromExposition(text []byte) error { return obsv.ValidateExposition(text) }

// NewObserver builds a per-node observer bound to t; every counter array is
// preallocated so recording never allocates.
func NewObserver(t *FatTree) *Observer { return obsv.New(t) }

// NewObserverCompact builds a per-level observer in O(levels) memory — the
// observer for fat-trees too large for per-node counters, whose per-level
// reports match a per-node observer's exactly. Either kind attaches to any
// engine.
func NewObserverCompact(t *FatTree) *Observer { return obsv.NewCompact(t) }

// ObserversEqual reports whether two observers hold identical counter totals
// — the parallel == serial equivalence assertion.
func ObserversEqual(a, b *Observer) bool { return obsv.CountersEqual(a, b) }

// Request-path observability (the serving daemon's half of the telemetry
// layer: spans around each request, RED instruments per tenant).
type (
	// Span is one recorded stage of one served request (handler, queue
	// wait, engine delivery, response), stamped with the request's trace ID.
	Span = obsv.Span
	// SpanKind enumerates the stages of a served request.
	SpanKind = obsv.SpanKind
	// SpanRing is the fixed-capacity, concurrency-safe span flight recorder;
	// pushes never allocate, oldest spans are overwritten when full.
	SpanRing = obsv.SpanRing
	// RED is one tenant's rate/errors/duration instrument block; its
	// deterministic members are bit-identical across worker counts.
	RED = obsv.RED
	// REDSnap is a point-in-time copy of one RED block.
	REDSnap = obsv.REDSnap
	// LabeledRED pairs a RED snapshot with its tenant's label set.
	LabeledRED = obsv.LabeledRED
	// PromSample is one parsed sample of a Prometheus exposition.
	PromSample = obsv.Sample
)

// The span stages, in request order.
const (
	SpanHandler = obsv.SpanHandler
	SpanQueue   = obsv.SpanQueue
	SpanEngine  = obsv.SpanEngine
	SpanRespond = obsv.SpanRespond
)

// NewSpanRing returns a span ring holding at most capacity spans.
func NewSpanRing(capacity int) *SpanRing { return obsv.NewSpanRing(capacity) }

// NewRED returns a fresh per-tenant RED instrument block.
func NewRED() *RED { return obsv.NewRED() }

// REDEqual reports whether two RED blocks agree on their deterministic
// members (request/error counts, duration-in-cycles histogram).
func REDEqual(a, b *RED) bool { return obsv.REDEqual(a, b) }

// TraceID formats a trace ID as it appears in responses, exemplars, and span
// exports: 16 lowercase hex digits.
func TraceID(trace uint64) string { return obsv.TraceID(trace) }

// WriteREDPrometheus writes the per-tenant request families (RED counters,
// duration histograms with exemplar trace IDs, queue depth/wait) as
// Prometheus text exposition.
func WriteREDPrometheus(w io.Writer, tenants ...LabeledRED) error {
	return obsv.WriteREDPrometheus(w, tenants...)
}

// ParsePromExposition parses and validates a Prometheus exposition with
// ValidatePromExposition's strictness and returns every sample — the
// scrape-consuming half of the telemetry loop (cmd/ftload asserts the
// conservation law from a live scrape with it).
func ParsePromExposition(text []byte) ([]PromSample, error) {
	return obsv.ParseExposition(text)
}

// StartProfiles starts the comma-separated profile kinds ("cpu", "mem",
// "trace") writing to files derived from base, returning the stop function —
// the CLIs' -profile flag family.
func StartProfiles(spec, base string) (func() error, error) {
	return obsv.StartProfiles(spec, base)
}

// ScheduleOfflineObserved is ScheduleOffline with per-level scheduler
// counters recorded into o; the schedule is identical.
func ScheduleOfflineObserved(t *FatTree, ms MessageSet, o *Observer) *Schedule {
	return sched.OffLineObserved(t, ms, o)
}

// RunBufferedObserved is RunBuffered with per-channel stall and queue-depth
// counters recorded into o; the stats are identical.
func RunBufferedObserved(t *FatTree, ms MessageSet, queueDepth int, o *Observer) BufferedStats {
	return sim.RunBufferedObserved(t, ms, queueDepth, o)
}

// Open-loop (sustained) operation.
type (
	// OpenLoopStats summarizes a sustained delivery run.
	OpenLoopStats = sim.OpenLoopStats
	// ArrivalFunc produces the messages arriving at the start of a cycle.
	ArrivalFunc = sim.ArrivalFunc
)

// UniformArrivals offers perCycle uniformly random messages every cycle.
func UniformArrivals(t *FatTree, perCycle int, seed int64) ArrivalFunc {
	return sim.UniformArrivals(t, perCycle, seed)
}

// RunOpenLoop drives the engine continuously under an arrival process and
// reports throughput, latency and backlog growth (the saturation knee).
func RunOpenLoop(e *Engine, arrivals ArrivalFunc, cycles int, seed int64) OpenLoopStats {
	return sim.RunOpenLoop(e, arrivals, cycles, seed)
}

// ScheduleOfflineCompact runs the Theorem 1 scheduler and then packs cycles
// across levels greedily: same worst-case bound, fewer cycles in practice.
func ScheduleOfflineCompact(t *FatTree, ms MessageSet) *Schedule {
	return sched.OffLineCompact(t, ms)
}

// CompactSchedule packs an existing schedule's cycles (never more cycles,
// always still valid).
func CompactSchedule(s *Schedule) *Schedule { return sched.Compact(s) }

// ReadSchedule deserializes a JSON schedule (written with Schedule.WriteTo)
// and binds it to t, verifying the machine matches.
func ReadSchedule(r io.Reader, t *FatTree) (*Schedule, error) { return sched.ReadSchedule(r, t) }

// RunSchedule plays an off-line schedule through the engine.
func RunSchedule(e *Engine, s *Schedule) Stats { return sim.RunSchedule(e, s) }

// DeliverOffline schedules ms with Theorem 1 and plays it on ideal switches:
// zero drops, exactly len(schedule) cycles.
func DeliverOffline(t *FatTree, ms MessageSet) (Stats, *Schedule) {
	return sim.DeliverOffline(t, ms)
}

// MessageTicks, CycleTicks, ScheduleTicks and MaxCycleTicks model the
// bit-serial clock (Fig. 2): O(lg n + payload) ticks per delivery cycle.
func MessageTicks(t *FatTree, m Message, payloadBits int) int {
	return sim.MessageTicks(t, m, payloadBits)
}

// CycleTicks returns the tick duration of one delivery cycle carrying ms.
func CycleTicks(t *FatTree, ms MessageSet, payloadBits int) int {
	return sim.CycleTicks(t, ms, payloadBits)
}

// ScheduleTicks totals the ticks of a sequence of delivery cycles.
func ScheduleTicks(t *FatTree, cycles []MessageSet, payloadBits int) int {
	return sim.ScheduleTicks(t, cycles, payloadBits)
}

// MaxCycleTicks returns the worst-case delivery-cycle duration.
func MaxCycleTicks(t *FatTree, payloadBits int) int { return sim.MaxCycleTicks(t, payloadBits) }

// PipelinedScheduleTicks models back-to-back delivery cycles with pipelined
// frames: consecutive cycles separated by the frame length rather than the
// full path traversal.
func PipelinedScheduleTicks(t *FatTree, cycles []MessageSet, payloadBits int) int {
	return sim.PipelinedScheduleTicks(t, cycles, payloadBits)
}
