package sim

import (
	"math"
	"reflect"
	"slices"
	"testing"

	"fattree/internal/concentrator"
	"fattree/internal/core"
	"fattree/internal/obsv"
)

// decodeEngineFuzz turns raw fuzz bytes into a delivery scenario: byte 0
// picks the tree shape, byte 1 the switch kind, seed, and loss rate, and the
// remaining byte pairs are (src, dst) candidates (self-loops skipped so the
// set always validates). Shape bit 7 selects a 256-leaf tree, on which a
// short input is a sparse cycle for the streaming plane's lone pass.
func decodeEngineFuzz(data []byte) (ft *core.FatTree, ms core.MessageSet, kind concentrator.Kind, seed int64, loss float64) {
	shape, knobs := byte(0), byte(0)
	if len(data) > 0 {
		shape = data[0]
		data = data[1:]
	}
	if len(data) > 0 {
		knobs = data[0]
		data = data[1:]
	}
	n := 8 << (shape % 3) // 8, 16, 32
	if shape&0x80 != 0 {
		n = 256
	}
	w := 1 << (1 + (shape>>2)%4) // 2, 4, 8, 16
	ft = core.NewUniversal(n, w)
	kind = concentrator.KindIdeal
	if knobs&1 == 1 {
		kind = concentrator.KindPartial
	}
	seed = int64(knobs>>1) + 1
	if knobs&2 == 2 {
		loss = float64(knobs>>4) / 100 // 0% .. 15%
	}
	for i := 0; i+1 < len(data) && len(ms) < 4*n; i += 2 {
		src, dst := int(data[i])%n, int(data[i+1])%n
		if src == dst {
			continue
		}
		ms = append(ms, core.Message{Src: src, Dst: dst})
	}
	return ft, ms, kind, seed, loss
}

// engineFuzzSeeds is the engine fuzz corpus.
var engineFuzzSeeds = [][]byte{
	{},
	{0, 0, 7, 3, 4, 1},
	{1, 1, 0, 15, 15, 0, 1, 14, 2, 13, 3, 12},
	{2, 3, 5, 6, 5, 7, 5, 8, 6, 5, 7, 5},
	{9, 0x35, 5, 5, 5, 6, 5, 7, 5, 8, 6, 5, 7, 5, 1, 2, 3, 4},
	{4, 0xff, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 0},
	// Sparse 256-leaf trees: lone climbs, lone descents, a sibling-leaf
	// turner, and (second seed) partial, lossy switches on the lone hops.
	{0x80, 0, 3, 200, 130, 7, 64, 65, 250, 12, 90, 200},
	{0x8c, 0x23, 17, 240, 33, 100, 101, 100, 180, 2, 5, 6, 77, 150},
}

// FuzzEnginePlaneEquivalence cross-checks the engine's data planes on
// fuzz-generated scenarios: for any tree shape, switch kind, and loss rate,
// the streaming plane, and on ideal lossless switches the k-ary plane built
// directly on the same tree, must reproduce the dense reference engine
// (reference_test.go) bit for bit — total cycle count, per-cycle delivery
// profile, drops, deferrals, delivered flags, and per-switch observer
// counters. It also checks that attaching an observer does not perturb a
// run, that the conservation law holds, that a ring-attached observer counts
// what a ring-less one does, that on every plane a per-level observer
// reports what a per-node one does, that a fully delivered set takes at
// least ⌈λ⌉ cycles (exactly one for a one-cycle set on ideal lossless
// switches), and
// that a reused engine matches a fresh one. This is the engine-level complement of sched's FuzzSchedule
// and the machine-checked form of the determinism contract in DESIGN.md:
// all per-switch randomness is seeded by (seed, node), and each switch sees
// its requests in message-index order.
func FuzzEnginePlaneEquivalence(f *testing.F) {
	for _, seed := range engineFuzzSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ft, ms, kind, seed, loss := decodeEngineFuzz(data)

		// Fresh engines per run: switch RNG streams advance as cycles are
		// routed, so every compared run must start from identical state.
		mkEngine := func() *Engine {
			e := New(ft, kind, seed)
			if loss > 0 {
				e.InjectLoss(loss, seed+1)
			}
			return e
		}
		mkRef := func() *refEngine {
			r := newRefEngine(ft, kind, seed)
			if loss > 0 {
				r.injectLoss(loss, seed+1)
			}
			return r
		}

		ref := mkRef()
		want := ref.run(ms)
		if stats := mkEngine().Run(ms); !reflect.DeepEqual(stats, want) {
			t.Fatalf("stream stats diverge from the reference\nref    %+v\nstream %+v", want, stats)
		}

		// Observed run: attaching an observer must not perturb the stats,
		// the counters must obey the conservation law, and the per-switch
		// counters must match the reference's.
		obsRef := obsv.New(ft)
		e := mkEngine()
		e.SetObserver(obsRef)
		if obsStats := e.Run(ms); !reflect.DeepEqual(obsStats, want) {
			t.Fatalf("observer perturbed the run\nplain    %+v\nobserved %+v", want, obsStats)
		}
		if c := &obsRef.C; c.Offered != c.Delivered+c.Dropped+c.Deferred {
			t.Fatalf("conservation broken: offered %d != delivered %d + dropped %d + deferred %d",
				c.Offered, c.Delivered, c.Dropped, c.Deferred)
		}
		checkSwitchCounters(t, obsRef, ref)
		// A per-level observer must fold to the same per-level report.
		perLevel := obsv.NewCompact(ft)
		e = mkEngine()
		e.SetObserver(perLevel)
		e.Run(ms)
		checkSameLevels(t, ft, obsRef, perLevel)

		// Observation by run: a ring-less observer adds each node run's
		// winners per channel, a ring-attached one replays the run flight by
		// flight. Every counter and histogram must agree.
		traced := obsv.New(ft)
		traced.EnableTrace(64)
		e = mkEngine()
		e.SetObserver(traced)
		e.Run(ms)
		if !obsv.CountersEqual(obsRef, traced) {
			t.Fatalf("ring-less and ring-attached observers diverge\nring-less %+v\ntraced    %+v", obsRef.C, traced.C)
		}

		// The paper's lower bound (ROADMAP 5): every channel carries at most
		// cap(c) messages per cycle, so a fully delivered set takes at least
		// ⌈λ⌉ cycles, and on ideal lossless switches a one-cycle set (λ <= 1)
		// takes exactly one.
		if want.Delivered == len(ms) {
			if lambda := core.LoadFactor(ft, ms); want.Cycles < int(math.Ceil(lambda)) {
				t.Fatalf("delivered in %d cycles, below ⌈λ⌉ = ⌈%v⌉", want.Cycles, lambda)
			}
		}
		if kind == concentrator.KindIdeal && loss == 0 && len(ms) > 0 && core.IsOneCycle(ft, ms) && want.Cycles != 1 {
			t.Fatalf("one-cycle set took %d cycles on ideal switches: %+v", want.Cycles, want)
		}

		// Cycle by cycle: delivered flags (message-index order is part of
		// the contract) and wire histories.
		checkCycles(t, mkEngine(), mkRef(), ms)

		// The lone pass forced on every cycle and on none: the tiny trees
		// never reach it through the gate, the 256-leaf ones nearly always.
		checkLoneGates(t, mkEngine, mkRef, ms, want)

		// Engine reuse: one engine runs many scenarios back to back, so any
		// state the scratch arena leaks between runs (a stale key list, a
		// dirty wire guard) breaks the lockstep comparison with a reused
		// reference below. The scenario sizes shrink and grow again to
		// stress arena reuse across resizes.
		scenarios := []core.MessageSet{ms, ms[:len(ms)/2], ms, ms[:len(ms)/3], ms}
		reusedStream := mkEngine()
		reusedRef := mkRef()
		for rep, sc := range scenarios {
			rs := reusedStream.Run(sc)
			if rr := reusedRef.run(sc); !reflect.DeepEqual(rs, rr) {
				t.Fatalf("rep %d: reused engine diverges from the reused reference\nref    %+v\nstream %+v", rep, rr, rs)
			}
			// Without injected loss no RNG is consumed while routing (the
			// partial graphs are fixed at construction), so a reused engine
			// must also be indistinguishable from a fresh one.
			if loss == 0 {
				if fresh := mkEngine().Run(sc); !reflect.DeepEqual(rs, fresh) {
					t.Fatalf("rep %d: reused engine diverges from fresh\nreused %+v\nfresh  %+v", rep, rs, fresh)
				}
			}
		}

		// Reused single cycles after full runs: the delivered vector (scratch-
		// owned, valid until the engine's next cycle) must still agree.
		rsd, rsr := reusedStream.RunCycle(ms)
		if rc := reusedRef.cycle(ms); rsr != rc.res || !slices.Equal(rsd, rc.delivered) {
			t.Fatalf("reused RunCycle diverges: ref %+v %v, stream %+v %v", rc.res, rc.delivered, rsr, rsd)
		}

		// K-ary phase, part 1: the level-table plane, built directly on the
		// same binary tree, must reproduce the reference bit for bit on ideal
		// lossless switches — the concentrator rules collapse to the same
		// wire assignment when every tier is binary.
		if kind == concentrator.KindIdeal && loss == 0 {
			perNode, perLevel := obsv.New(ft), obsv.NewCompact(ft)
			for _, o := range []*obsv.Observer{perNode, perLevel} {
				e := newKaryEngine(ft, concentrator.KindIdeal)
				e.SetObserver(o)
				if stats := e.Run(ms); !reflect.DeepEqual(stats, want) {
					t.Fatalf("k-ary plane diverges from the reference\nref  %+v\nkary %+v", want, stats)
				}
			}
			checkSameLevels(t, ft, perNode, perLevel)
		}

		// K-ary phase, part 2: on genuinely non-binary topologies the observed
		// counters obey the conservation law and a reused engine matches a
		// fresh one. The profile is picked by the fuzz seed; the message set
		// is folded into the smaller address space.
		kdesc := []core.KaryDesc{
			{Down: []int{3, 4}, Up: []int{2, 1}, Parallel: []int{1, 1}},
			{Down: []int{4, 2, 3}, Up: []int{3, 2, 1}, Parallel: []int{1, 1, 1}},
			{Down: []int{5, 5}, Up: []int{2, 1}, Parallel: []int{3, 2}, Root: 7},
		}[int(seed)%3]
		kt := core.NewKary(kdesc)
		kn := kt.Processors()
		var kms core.MessageSet
		for _, m := range ms {
			if s, d := m.Src%kn, m.Dst%kn; s != d {
				kms = append(kms, core.Message{Src: s, Dst: d})
			}
		}
		karyRef := obsv.New(kt)
		ek := NewWithOptions(kt, concentrator.KindIdeal, seed, Options{Observer: karyRef})
		karyStats := ek.Run(kms)
		if c := &karyRef.C; c.Offered != c.Delivered+c.Dropped+c.Deferred {
			t.Fatalf("k-ary conservation broken: offered %d != delivered %d + dropped %d + deferred %d",
				c.Offered, c.Delivered, c.Dropped, c.Deferred)
		}
		if again := ek.Run(kms); !reflect.DeepEqual(again, karyStats) {
			t.Fatalf("reused k-ary engine diverges\nfirst  %+v\nsecond %+v", karyStats, again)
		}
		karyLevel := obsv.NewCompact(kt)
		ek = NewWithOptions(kt, concentrator.KindIdeal, seed, Options{Observer: karyLevel})
		ek.Run(kms)
		ek.Run(kms)
		checkSameLevels(t, kt, karyRef, karyLevel)
	})
}
