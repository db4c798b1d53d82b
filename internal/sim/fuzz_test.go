package sim

import (
	"reflect"
	"runtime"
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

// FuzzEngineParallelEquivalence cross-checks the parallel delivery-cycle
// path against the serial reference on fuzz-generated scenarios: for any
// tree shape, switch kind, loss rate, and worker count, RunParallel must
// reproduce Run bit-for-bit — total cycle count, per-cycle delivery
// profile, drops, and deferrals. This is the engine-level complement of
// sched's FuzzSchedule and the machine-checked form of the determinism
// contract in DESIGN.md: all per-switch randomness is pre-seeded by
// (seed, node), and every fan-out merges in message-index order.
func FuzzEngineParallelEquivalence(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 7, 3, 4, 1})
	f.Add([]byte{1, 1, 0, 15, 15, 0, 1, 14, 2, 13, 3, 12})
	f.Add([]byte{2, 3, 5, 6, 5, 7, 5, 8, 6, 5, 7, 5})
	f.Add([]byte{9, 0x35, 5, 5, 5, 6, 5, 7, 5, 8, 6, 5, 7, 5, 1, 2, 3, 4})
	f.Add([]byte{4, 0xff, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 0})
	// Sparse 256-leaf trees: lone climbs, lone descents, a sibling-leaf
	// turner, and (second seed) partial, lossy switches on the lone hops.
	f.Add([]byte{0x80, 0, 3, 200, 130, 7, 64, 65, 250, 12, 90, 200})
	f.Add([]byte{0x8c, 0x23, 17, 240, 33, 100, 101, 100, 180, 2, 5, 6, 77, 150})
	f.Fuzz(func(t *testing.T, data []byte) {
		ft, ms, kind, seed, loss := decodeEngineFuzz(data)

		// Fresh engines per run: switch RNG streams advance as cycles are
		// routed, so serial and parallel must start from identical state.
		mkEngine := func(workers int) *Engine {
			e := NewWithOptions(ft, kind, seed, Options{Workers: workers})
			if loss > 0 {
				e.InjectLoss(loss, seed+1)
			}
			return e
		}

		serial := mkEngine(1).Run(ms)
		for _, workers := range []int{0, 2, 3} {
			parallel := mkEngine(workers).RunParallel(ms)
			if serial.Cycles != parallel.Cycles ||
				serial.Delivered != parallel.Delivered ||
				serial.Drops != parallel.Drops ||
				serial.Deferrals != parallel.Deferrals {
				t.Fatalf("workers=%d: stats diverge\nserial   %+v\nparallel %+v",
					workers, serial, parallel)
			}
			if !reflect.DeepEqual(serial.PerCycle, parallel.PerCycle) {
				t.Fatalf("workers=%d: per-cycle delivery profile diverges\nserial   %v\nparallel %v",
					workers, serial.PerCycle, parallel.PerCycle)
			}
		}

		// Observed runs: attaching an observer must not perturb the stats, and
		// the counter totals must be identical for every worker count — the
		// observer only sees the deterministic serial merge points.
		runObserved := func(workers int) (*obsv.Observer, Stats) {
			o := obsv.New(ft)
			e := mkEngine(workers)
			e.SetObserver(o)
			return o, e.RunParallel(ms)
		}
		obsRef, obsStats := runObserved(1)
		if !reflect.DeepEqual(obsStats, serial) {
			t.Fatalf("observer perturbed the run\nplain    %+v\nobserved %+v", serial, obsStats)
		}
		if c := &obsRef.C; c.Offered != c.Delivered+c.Dropped+c.Deferred {
			t.Fatalf("conservation broken: offered %d != delivered %d + dropped %d + deferred %d",
				c.Offered, c.Delivered, c.Dropped, c.Deferred)
		}
		for _, workers := range []int{2, runtime.GOMAXPROCS(0)} {
			o, stats := runObserved(workers)
			if !reflect.DeepEqual(stats, serial) {
				t.Fatalf("workers=%d: observed stats diverge\nserial   %+v\nobserved %+v",
					workers, serial, stats)
			}
			if !obsv.CountersEqual(obsRef, o) {
				t.Fatalf("workers=%d: observed counter totals diverge from workers=1", workers)
			}
		}

		// Implicit-vs-materialized phase: the streaming engine on the
		// implicit twin of the same capacity profile must reproduce the
		// dense serial reference bit for bit — stats, per-cycle delivery
		// profile, and observer counter totals with histograms — for
		// workers {1, 2, GOMAXPROCS}.
		imp := core.NewImplicit(ft.Processors(), ft.CapacityAtLevel)
		mkStream := func(workers int) *Engine {
			e := NewWithOptions(imp, kind, seed, Options{Workers: workers})
			if loss > 0 {
				e.InjectLoss(loss, seed+1)
			}
			return e
		}
		for _, workers := range []int{1, 2, runtime.GOMAXPROCS(0)} {
			o := obsv.New(imp)
			e := mkStream(workers)
			e.SetObserver(o)
			stats := e.RunParallel(ms)
			if !reflect.DeepEqual(stats, serial) {
				t.Fatalf("workers=%d: implicit stream stats diverge from dense\ndense  %+v\nstream %+v",
					workers, serial, stats)
			}
			if !obsv.CountersEqual(obsRef, o) {
				t.Fatalf("workers=%d: implicit stream counters diverge from dense", workers)
			}
		}

		// The single-cycle API must agree as well, including the delivered
		// flags vector (message-index order is part of the contract).
		sd, sr := mkEngine(1).RunCycle(ms)
		pd, pr := mkEngine(2).RunCycleParallel(ms)
		if sr != pr || !reflect.DeepEqual(sd, pd) {
			t.Fatalf("RunCycle diverges: serial %+v %v, parallel %+v %v", sr, sd, pr, pd)
		}

		// Engine reuse: one engine runs many scenarios back to back, so any
		// state the scratch arena leaks between runs (a stale stamp, an
		// unreset bucket, a dirty wire guard) breaks the lockstep serial ==
		// parallel comparison below. The scenario sizes shrink and grow again
		// to stress arena reuse across resizes.
		scenarios := []core.MessageSet{ms, ms[:len(ms)/2], ms, ms[:len(ms)/3], ms}
		reusedSerial := mkEngine(1)
		reusedParallel := mkEngine(2)
		for rep, sc := range scenarios {
			rs := reusedSerial.Run(sc)
			rp := reusedParallel.RunParallel(sc)
			if !reflect.DeepEqual(rs, rp) {
				t.Fatalf("rep %d: reused engines diverge\nserial   %+v\nparallel %+v", rep, rs, rp)
			}
			// Without injected loss no RNG is consumed while routing (the
			// partial graphs are fixed at construction), so a reused engine
			// must also be indistinguishable from a fresh one.
			if loss == 0 {
				if fresh := mkEngine(1).Run(sc); !reflect.DeepEqual(rs, fresh) {
					t.Fatalf("rep %d: reused engine diverges from fresh\nreused %+v\nfresh  %+v", rep, rs, fresh)
				}
			}
		}

		// Reused single cycles after full runs: the delivered vector (scratch-
		// owned, valid until the engine's next cycle) must still agree.
		rd, rr := reusedSerial.RunCycle(ms)
		qd, qr := reusedParallel.RunCycleParallel(ms)
		if rr != qr || !reflect.DeepEqual(rd, qd) {
			t.Fatalf("reused RunCycle diverges: serial %+v %v, parallel %+v %v", rr, rd, qr, qd)
		}

		// K-ary phase, part 1: a binary-shaped KaryFatTree routes through the
		// k-ary engine, and on ideal lossless switches that engine must
		// reproduce the dense serial reference bit for bit — the concentrator
		// rules collapse to the same wire assignment when every tier is
		// binary.
		if kind == concentrator.KindIdeal && loss == 0 {
			caps := ft.LevelCapTable()
			bdesc := core.KaryDesc{
				Down:     make([]int, ft.Levels()),
				Up:       make([]int, ft.Levels()),
				Parallel: make([]int, ft.Levels()),
				Root:     caps[0],
			}
			for i := 0; i < ft.Levels(); i++ {
				bdesc.Down[i], bdesc.Up[i], bdesc.Parallel[i] = 2, caps[i+1], 1
			}
			bkt := core.NewKary(bdesc)
			for _, workers := range []int{1, 2} {
				o := obsv.New(bkt)
				e := NewWithOptions(bkt, concentrator.KindIdeal, seed, Options{Workers: workers})
				e.SetObserver(o)
				stats := e.RunParallel(ms)
				if !reflect.DeepEqual(stats, serial) {
					t.Fatalf("workers=%d: binary-shaped k-ary engine diverges from dense\ndense %+v\nkary  %+v",
						workers, serial, stats)
				}
			}
		}

		// K-ary phase, part 2: on genuinely non-binary topologies the same
		// determinism contract must hold — parallel delivery-cycle routing
		// reproduces the serial reference exactly, including observer counter
		// totals. The profile is picked by the fuzz seed; the message set is
		// folded into the smaller address space.
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
		runKary := func(workers int) (*obsv.Observer, Stats) {
			o := obsv.New(kt)
			e := NewWithOptions(kt, concentrator.KindIdeal, seed, Options{Workers: workers})
			e.SetObserver(o)
			return o, e.RunParallel(kms)
		}
		karyRef, karySerial := runKary(1)
		if c := &karyRef.C; c.Offered != c.Delivered+c.Dropped+c.Deferred {
			t.Fatalf("k-ary conservation broken: offered %d != delivered %d + dropped %d + deferred %d",
				c.Offered, c.Delivered, c.Dropped, c.Deferred)
		}
		for _, workers := range []int{0, 2, 3} {
			o, stats := runKary(workers)
			if !reflect.DeepEqual(stats, karySerial) {
				t.Fatalf("workers=%d: k-ary parallel diverges\nserial   %+v\nparallel %+v",
					workers, karySerial, stats)
			}
			if !obsv.CountersEqual(karyRef, o) {
				t.Fatalf("workers=%d: k-ary observed counter totals diverge from workers=1", workers)
			}
		}
	})
}
