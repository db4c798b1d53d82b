package sim

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"fattree/internal/concentrator"
	"fattree/internal/core"
	"fattree/internal/obsv"
	"fattree/internal/workload"
)

// TestObserverDoesNotPerturbRouting pins the first half of the observability
// cost contract: attaching an observer changes nothing about what the engine
// computes — stats, per-cycle profiles, and delivered vectors are
// bit-identical with and without one, across switch kinds and loss injection.
func TestObserverDoesNotPerturbRouting(t *testing.T) {
	n := 32
	ft := core.NewUniversal(n, 8)
	ms := workload.Random(n, 3*n, 7)
	for _, tc := range []struct {
		name string
		kind concentrator.Kind
		loss float64
	}{
		{"ideal", concentrator.KindIdeal, 0},
		{"partial", concentrator.KindPartial, 0},
		{"ideal-lossy", concentrator.KindIdeal, 0.05},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mk := func(o *obsv.Observer) *Engine {
				e := NewWithOptions(ft, tc.kind, 3, Options{Observer: o})
				if tc.loss > 0 {
					e.InjectLoss(tc.loss, 5)
				}
				return e
			}
			plain := mk(nil).Run(ms)
			o := obsv.New(ft)
			o.EnableTrace(256) // tracing must be as invisible as counting
			observed := mk(o).Run(ms)
			if !reflect.DeepEqual(plain, observed) {
				t.Fatalf("observer perturbed the run\nplain    %+v\nobserved %+v", plain, observed)
			}
			// A ring-less observer counts per node run, the traced one per
			// flight: the snapshots must agree.
			counted := obsv.New(ft)
			if got := mk(counted).Run(ms); !reflect.DeepEqual(plain, got) {
				t.Fatalf("ring-less observer perturbed the run\nplain    %+v\nobserved %+v", plain, got)
			}
			if !obsv.CountersEqual(o, counted) {
				t.Fatalf("ring-less observer diverges from the traced one\ntraced    %+v\nring-less %+v", o.C, counted.C)
			}
			if a, b := o.Snapshot(), counted.Snapshot(); !reflect.DeepEqual(a, b) {
				t.Fatalf("snapshots diverge\ntraced    %+v\nring-less %+v", a, b)
			}
			// The observer's outcome totals must agree with the engine's own.
			c := &o.C
			if c.Delivered != int64(plain.Delivered) || c.Dropped != int64(plain.Drops) ||
				c.Deferred != int64(plain.Deferrals) || c.Cycles != int64(plain.Cycles) {
				t.Fatalf("counter totals diverge from stats: %+v vs %+v", c, plain)
			}
		})
	}
}

// TestDeliveryConservation is the satellite-3 property test: on every path
// through the engine — retry loop, schedule playback, randomized online, with
// and without loss injection — the observer's conservation law
// Offered == Delivered + Dropped + Deferred holds exactly, the per-switch drop
// tally equals the global drop count, and no retried flight is double-counted
// in the delivered totals (Delivered == len(ms) on complete runs, and
// Offered == len(ms) + Retried).
func TestDeliveryConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 << (3 + rng.Intn(3)) // 8..32
		ft := workload.RandomTreeProfile(n, 8, seed)
		ms := workload.Random(n, 1+rng.Intn(4*n), seed+1)

		check := func(name string, o *obsv.Observer, stats Stats) bool {
			c := &o.C
			if c.Offered != c.Delivered+c.Dropped+c.Deferred {
				t.Logf("seed %d %s: offered %d != delivered %d + dropped %d + deferred %d",
					seed, name, c.Offered, c.Delivered, c.Dropped, c.Deferred)
				return false
			}
			if c.Delivered != int64(stats.Delivered) || c.Dropped != int64(stats.Drops) ||
				c.Deferred != int64(stats.Deferrals) || c.Cycles != int64(stats.Cycles) {
				t.Logf("seed %d %s: counters %+v diverge from stats %+v", seed, name, c, stats)
				return false
			}
			perSwitch := int64(0)
			for _, d := range c.Drops {
				perSwitch += d
			}
			if perSwitch != c.Dropped {
				t.Logf("seed %d %s: per-switch drops %d != total %d", seed, name, perSwitch, c.Dropped)
				return false
			}
			for v := range c.Requests {
				if c.Requests[v] != c.Grants[v]+c.Drops[v] {
					t.Logf("seed %d %s: node %d requests %d != grants %d + drops %d",
						seed, name, v, c.Requests[v], c.Grants[v], c.Drops[v])
					return false
				}
				if c.Faults[v] > c.Drops[v] || c.Faults[v] < 0 {
					t.Logf("seed %d %s: node %d faults %d outside [0, drops %d]",
						seed, name, v, c.Faults[v], c.Drops[v])
					return false
				}
			}
			if stats.Delivered == len(ms) {
				// Complete run: every message delivered exactly once, and every
				// extra offer was a counted retry.
				if c.Delivered != int64(len(ms)) {
					t.Logf("seed %d %s: delivered counter %d != %d messages",
						seed, name, c.Delivered, len(ms))
					return false
				}
				if c.Offered != int64(len(ms))+c.Retried {
					t.Logf("seed %d %s: offered %d != %d messages + retried %d",
						seed, name, c.Offered, len(ms), c.Retried)
					return false
				}
			}
			return true
		}

		// Retry loop with transient faults (the loss-injection accounting the
		// satellite audits).
		o1 := obsv.New(ft)
		e1 := NewWithOptions(ft, concentrator.KindIdeal, seed, Options{Observer: o1})
		e1.InjectLoss(0.02+0.08*rng.Float64(), seed+2)
		if !check("lossy-run", o1, e1.Run(ms)) {
			return false
		}

		// Randomized online protocol, lossy.
		o2 := obsv.New(ft)
		e2 := NewWithOptions(ft, concentrator.KindIdeal, seed, Options{Observer: o2})
		e2.InjectLoss(0.05, seed+3)
		if !check("online-random", o2, RunOnlineRandom(e2, ms, seed+4)) {
			return false
		}

		// Partial concentrators without faults, cycle-sequence path.
		o3 := obsv.New(ft)
		e3 := NewWithOptions(ft, concentrator.KindPartial, seed, Options{Observer: o3})
		cycles := []core.MessageSet{ms[:len(ms)/2], ms[len(ms)/2:]}
		if !check("cycles", o3, e3.RunCycles(cycles)) {
			return false
		}

		// Open loop on partial concentrators: arrivals are never drained, so
		// every offer is either a first-time arrival or a counted retry.
		o4 := obsv.New(ft)
		e4 := NewWithOptions(ft, concentrator.KindPartial, seed, Options{Observer: o4})
		ol := RunOpenLoop(e4, UniformArrivals(ft, 1+rng.Intn(n), seed+5), 20, seed+6)
		c := &o4.C
		if c.Offered != c.Delivered+c.Dropped+c.Deferred || c.Delivered != int64(ol.Delivered) ||
			c.Cycles != int64(ol.Cycles) || c.Offered != int64(ol.Offered)+c.Retried {
			t.Logf("seed %d open-loop: counters %+v diverge from stats %+v", seed, c, ol)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// TestObserverReuseAndReset checks the Reset contract across runs on one
// engine: counters tallied after a Reset equal a fresh observer's, including
// the cumulative-hardware-counter deltas (matching rounds, faults), which the
// attach-time priming and the engine's per-run differencing must keep
// aligned.
func TestObserverReuseAndReset(t *testing.T) {
	n := 16
	ft := core.NewUniversal(n, 4)
	ms := workload.Random(n, 2*n, 3)

	reused := obsv.New(ft)
	e := NewWithOptions(ft, concentrator.KindPartial, 1, Options{Observer: reused})
	e.Run(ms)
	reused.Reset()
	e.Run(ms)

	fresh := obsv.New(ft)
	e2 := New(ft, concentrator.KindPartial, 1)
	e2.Run(ms) // warm the switches so cumulative counters are non-zero
	e2.SetObserver(fresh)
	e2.Run(ms)

	if !obsv.CountersEqual(reused, fresh) {
		t.Fatal("reset observer diverges from a freshly attached one")
	}
}

// TestCompactObserverOnFatTree pins that either granularity attaches to
// either plane: on the binary streaming plane and on non-binary k-ary trees,
// a per-level observer reports what a per-node one does on the same run.
func TestCompactObserverOnFatTree(t *testing.T) {
	ft := core.NewUniversal(64, 16)
	ms := workload.Random(64, 256, 5)
	perNode, perLevel := obsv.New(ft), obsv.NewCompact(ft)
	for _, o := range []*obsv.Observer{perNode, perLevel} {
		NewWithOptions(ft, concentrator.KindPartial, 2, Options{Observer: o}).Run(ms)
	}
	checkSameLevels(t, ft, perNode, perLevel)

	for _, desc := range []core.KaryDesc{
		{Down: []int{4, 4}, Up: []int{2, 1}, Parallel: []int{1, 1}},
		{Down: []int{5, 5}, Up: []int{2, 1}, Parallel: []int{3, 2}, Root: 7},
		{Down: []int{4, 2, 3}, Up: []int{3, 2, 1}, Parallel: []int{1, 1, 1}},
	} {
		kt := core.NewKary(desc)
		kms := workload.Random(kt.Processors(), 4*kt.Processors(), 5)
		perNode, perLevel := obsv.New(kt), obsv.NewCompact(kt)
		for _, o := range []*obsv.Observer{perNode, perLevel} {
			NewWithOptions(kt, concentrator.KindIdeal, 0, Options{Observer: o}).Run(kms)
		}
		checkSameLevels(t, kt, perNode, perLevel)
	}
}

// checkSameLevels fails unless the per-level observer level reports what the
// per-node observer node does after the same runs on ft: the per-node slots
// folded by level equal the per-level slots (sums; QueuePeak a maximum), and
// the snapshots — outcome totals, scheduler levels, histograms and PerLevel
// rows — are equal once the slot-indexed arrays are set aside.
func checkSameLevels(t *testing.T, ft *core.FatTree, node, level *obsv.Observer) {
	t.Helper()
	a, b := node.Snapshot(), level.Snapshot()
	x, y := &a.Counters, &b.Counters
	for _, p := range []struct {
		name       string
		nodes, lvl []int64
		width      int
	}{
		{"WireUse", x.WireUse, y.WireUse, 2}, {"Requests", x.Requests, y.Requests, 1},
		{"Grants", x.Grants, y.Grants, 1}, {"Drops", x.Drops, y.Drops, 1},
		{"MatchRounds", x.MatchRounds, y.MatchRounds, 1}, {"Faults", x.Faults, y.Faults, 1},
		{"Stalls", x.Stalls, y.Stalls, 2}, {"QueuePeak", x.QueuePeak, y.QueuePeak, 2},
	} {
		folded := make([]int64, len(p.lvl))
		for i, c := range p.nodes[p.width:] {
			v, d := 1+i/p.width, i%p.width
			j := p.width*ft.Level(v) + d
			if p.name == "QueuePeak" {
				folded[j] = max(folded[j], c)
			} else {
				folded[j] += c
			}
		}
		if !reflect.DeepEqual(folded, p.lvl) {
			t.Fatalf("%s folded by level %v, per-level observer %v", p.name, folded, p.lvl)
		}
	}
	for _, c := range []*obsv.Counters{x, y} {
		c.WireUse, c.Requests, c.Grants, c.Drops = nil, nil, nil, nil
		c.MatchRounds, c.Faults, c.Stalls, c.QueuePeak = nil, nil, nil, nil
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("per-level observer diverges from per-node\nper-node  %+v\nper-level %+v", a, b)
	}
}

// TestSetObserverRejectsWrongTree pins the size check at attach time.
func TestSetObserverRejectsWrongTree(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("attaching an observer for a different tree size did not panic")
		}
	}()
	e := New(core.NewUniversal(16, 4), concentrator.KindIdeal, 1)
	e.SetObserver(obsv.New(core.NewUniversal(32, 4)))
}

// TestRunBufferedObserved checks the buffered-model wiring: identical stats
// with and without an observer, and the per-channel Stalls/QueuePeak arrays
// consistent with the aggregate stats.
func TestRunBufferedObserved(t *testing.T) {
	n := 32
	ft := core.NewUniversal(n, 2)
	ms := workload.Random(n, 4*n, 17)
	plain := RunBuffered(ft, ms, 2)
	o := obsv.New(ft)
	observed := RunBufferedObserved(ft, ms, 2, o)
	if !reflect.DeepEqual(plain, observed) {
		t.Fatalf("observer perturbed the buffered run\nplain    %+v\nobserved %+v", plain, observed)
	}
	stalls := int64(0)
	peak := int64(0)
	for ch := range o.C.Stalls {
		stalls += o.C.Stalls[ch]
		if o.C.QueuePeak[ch] > peak {
			peak = o.C.QueuePeak[ch]
		}
	}
	if stalls != int64(plain.Stalls) {
		t.Fatalf("per-channel stalls %d != aggregate %d", stalls, plain.Stalls)
	}
	if peak != int64(plain.MaxQueue) {
		t.Fatalf("per-channel queue peak %d != aggregate %d", peak, plain.MaxQueue)
	}
	perLevel := obsv.NewCompact(ft)
	RunBufferedObserved(ft, ms, 2, perLevel)
	checkSameLevels(t, ft, o, perLevel)
}
