package sim

import (
	"math"
	"testing"

	"fattree/internal/concentrator"
	"fattree/internal/core"
	"fattree/internal/obsv"
	"fattree/internal/workload"
)

// TestLatencyHistogram pins the latency accounting on every retry-loop path:
// the histogram records exactly one observation per delivered message, every
// latency is at least 1 cycle (delivered the cycle it was first offered) and
// at most the run's cycle count, and a congestion-free permutation on ideal
// switches delivers everything in one cycle (all latencies exactly 1).
func TestLatencyHistogram(t *testing.T) {
	n := 32
	ft := core.NewUniversal(n, 8)

	t.Run("pairs-ideal-one-cycle", func(t *testing.T) {
		// Leaf-pair exchanges never contend (each bottom switch routes one
		// message), so the whole set delivers in one cycle and every latency
		// is exactly 1.
		ms := make(core.MessageSet, 0, n/2)
		for i := 0; i < n; i += 2 {
			ms = append(ms, core.Message{Src: i, Dst: i + 1})
		}
		o := obsv.New(ft)
		e := NewWithOptions(ft, concentrator.KindIdeal, 1, Options{Observer: o})
		stats := e.Run(ms)
		if stats.Cycles != 1 || stats.Delivered != n/2 {
			t.Fatalf("pair exchange not one-cycle: %+v", stats)
		}
		s := o.Snapshot()
		if s.Latency.Count != int64(stats.Delivered) {
			t.Fatalf("latency count %d != delivered %d", s.Latency.Count, stats.Delivered)
		}
		if s.Latency.Sum != s.Latency.Count {
			t.Fatalf("congestion-free run: latency sum %d != count %d (want all 1s)",
				s.Latency.Sum, s.Latency.Count)
		}
	})

	t.Run("random-lossy-retry", func(t *testing.T) {
		o := obsv.New(ft)
		e := NewWithOptions(ft, concentrator.KindPartial, 5, Options{Observer: o})
		e.InjectLoss(0.05, 7)
		stats := e.Run(workload.Random(n, 4*n, 9))
		s := o.Snapshot()
		if s.Latency.Count != int64(stats.Delivered) {
			t.Fatalf("latency count %d != delivered %d", s.Latency.Count, stats.Delivered)
		}
		if s.Latency.Sum < s.Latency.Count {
			t.Fatalf("latency sum %d < count %d: some latency below 1", s.Latency.Sum, s.Latency.Count)
		}
		if max := int64(stats.Cycles) * s.Latency.Count; s.Latency.Sum > max {
			t.Fatalf("latency sum %d exceeds cycles×count %d", s.Latency.Sum, max)
		}
		if stats.Cycles > 1 && s.Latency.Sum == s.Latency.Count {
			t.Fatal("multi-cycle lossy run recorded no retried delivery latencies")
		}
	})

	t.Run("cycle-sequence", func(t *testing.T) {
		o := obsv.New(ft)
		e := NewWithOptions(ft, concentrator.KindPartial, 5, Options{Observer: o})
		ms := workload.Random(n, 3*n, 13)
		stats := e.RunCycles([]core.MessageSet{ms[:n], ms[n : 2*n], ms[2*n:]})
		s := o.Snapshot()
		if s.Latency.Count != int64(stats.Delivered) {
			t.Fatalf("latency count %d != delivered %d", s.Latency.Count, stats.Delivered)
		}
	})

	t.Run("online-random", func(t *testing.T) {
		o := obsv.New(ft)
		e := NewWithOptions(ft, concentrator.KindIdeal, 5, Options{Observer: o})
		stats := RunOnlineRandom(e, workload.Random(n, 4*n, 21), 23)
		s := o.Snapshot()
		if s.Latency.Count != int64(stats.Delivered) {
			t.Fatalf("latency count %d != delivered %d", s.Latency.Count, stats.Delivered)
		}
	})

	t.Run("open-loop", func(t *testing.T) {
		// Arrivals above the skinny root's capacity, so losers carry over
		// and latencies exceed 1. The histogram and MeanLatency come from
		// the same first-offer stamps.
		o := obsv.New(ft)
		e := NewWithOptions(ft, concentrator.KindIdeal, 5, Options{Observer: o})
		stats := RunOpenLoop(e, UniformArrivals(ft, n, 25), 40, 27)
		s := o.Snapshot()
		if s.Latency.Count != int64(stats.Delivered) {
			t.Fatalf("latency count %d != delivered %d", s.Latency.Count, stats.Delivered)
		}
		if s.Latency.Sum <= s.Latency.Count {
			t.Fatalf("congested open loop recorded no retried delivery latencies: sum %d, count %d",
				s.Latency.Sum, s.Latency.Count)
		}
		if mean := float64(s.Latency.Sum) / float64(s.Latency.Count); math.Abs(mean-stats.MeanLatency) > 1e-9 {
			t.Fatalf("histogram mean latency %v != MeanLatency %v", mean, stats.MeanLatency)
		}
	})
}

// TestParallelHistogramsEqual extends the determinism contract to the
// histogram layer: latency, match-round, queue-depth, and per-level
// utilization bucket arrays are bit-identical across two runs on fresh
// engines (CountersEqual compares them), and non-vacuously so — the workload
// is congested and lossy enough that the latency and match-round histograms
// are populated with multi-cycle deliveries.
func TestParallelHistogramsEqual(t *testing.T) {
	n := 32
	ft := core.NewUniversal(n, 4)
	ms := workload.Random(n, 4*n, 11)
	run := func() *obsv.Observer {
		o := obsv.New(ft)
		e := NewWithOptions(ft, concentrator.KindPartial, 9, Options{Observer: o})
		e.InjectLoss(0.03, 13)
		e.Run(ms)
		return o
	}
	ref := run()
	s := ref.Snapshot()
	if s.Latency.Count == 0 || s.MatchRounds.Count == 0 {
		t.Fatalf("vacuous fixture: latency count %d, match-round count %d",
			s.Latency.Count, s.MatchRounds.Count)
	}
	if s.Latency.Sum == s.Latency.Count {
		t.Fatal("vacuous fixture: no multi-cycle deliveries")
	}
	util := int64(0)
	for _, h := range s.LevelUtil {
		util += h.Count
	}
	if util == 0 {
		t.Fatal("vacuous fixture: level-utilization histograms empty")
	}
	if !obsv.CountersEqual(ref, run()) {
		t.Fatal("histograms diverge between identical runs")
	}
}

// TestSnapshotDuringRun pins the mid-run snapshot contract: while one
// goroutine drives observed runs, concurrent Snapshot calls always see whole
// delivery cycles — the conservation law holds in every snapshot, cycle
// counts never go backwards, and the latency histogram never gets ahead of
// the delivered counter. Run with -race this is also the data-race proof for
// the Observer mutex.
func TestSnapshotDuringRun(t *testing.T) {
	n := 32
	ft := core.NewUniversal(n, 4)
	ms := workload.Random(n, 4*n, 19)
	o := obsv.New(ft)
	e := NewWithOptions(ft, concentrator.KindPartial, 3, Options{Observer: o})
	e.InjectLoss(0.05, 11)

	prev := o.Snapshot() // all-zero baseline with the right bucket layouts
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 30; i++ {
			e.Run(ms)
		}
	}()

	snaps := 0
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		s := o.Snapshot()
		snaps++
		c := &s.Counters
		if c.Offered != c.Delivered+c.Dropped+c.Deferred {
			t.Fatalf("snapshot %d tore a cycle: offered %d != delivered %d + dropped %d + deferred %d",
				snaps, c.Offered, c.Delivered, c.Dropped, c.Deferred)
		}
		if c.Cycles < prev.Counters.Cycles || c.Offered < prev.Counters.Offered {
			t.Fatalf("snapshot %d went backwards: cycles %d < %d", snaps, c.Cycles, prev.Counters.Cycles)
		}
		if s.Latency.Count > c.Delivered {
			t.Fatalf("snapshot %d: latency count %d ahead of delivered %d",
				snaps, s.Latency.Count, c.Delivered)
		}
		// Diffs between successive live snapshots must stay consistent too.
		d := s.Sub(prev)
		if d.Counters.Offered != d.Counters.Delivered+d.Counters.Dropped+d.Counters.Deferred {
			t.Fatalf("snapshot %d: diff violates conservation: %+v", snaps, d.Counters)
		}
		prev = s
	}
	<-done
	// The final snapshot must match the settled counters exactly.
	s := o.Snapshot()
	if s.Counters.Delivered != o.C.Delivered || s.Latency.Count != o.C.Delivered {
		t.Fatalf("final snapshot diverges: %+v vs delivered %d", s.Counters, o.C.Delivered)
	}
}
