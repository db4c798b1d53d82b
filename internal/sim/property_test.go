package sim

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"fattree/internal/concentrator"
	"fattree/internal/core"
	"fattree/internal/sched"
	"fattree/internal/workload"
)

// TestEngineDeliveryProperty fuzzes the delivery engine across random tree
// profiles and workloads: online delivery (both protocols) always completes
// on ideal switches, and playing a valid off-line schedule never drops.
func TestEngineDeliveryProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 << (3 + rng.Intn(3)) // 8..32
		ft := workload.RandomTreeProfile(n, 8, seed)
		ms := workload.Random(n, 1+rng.Intn(4*n), seed+1)

		e := New(ft, concentrator.KindIdeal, seed)
		if got := RunOnline(e, ms); got.Delivered != len(ms) {
			t.Logf("seed %d: online delivered %d/%d", seed, got.Delivered, len(ms))
			return false
		}
		if got := RunOnlineRandom(e, ms, seed+2); got.Delivered != len(ms) {
			t.Logf("seed %d: random online delivered %d/%d", seed, got.Delivered, len(ms))
			return false
		}
		s := sched.OffLine(ft, ms)
		stats := RunSchedule(e, s)
		if stats.Drops != 0 || stats.Deferrals != 0 || stats.Delivered != len(ms) {
			t.Logf("seed %d: schedule playback %+v", seed, stats)
			return false
		}
		return stats.Cycles == s.Length()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestEngineCycleConservation fuzzes single cycles: delivered + dropped +
// deferred + still-in-flight-nowhere must cover all messages exactly, and
// delivered messages are a subset of the input.
func TestEngineCycleConservation(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 << (3 + rng.Intn(3))
		ft := workload.RandomTreeProfile(n, 6, seed)
		ms := workload.Random(n, 1+rng.Intn(3*n), seed+1)
		e := New(ft, concentrator.KindIdeal, seed)
		delivered, res := e.RunCycle(ms)
		count := 0
		for _, ok := range delivered {
			if ok {
				count++
			}
		}
		if count != res.Delivered {
			return false
		}
		// Every message is either delivered, or was dropped/deferred at some
		// point: dropped+deferred >= undelivered (a message can be dropped at
		// most once per cycle).
		undelivered := len(ms) - count
		return res.Dropped+res.Deferred == undelivered
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestEngineReuseMatchesFresh fuzzes the scratch-arena reuse contract: one
// engine running a sequence of unrelated workloads (of varying size, so the
// arena shrinks and regrows) must produce exactly the stats a fresh engine
// produces for each workload, on both switch kinds.
// Any cross-cycle residue in the arena — a stale epoch stamp, an unreset
// bucket, a dirty wire guard — shows up as a divergence here.
func TestEngineReuseMatchesFresh(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 << (3 + rng.Intn(3))
		ft := workload.RandomTreeProfile(n, 8, seed)
		kind := concentrator.KindIdeal
		if seed%2 == 0 {
			kind = concentrator.KindPartial
		}
		reused := New(ft, kind, seed)
		for rep := 0; rep < 4; rep++ {
			ms := workload.Random(n, 1+rng.Intn(4*n), seed+int64(rep))
			got := reused.Run(ms)
			want := New(ft, kind, seed).Run(ms)
			if !reflect.DeepEqual(got, want) {
				t.Logf("seed %d rep %d: reused %+v, fresh %+v", seed, rep, got, want)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestLossyEngineStillDelivers fuzzes transient-fault injection: with loss
// rates up to 10%, the retry protocol always finishes on ideal switches.
func TestLossyEngineStillDelivers(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 16
		ft := core.NewUniversal(n, 8)
		e := New(ft, concentrator.KindIdeal, seed)
		rate := 0.02 + 0.08*rng.Float64()
		e.InjectLoss(rate, seed+1)
		ms := workload.Random(n, 2*n, seed+2)
		stats := RunOnlineRandom(e, ms, seed+3)
		return stats.Delivered == len(ms)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
