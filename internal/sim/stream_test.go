package sim

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"fattree/internal/concentrator"
	"fattree/internal/core"
	"fattree/internal/obsv"
)

// streamScenario pairs a materialized tree with its implicit twin and a
// message set; every equivalence test below demands bit-identical behavior
// between the dense engine on the FatTree and the streaming engine on the
// ImplicitFatTree.
type streamScenario struct {
	name string
	ft   *core.FatTree
	imp  *core.ImplicitFatTree
	ms   core.MessageSet
	kind concentrator.Kind
	seed int64
	loss float64
}

// mirrorTrees builds a FatTree and an ImplicitFatTree with the same capacity
// profile and the same overrides.
func mirrorTrees(n, w int, overrides map[int]int) (*core.FatTree, *core.ImplicitFatTree) {
	ft := core.NewUniversal(n, w)
	imp := core.NewImplicitUniversal(n, w)
	for v, c := range overrides {
		ft.SetChannelCapacity(v, c)
		imp.SetChannelCapacity(v, c)
	}
	return ft, imp
}

func randomMessages(n, count int, seed int64, external bool) core.MessageSet {
	rng := rand.New(rand.NewSource(seed))
	ms := make(core.MessageSet, 0, count)
	for len(ms) < count {
		if external && rng.Intn(8) == 0 {
			if rng.Intn(2) == 0 {
				ms = append(ms, core.Message{Src: core.External, Dst: rng.Intn(n)})
			} else {
				ms = append(ms, core.Message{Src: rng.Intn(n), Dst: core.External})
			}
			continue
		}
		s, d := rng.Intn(n), rng.Intn(n)
		if s != d {
			ms = append(ms, core.Message{Src: s, Dst: d})
		}
	}
	return ms
}

func streamScenarios() []streamScenario {
	var out []streamScenario

	ft, imp := mirrorTrees(16, 4, nil)
	out = append(out, streamScenario{
		name: "universal-ideal", ft: ft, imp: imp,
		ms: randomMessages(16, 48, 1, true), kind: concentrator.KindIdeal, seed: 7,
	})

	ft, imp = mirrorTrees(32, 8, nil)
	out = append(out, streamScenario{
		name: "universal-partial", ft: ft, imp: imp,
		ms: randomMessages(32, 80, 2, false), kind: concentrator.KindPartial, seed: 11,
	})

	ft, imp = mirrorTrees(16, 4, nil)
	out = append(out, streamScenario{
		name: "universal-lossy", ft: ft, imp: imp,
		ms: randomMessages(16, 40, 3, true), kind: concentrator.KindIdeal, seed: 13, loss: 0.08,
	})

	// Narrowing overrides on both children of node 2 and on a leaf channel:
	// the sparse overlay must agree with the dense capacity table everywhere.
	ov := map[int]int{4: 1, 5: 1, 16: 1}
	ft, imp = mirrorTrees(16, 8, ov)
	out = append(out, streamScenario{
		name: "overrides-ideal", ft: ft, imp: imp,
		ms: randomMessages(16, 64, 4, true), kind: concentrator.KindIdeal, seed: 17,
	})

	// Overrides narrow both siblings: the dense switch constructor sizes a
	// node's two down ports from its left child alone, so a lone-child
	// override would make the dense engine itself reject wide wires.
	ft, imp = mirrorTrees(8, 2, map[int]int{6: 1, 7: 1})
	out = append(out, streamScenario{
		name: "overrides-partial-lossy", ft: ft, imp: imp,
		ms: randomMessages(8, 32, 5, false), kind: concentrator.KindPartial, seed: 19, loss: 0.05,
	})

	// A deeper tree with enough traffic that most nodes see both children's
	// runs, so every up and down step merges non-trivial sibling runs and
	// turn lists. Narrowed sibling pairs at two levels and partial switches
	// add drops (and their retries) to the carried lists.
	ft, imp = mirrorTrees(256, 32, map[int]int{6: 4, 7: 4, 40: 1, 41: 1})
	out = append(out, streamScenario{
		name: "deep-overrides-partial", ft: ft, imp: imp,
		ms: randomMessages(256, 600, 6, true), kind: concentrator.KindPartial, seed: 29,
	})

	// Sparse trees (loneSparsity*messages < n): most flights climb and
	// descend alone below the top levels, so every cycle routes lone hops,
	// arrivals into the carried lists, and turners alone below their LCA.
	// Narrowed sibling pairs at three depths put drops on lone paths; the
	// second scenario routes the lone hops of partial, lossy switches through
	// the one-key fallback.
	sparseOv := map[int]int{6: 8, 7: 8, 300: 1, 301: 1, 700: 1, 701: 1}
	ft, imp = mirrorTrees(1024, 128, sparseOv)
	out = append(out, streamScenario{
		name: "sparse-overrides-ideal", ft: ft, imp: imp,
		ms: randomMessages(1024, 90, 7, true), kind: concentrator.KindIdeal, seed: 31,
	})
	ft, imp = mirrorTrees(1024, 128, sparseOv)
	out = append(out, streamScenario{
		name: "sparse-partial-lossy", ft: ft, imp: imp,
		ms: randomMessages(1024, 100, 8, true), kind: concentrator.KindPartial, seed: 37, loss: 0.05,
	})
	// Three sibling-leaf messages turn at their leaves' parent on injection:
	// 10->11 alone below it, 20->21 sharing its destination with 500->21.
	ft, imp = mirrorTrees(1024, 256, nil)
	out = append(out, streamScenario{
		name: "sparse-internal-ideal", ft: ft, imp: imp,
		ms: append(randomMessages(1024, 57, 9, false),
			core.Message{Src: 10, Dst: 11}, core.Message{Src: 20, Dst: 21}, core.Message{Src: 500, Dst: 21}),
		kind: concentrator.KindIdeal, seed: 41,
	})

	// Tiny tree: a single level of switches.
	ft2 := core.NewConstant(2, 3)
	imp2 := core.NewImplicitConstant(2, 3)
	out = append(out, streamScenario{
		name: "two-leaves", ft: ft2, imp: imp2,
		ms:   core.MessageSet{{Src: 0, Dst: 1}, {Src: 1, Dst: 0}, {Src: 0, Dst: 1}, {Src: core.External, Dst: 0}},
		kind: concentrator.KindIdeal, seed: 23,
	})

	return out
}

func (sc *streamScenario) engine(t core.Topology) *Engine {
	e := New(t, sc.kind, sc.seed)
	if sc.loss > 0 {
		e.InjectLoss(sc.loss, sc.seed+1)
	}
	return e
}

// TestStreamMatchesDense pins the headline equivalence: for every scenario
// the streaming engine reproduces the dense engine bit for bit — Stats
// including the per-cycle delivery profile — with and without an attached
// observer, whose counter totals and histograms must also agree across
// engines.
func TestStreamMatchesDense(t *testing.T) {
	for _, sc := range streamScenarios() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			dense := sc.engine(sc.ft).Run(sc.ms)
			stream := sc.engine(sc.imp).Run(sc.ms)
			if !reflect.DeepEqual(dense, stream) {
				t.Fatalf("stream diverges from dense\ndense  %+v\nstream %+v", dense, stream)
			}

			// Dense observers on both engines: identical counter totals and
			// histograms regardless of engine.
			oDense := obsv.New(sc.ft)
			eD := sc.engine(sc.ft)
			eD.SetObserver(oDense)
			obsDense := eD.Run(sc.ms)
			if !reflect.DeepEqual(obsDense, dense) {
				t.Fatalf("observer perturbed the dense run")
			}
			oStream := obsv.New(sc.imp)
			eS := sc.engine(sc.imp)
			eS.SetObserver(oStream)
			obsStream := eS.Run(sc.ms)
			if !reflect.DeepEqual(obsStream, dense) {
				t.Fatalf("observed stream stats diverge")
			}
			if !obsv.CountersEqual(oDense, oStream) {
				t.Fatalf("stream observer counters diverge from dense")
			}

			// A compact observer on the streaming engine must report the same
			// per-level aggregation as the dense observer, in O(levels) memory.
			oCompact := obsv.NewCompact(sc.imp)
			eC := sc.engine(sc.imp)
			eC.SetObserver(oCompact)
			if got := eC.Run(sc.ms); !reflect.DeepEqual(got, dense) {
				t.Fatalf("compact observer perturbed the stream run")
			}
			want, got := oDense.PerLevel(), oCompact.PerLevel()
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("compact per-level summary diverges\ndense   %+v\ncompact %+v", want, got)
			}
			cD, cC := &oDense.C, &oCompact.C
			if cD.Offered != cC.Offered || cD.Delivered != cC.Delivered ||
				cD.Dropped != cC.Dropped || cD.Deferred != cC.Deferred {
				t.Fatalf("compact outcome counters diverge: %+v vs %+v", cD, cC)
			}
		})
	}
}

// TestStreamCompiledSettings pins wire-history equivalence: compiling the
// same schedule on the dense and streaming engines must produce identical
// per-message wire paths, cycle by cycle.
func TestStreamCompiledSettings(t *testing.T) {
	ft, imp := mirrorTrees(16, 4, nil)
	ms := randomMessages(16, 40, 9, true)
	sD, stD := compileFor(t, ft, ms)
	sS, stS := compileFor(t, imp, ms)
	if sD.Cycles != sS.Cycles {
		t.Fatalf("schedule cycle counts diverge: %d vs %d", sD.Cycles, sS.Cycles)
	}
	if !reflect.DeepEqual(stD.Cycles, stS.Cycles) {
		t.Fatalf("compiled wire paths diverge between dense and stream engines")
	}
	if d, err := stS.Replay(); err != nil || d != len(ms) {
		t.Fatalf("stream-compiled settings replay: delivered %d err %v", d, err)
	}
}

func compileFor(t *testing.T, tree core.Topology, ms core.MessageSet) (Stats, *Settings) {
	t.Helper()
	stats, sched := DeliverOffline(tree, ms)
	if stats.Drops != 0 || stats.Deferrals != 0 {
		t.Fatalf("offline delivery on %v dropped or deferred: %+v", tree, stats)
	}
	return stats, CompileSettings(tree, sched)
}

// TestStreamEngineReuse runs shrinking and growing message sets through one
// streaming engine and checks each against a fresh engine: the plane's
// scratch (key lists, wire-guard bitsets, lone-pass arrival lists) must not
// leak state between cycles or runs. Every stream scenario is reused as
// well, so each contested node assigns the same wires again and a guard bit
// left over from an earlier run would panic. Injected loss draws from a stream that runs on across reuse,
// so lossy scenarios are checked for that panic only.
func TestStreamEngineReuse(t *testing.T) {
	_, imp := mirrorTrees(32, 4, nil)
	ms := randomMessages(32, 96, 21, true)
	reused := New(imp, concentrator.KindIdeal, 3)
	for rep, sc := range []core.MessageSet{ms, ms[:12], ms, ms[:5], ms[:0], ms} {
		got := reused.Run(sc)
		want := New(imp, concentrator.KindIdeal, 3).Run(sc)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("rep %d: reused stream engine diverges\nreused %+v\nfresh  %+v", rep, got, want)
		}
	}
	for _, sc := range streamScenarios() {
		reused := sc.engine(sc.imp)
		for rep := 0; rep < 3; rep++ {
			got := reused.Run(sc.ms)
			if sc.loss > 0 {
				continue
			}
			if want := sc.engine(sc.imp).Run(sc.ms); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s rep %d: reused stream engine diverges\nreused %+v\nfresh  %+v", sc.name, rep, got, want)
			}
		}
	}
}

// TestStreamWireGuard drives the node-run scratch's wire guards directly. A
// wire assigned twice in one run must panic, on the up side and on each down
// side.
// The same wire assigned in consecutive runs must not panic: releaseRun has
// to clear every bit the run set, walking winners only.
func TestStreamWireGuard(t *testing.T) {
	const width, w = 130, 129 // three words; w sits in the last
	sides := []struct {
		name   string
		upward bool
		node   int // the winner's f.node after the claim
		claim  func(sh *streamShard, w int)
	}{
		{"up", true, 5, func(sh *streamShard, w int) { sh.claimUp(w, width) }},
		{"down-left", false, 10, func(sh *streamShard, w int) { sh.claimDown(0, w, width) }},
		{"down-right", false, 11, func(sh *streamShard, w int) { sh.claimDown(1, w, width) }},
	}
	newShard := func() *streamShard {
		sh := &streamShard{}
		sh.upUsed = sh.upUsed.fit(width)
		sh.downUsed[0] = sh.downUsed[0].fit(width)
		sh.downUsed[1] = sh.downUsed[1].fit(width)
		return sh
	}
	mustPanic := func(t *testing.T, what string, fn func()) {
		t.Helper()
		defer func() {
			r := recover()
			if msg, _ := r.(string); !strings.Contains(msg, "wire oversubscribed") {
				t.Fatalf("%s: recovered %v, want a wire oversubscribed panic", what, r)
			}
		}()
		fn()
	}
	for _, sd := range sides {
		t.Run(sd.name, func(t *testing.T) {
			mustPanic(t, "twice in one run", func() {
				sh := newShard()
				sd.claim(sh, w)
				sd.claim(sh, w)
			})

			// A winner on w, reused by consecutive runs, and a dropped flight
			// whose stale wire lies beyond every bitset: releaseRun must skip it.
			sh := newShard()
			flights := []flight{
				{state: flightUp, node: sd.node, wire: w},
				{state: flightLost, node: sd.node, wire: 1 << 20},
			}
			run := []uint64{0, 1}
			for rep := 0; rep < 3; rep++ {
				sd.claim(sh, w)
				sh.releaseRun(flights, run, sd.upward)
				for _, s := range [][]uint64{sh.upUsed, sh.downUsed[0], sh.downUsed[1]} {
					for i, word := range s {
						if word != 0 {
							t.Fatalf("rep %d: word %d = %#x after releaseRun, want 0", rep, i, word)
						}
					}
				}
			}
		})
	}
}

// TestStreamHugeTopology exercises the headline capability at a size the
// dense engine could not materialize cheaply: 2^20 endpoints. The message
// set is small — the point is that engine construction and routing cost are
// functions of the message count, not the processor count.
func TestStreamHugeTopology(t *testing.T) {
	const n = 1 << 20
	imp := core.NewImplicitUniversal(n, 1<<14)
	ms := randomMessages(n, 2048, 41, true)
	e := New(imp, concentrator.KindIdeal, 0)
	stats := e.Run(ms)
	if stats.Delivered != len(ms) {
		t.Fatalf("huge run undelivered: %+v", stats)
	}
	if stats.Drops != 0 {
		t.Fatalf("ideal switches dropped: %+v", stats)
	}
}

// TestStreamRunCycleAllocs pins the scratch-arena contract on the streaming
// path: after warm-up, a serial ideal-kind RunCycle allocates nothing, with
// or without a per-node observer attached (tenant engines run observed).
func TestStreamRunCycleAllocs(t *testing.T) {
	for _, observed := range []bool{false, true} {
		imp := core.NewImplicitUniversal(1<<16, 256)
		ms := randomMessages(1<<16, 512, 51, false)
		e := New(imp, concentrator.KindIdeal, 0)
		if observed {
			e.SetObserver(obsv.New(imp))
		}
		e.RunCycle(ms) // warm the arena to its high-water mark
		if avg := testing.AllocsPerRun(10, func() { e.RunCycle(ms) }); avg != 0 {
			t.Fatalf("observed=%v: steady-state stream RunCycle allocates: %v allocs/op", observed, avg)
		}
	}
}

// TestStreamCarryOrder checks the carried-list merges against a sort. Each
// trial builds a step's winners the way the engine emits them — node by
// node, each node's run ascending — for the children of one level; re-keyed
// to the parents, every group is a left-child run then a right-child run,
// and siblingMerge must order it exactly as slices.Sort does, after any
// existing prefix of dst. The merged turn list then meets the descenders of
// the same level, and mergeKeys must equal the sort of both.
func TestStreamCarryOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	for trial := 0; trial < 300; trial++ {
		level := 1 + rng.Intn(8) // parents at level-1, children at level
		first := 1 << level
		idx := rng.Perm(1 << 12) // distinct flight indices
		run := func(dst []uint64, node int) []uint64 {
			m := rng.Intn(5)
			if rng.Intn(3) == 0 {
				m = 0 // leave some nodes empty
			}
			part := idx[:m]
			idx = idx[m:]
			slices.Sort(part)
			for _, i := range part {
				dst = append(dst, uint64(node)<<32|uint64(i))
			}
			return dst
		}
		var held, desc []uint64
		for c := first; c < 2*first; c++ {
			held = run(held, c)
		}
		for p := first / 2; p < first; p++ {
			desc = run(desc, p)
		}

		prefix := []uint64{7, 3} // an earlier level's segment, left untouched
		turns := siblingMerge(slices.Clone(prefix), held)
		want := make([]uint64, 0, len(held))
		for _, k := range held {
			want = append(want, k>>33<<32|k&keyIndex)
		}
		slices.Sort(want)
		if !slices.Equal(turns[:2], prefix) || !slices.Equal(turns[2:], want) {
			t.Fatalf("trial %d: siblingMerge\n got %x\nwant %x (after prefix %x)", trial, turns, want, prefix)
		}

		merged := mergeKeys(nil, desc, turns[2:])
		all := slices.Concat(desc, turns[2:])
		slices.Sort(all)
		if !slices.Equal(merged, all) {
			t.Fatalf("trial %d: mergeKeys\n got %x\nwant %x", trial, merged, all)
		}
	}
}
