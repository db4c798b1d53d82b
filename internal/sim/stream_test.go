package sim

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"fattree/internal/concentrator"
	"fattree/internal/core"
	"fattree/internal/obsv"
)

// streamScenario is a tree, a message set and a switch model; every
// equivalence test below demands bit-identical behavior between the
// streaming plane and the dense reference engine (reference_test.go).
type streamScenario struct {
	name string
	ft   *core.FatTree
	ms   core.MessageSet
	kind concentrator.Kind
	seed int64
	loss float64
}

// universalTree builds a universal fat-tree with the given overrides.
func universalTree(n, w int, overrides map[int]int) *core.FatTree {
	ft := core.NewUniversal(n, w)
	for v, c := range overrides {
		ft.SetChannelCapacity(v, c)
	}
	return ft
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

	ft := universalTree(16, 4, nil)
	out = append(out, streamScenario{
		name: "universal-ideal", ft: ft,
		ms: randomMessages(16, 48, 1, true), kind: concentrator.KindIdeal, seed: 7,
	})

	ft = universalTree(32, 8, nil)
	out = append(out, streamScenario{
		name: "universal-partial", ft: ft,
		ms: randomMessages(32, 80, 2, false), kind: concentrator.KindPartial, seed: 11,
	})

	ft = universalTree(16, 4, nil)
	out = append(out, streamScenario{
		name: "universal-lossy", ft: ft,
		ms: randomMessages(16, 40, 3, true), kind: concentrator.KindIdeal, seed: 13, loss: 0.08,
	})

	// Narrowing overrides on both children of node 2 and on a leaf channel:
	// the sparse overlay must agree with the reference's capacity table
	// everywhere.
	ov := map[int]int{4: 1, 5: 1, 16: 1}
	ft = universalTree(16, 8, ov)
	out = append(out, streamScenario{
		name: "overrides-ideal", ft: ft,
		ms: randomMessages(16, 64, 4, true), kind: concentrator.KindIdeal, seed: 17,
	})

	// Overrides narrow both siblings: a switch sizes its two down ports from
	// its left child alone, so a lone-child override would make the
	// reference's eager switch reject wide wires.
	ft = universalTree(8, 2, map[int]int{6: 1, 7: 1})
	out = append(out, streamScenario{
		name: "overrides-partial-lossy", ft: ft,
		ms: randomMessages(8, 32, 5, false), kind: concentrator.KindPartial, seed: 19, loss: 0.05,
	})

	// A deeper tree with enough traffic that most nodes see both children's
	// runs, so every up and down step merges non-trivial sibling runs and
	// turn lists. Narrowed sibling pairs at two levels and partial switches
	// add drops (and their retries) to the carried lists.
	ft = universalTree(256, 32, map[int]int{6: 4, 7: 4, 40: 1, 41: 1})
	out = append(out, streamScenario{
		name: "deep-overrides-partial", ft: ft,
		ms: randomMessages(256, 600, 6, true), kind: concentrator.KindPartial, seed: 29,
	})

	// Sparse trees (loneSparsity*messages < n): most flights climb and
	// descend alone below the top levels, so every cycle routes lone hops,
	// arrivals into the carried lists, and turners alone below their LCA.
	// Narrowed sibling pairs at three depths put drops on lone paths; the
	// second scenario routes the lone hops of partial, lossy switches through
	// the one-key fallback.
	sparseOv := map[int]int{6: 8, 7: 8, 300: 1, 301: 1, 700: 1, 701: 1}
	ft = universalTree(1024, 128, sparseOv)
	out = append(out, streamScenario{
		name: "sparse-overrides-ideal", ft: ft,
		ms: randomMessages(1024, 90, 7, true), kind: concentrator.KindIdeal, seed: 31,
	})
	ft = universalTree(1024, 128, sparseOv)
	out = append(out, streamScenario{
		name: "sparse-partial-lossy", ft: ft,
		ms: randomMessages(1024, 100, 8, true), kind: concentrator.KindPartial, seed: 37, loss: 0.05,
	})
	// Three sibling-leaf messages turn at their leaves' parent on injection:
	// 10->11 alone below it, 20->21 sharing its destination with 500->21.
	ft = universalTree(1024, 256, nil)
	out = append(out, streamScenario{
		name: "sparse-internal-ideal", ft: ft,
		ms: append(randomMessages(1024, 57, 9, false),
			core.Message{Src: 10, Dst: 11}, core.Message{Src: 20, Dst: 21}, core.Message{Src: 500, Dst: 21}),
		kind: concentrator.KindIdeal, seed: 41,
	})

	// Tiny tree: a single level of switches.
	out = append(out, streamScenario{
		name: "two-leaves", ft: core.NewConstant(2, 3),
		ms:   core.MessageSet{{Src: 0, Dst: 1}, {Src: 1, Dst: 0}, {Src: 0, Dst: 1}, {Src: core.External, Dst: 0}},
		kind: concentrator.KindIdeal, seed: 23,
	})

	return out
}

func (sc *streamScenario) engine() *Engine {
	e := New(sc.ft, sc.kind, sc.seed)
	if sc.loss > 0 {
		e.InjectLoss(sc.loss, sc.seed+1)
	}
	return e
}

func (sc *streamScenario) ref() *refEngine {
	r := newRefEngine(sc.ft, sc.kind, sc.seed)
	if sc.loss > 0 {
		r.injectLoss(sc.loss, sc.seed+1)
	}
	return r
}

// TestStreamMatchesDense pins the headline equivalence: for every scenario
// the streaming plane reproduces the dense reference engine bit for bit —
// Stats including the per-cycle delivery profile, every cycle's delivered
// flags and wire histories, and a per-node observer's per-switch requests,
// drops, matching rounds and faults. Attaching an observer must not perturb
// the run, and a per-level observer must report the per-node observer's
// per-level aggregation.
func TestStreamMatchesDense(t *testing.T) {
	for _, sc := range streamScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			ref := sc.ref()
			want := ref.run(sc.ms)
			if got := sc.engine().Run(sc.ms); !reflect.DeepEqual(got, want) {
				t.Fatalf("stream diverges from the reference\nref    %+v\nstream %+v", want, got)
			}
			checkCycles(t, sc.engine(), sc.ref(), sc.ms)

			oDense := obsv.New(sc.ft)
			eD := sc.engine()
			eD.SetObserver(oDense)
			if got := eD.Run(sc.ms); !reflect.DeepEqual(got, want) {
				t.Fatalf("observer perturbed the stream run")
			}
			checkSwitchCounters(t, oDense, ref)

			// A per-level observer must report what the per-node one does,
			// in O(levels) memory.
			oLevel := obsv.NewCompact(sc.ft)
			eL := sc.engine()
			eL.SetObserver(oLevel)
			if got := eL.Run(sc.ms); !reflect.DeepEqual(got, want) {
				t.Fatalf("per-level observer perturbed the stream run")
			}
			checkSameLevels(t, sc.ft, oDense, oLevel)

			checkLoneGates(t, sc.engine, sc.ref, sc.ms, want)
		})
	}
}

// checkLoneGates runs ms with the lone pass forced on every cycle and on
// none. Detection may miss a lone hop but never invents one, so both runs
// must equal the reference: Stats, and every cycle's delivered flags and
// wire histories. At the gate's own density tiny trees never take the
// pass, and sparse ones always do.
func checkLoneGates(t *testing.T, mk func() *Engine, mkRef func() *refEngine, ms core.MessageSet, want Stats) {
	t.Helper()
	gated := func(gate int8) *Engine {
		e := mk()
		e.stream.loneGate = gate
		return e
	}
	for _, gate := range []int8{1, -1} {
		if got := gated(gate).Run(ms); !reflect.DeepEqual(got, want) {
			t.Fatalf("lone gate %+d: stream diverges from the reference\nref    %+v\nstream %+v", gate, want, got)
		}
		checkCycles(t, gated(gate), mkRef(), ms)
	}
}

// TestRadixByNode checks sortByNode against slices.Sort on keys appended
// in ascending index order: empty, single and the sizes around radixMin,
// random leaves, every key on one leaf, and leaves already sorted or
// reverse-sorted, over leaf spans of one to twenty levels (one radix pass
// up to radixDigit bits, two beyond). One state serves every size of a
// span, so the count table and buffer are reused.
func TestRadixByNode(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	for _, levels := range []int{1, 8, 11, 12, 20} {
		st := &streamState{levels: levels}
		span := 1 << levels
		inputs := []struct {
			name string
			leaf func(i, size int) int
		}{
			{"random", func(int, int) int { return rng.Intn(span) }},
			{"one-leaf", func(int, int) int { return span / 3 }},
			{"sorted", func(i, size int) int { return i * span / size }},
			{"reverse", func(i, size int) int { return (size - 1 - i) * span / size }},
		}
		for _, size := range []int{0, 1, 63, 64, 65, 4096} {
			for _, in := range inputs {
				keys := make([]uint64, size)
				for i := range keys {
					keys[i] = uint64(span+in.leaf(i, size))<<32 | uint64(i)
				}
				want := slices.Clone(keys)
				slices.Sort(want)
				st.sortByNode(keys)
				if !slices.Equal(keys, want) {
					t.Fatalf("levels %d, %d %s keys: sortByNode\n got %x\nwant %x", levels, size, in.name, keys, want)
				}
			}
		}
	}
}

// TestStreamCompiledSettings pins wire-history equivalence: compiling a
// schedule on the streaming plane must produce the reference engine's
// per-message wire paths, cycle by cycle.
func TestStreamCompiledSettings(t *testing.T) {
	ft := universalTree(16, 4, nil)
	ms := randomMessages(16, 40, 9, true)
	stats, s := DeliverOffline(ft, ms)
	if stats.Drops != 0 || stats.Deferrals != 0 {
		t.Fatalf("offline delivery dropped or deferred: %+v", stats)
	}
	st := CompileSettings(ft, s)
	if want := refSettings(ft, s); !reflect.DeepEqual(st.Cycles, want) {
		t.Fatalf("compiled wire paths diverge from the reference")
	}
	if d, err := st.Replay(); err != nil || d != len(ms) {
		t.Fatalf("compiled settings replay: delivered %d err %v", d, err)
	}
}

// TestStreamEngineReuse runs shrinking and growing message sets through one
// streaming engine and checks each against a fresh engine: the plane's
// scratch (key lists, wire-guard bitsets, lone-pass arrival lists) must not
// leak state between cycles or runs. Every stream scenario is reused as
// well, so each contested node assigns the same wires again and a guard bit
// left over from an earlier run would panic. Injected loss draws from a stream that runs on across reuse,
// so lossy scenarios are checked for that panic only.
func TestStreamEngineReuse(t *testing.T) {
	ft := universalTree(32, 4, nil)
	ms := randomMessages(32, 96, 21, true)
	reused := New(ft, concentrator.KindIdeal, 3)
	for rep, sc := range []core.MessageSet{ms, ms[:12], ms, ms[:5], ms[:0], ms} {
		got := reused.Run(sc)
		want := New(ft, concentrator.KindIdeal, 3).Run(sc)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("rep %d: reused stream engine diverges\nreused %+v\nfresh  %+v", rep, got, want)
		}
	}
	for _, sc := range streamScenarios() {
		reused := sc.engine()
		for rep := 0; rep < 3; rep++ {
			got := reused.Run(sc.ms)
			if sc.loss > 0 {
				continue
			}
			if want := sc.engine().Run(sc.ms); !reflect.DeepEqual(got, want) {
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
		sh.upUsed.fit(width)
		sh.downUsed[0].fit(width)
		sh.downUsed[1].fit(width)
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

// TestStreamFusedGuardRelease drives fuseUp and fuseDown on hand-built node
// runs and checks their guard release: after every run, consecutive runs
// included, every guard word is zero. The positional runs (a constant tree:
// rank j wins wire j) release by clearing the winners' words; the
// pass-through up runs (a doubling tree: the parent channel carries both
// children's wires) walk their winners. Each run has more than 64 winners,
// so the release spans several words. A duplicate wire inside a
// pass-through run must still panic.
func TestStreamFusedGuardRelease(t *testing.T) {
	// setup builds an engine on ft and a run of count flights at node v,
	// alternating children: each holds wire wire(j) on its child's channel
	// (up runs) or turns there towards leaf (down runs).
	setup := func(ft *core.FatTree, v, count int, wire func(j int) int) (*Engine, []uint64) {
		e := New(ft, concentrator.KindIdeal, 0)
		levels := ft.Levels()
		e.scr.flights = make([]flight, count)
		e.scr.histArena = make([]int, count*(2*levels+1))
		run := make([]uint64, count)
		for j := range run {
			child := 2*v + j%2
			e.scr.flights[j] = flight{
				state: flightUp, node: child, wire: wire(j), lca: v,
				dstLeaf: ft.Processors() + j%ft.Processors(), histOff: j * (2*levels + 1), histLen: 1,
			}
			run[j] = uint64(v)<<32 | uint64(j)
		}
		return e, run
	}
	zero := func(t *testing.T, what string, st *streamState) {
		t.Helper()
		for name, s := range map[string]wireSet{"up": st.sh.upUsed, "down-left": st.sh.downUsed[0], "down-right": st.sh.downUsed[1]} {
			for i, word := range s {
				if word != 0 {
					t.Fatalf("%s: %s guard word %d = %#x after the run, want 0", what, name, i, word)
				}
			}
		}
	}

	constant := core.NewConstant(4, 130) // 130-wire channels: positional everywhere
	doubling := core.NewDoubling(256)    // the root carries both 128-wire children
	for _, tc := range []struct {
		name  string
		ft    *core.FatTree
		count int
		wire  func(j int) int
		up    bool
	}{
		{"up-positional", constant, 200, func(j int) int { return j / 2 }, true},
		{"up-pass-through", doubling, 256, func(j int) int { return j / 2 }, true},
		{"down-positional", constant, 250, func(int) int { return 0 }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e, run := setup(tc.ft, 1, tc.count, tc.wire)
			st := e.stream
			for rep := 0; rep < 3; rep++ {
				for j := range e.scr.flights {
					f := &e.scr.flights[j]
					f.state, f.node, f.wire, f.histLen = flightUp, 2+j%2, tc.wire(j), 1
				}
				st.keys = run
				if tc.up {
					st.fuseUp(0)
				} else {
					st.fuseDown(0)
				}
				won := tc.count - st.sh.drops
				st.sh.drops = 0
				if won <= 64 {
					t.Fatalf("rep %d: %d winners, want more than one guard word's worth", rep, won)
				}
				zero(t, fmt.Sprintf("rep %d", rep), st)
			}
		})
	}

	t.Run("duplicate-in-run", func(t *testing.T) {
		// Two left-child flights on wire 5 pass through to the same parent
		// wire.
		e, run := setup(doubling, 1, 4, func(j int) int { return 5 })
		e.scr.flights[2].node = 2
		defer func() {
			if msg, _ := recover().(string); !strings.Contains(msg, "up-channel wire oversubscribed") {
				t.Fatalf("recovered %q, want an up-channel wire oversubscribed panic", msg)
			}
		}()
		e.stream.keys = run
		e.stream.fuseUp(0)
	})
}

// TestStreamHugeTopology exercises the headline capability at a size no
// per-node engine could materialize cheaply: 2^20 endpoints. The message
// set is small — the point is that engine construction and routing cost are
// functions of the message count, not the processor count.
func TestStreamHugeTopology(t *testing.T) {
	const n = 1 << 20
	ft := core.NewUniversal(n, 1<<14)
	ms := randomMessages(n, 2048, 41, true)
	e := New(ft, concentrator.KindIdeal, 0)
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
		ft := core.NewUniversal(1<<16, 256)
		ms := randomMessages(1<<16, 512, 51, false)
		e := New(ft, concentrator.KindIdeal, 0)
		if observed {
			e.SetObserver(obsv.New(ft))
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
