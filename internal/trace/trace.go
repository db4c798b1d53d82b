// Package trace models multi-phase parallel applications as sequences of
// message sets — the "many different parallel algorithms" a universal
// supercomputer must execute efficiently (Section VII). Each trace is a list
// of communication phases (possibly repeated); running a trace on a fat-tree
// schedules every phase off-line and totals delivery cycles and bit-serial
// ticks. The standard traces cover the paper's motivating spectrum: planar
// finite-element relaxation (local), FFT butterflies (global, hierarchical),
// multigrid V-cycles (local at every scale), and tree reductions/broadcasts.
package trace

import (
	"fmt"

	"fattree/internal/core"
	"fattree/internal/sched"
	"fattree/internal/sim"
	"fattree/internal/workload"
)

// Phase is one communication phase: a message set delivered Repeat times.
type Phase struct {
	Name     string
	Messages core.MessageSet
	Repeat   int
}

// Trace is a named sequence of phases over a fixed processor count.
type Trace struct {
	Name   string
	Procs  int
	Phases []Phase
}

// Messages returns the total message count, counting repeats.
func (tr *Trace) Messages() int {
	total := 0
	for _, p := range tr.Phases {
		total += p.Repeat * len(p.Messages)
	}
	return total
}

// Validate checks all phases against a fat-tree, which must be binary (the
// phases run on the Theorem 1 scheduler). Phase message endpoints
// must name processors the trace itself declares (< tr.Procs), not merely
// processors the tree happens to have: a 64-processor trace placed on a
// 1024-processor tree must still reject a message to processor 1000.
func (tr *Trace) Validate(t *core.FatTree) error {
	if !core.HeapIndexed(t) {
		return fmt.Errorf("trace: %s needs a binary (heap-indexed) fat-tree; got %v", tr.Name, t)
	}
	if t.Processors() < tr.Procs {
		return fmt.Errorf("trace: %s needs %d processors, tree has %d", tr.Name, tr.Procs, t.Processors())
	}
	for _, p := range tr.Phases {
		if p.Repeat < 1 {
			return fmt.Errorf("trace: phase %s has repeat %d", p.Name, p.Repeat)
		}
		if err := p.Messages.Validate(t); err != nil {
			return fmt.Errorf("trace: phase %s: %w", p.Name, err)
		}
		for i, m := range p.Messages {
			if m.Src != core.External && m.Src >= tr.Procs {
				return fmt.Errorf("trace: phase %s: message %d (%v): source outside the trace's %d processors",
					p.Name, i, m, tr.Procs)
			}
			if m.Dst != core.External && m.Dst >= tr.Procs {
				return fmt.Errorf("trace: phase %s: message %d (%v): destination outside the trace's %d processors",
					p.Name, i, m, tr.Procs)
			}
		}
	}
	return nil
}

// PhaseResult is the delivery cost of one phase.
type PhaseResult struct {
	Name   string
	Repeat int
	// Lambda is the phase's load factor on the tree.
	Lambda float64
	// Cycles is delivery cycles per repeat; TotalCycles = Repeat × Cycles.
	Cycles      int
	TotalCycles int
	// Ticks is the bit-serial time per repeat.
	Ticks      int
	TotalTicks int
}

// Result is a full trace run.
type Result struct {
	Trace       string
	PerPhase    []PhaseResult
	TotalCycles int
	TotalTicks  int
}

// Run schedules every phase of tr on t (Theorem 1) and totals the costs.
// payloadBits sets the bit-serial message length.
func Run(t *core.FatTree, tr *Trace, payloadBits int) *Result {
	if err := tr.Validate(t); err != nil {
		panic(err)
	}
	res := &Result{Trace: tr.Name}
	// One arena-backed scheduler serves every phase: each schedule is a loan
	// consumed (ticks counted, lengths recorded) before the next phase
	// overwrites it, so the reuse is safe and the loop stops allocating.
	sc := sched.NewScheduler(t)
	for _, p := range tr.Phases {
		s := sc.OffLine(p.Messages)
		ticks := sim.ScheduleTicks(t, s.Cycles, payloadBits)
		pr := PhaseResult{
			Name:        p.Name,
			Repeat:      p.Repeat,
			Lambda:      s.LoadFactor,
			Cycles:      s.Length(),
			TotalCycles: p.Repeat * s.Length(),
			Ticks:       ticks,
			TotalTicks:  p.Repeat * ticks,
		}
		res.PerPhase = append(res.PerPhase, pr)
		res.TotalCycles += pr.TotalCycles
		res.TotalTicks += pr.TotalTicks
	}
	return res
}

// FFT returns the n-point FFT communication trace: lg n butterfly stages; in
// stage i every processor exchanges with its partner across bit i. Stage
// lg n - 1 crosses the root — the global traffic that distinguishes full
// fat-trees from scaled-down ones.
func FFT(n int) *Trace {
	requirePow2("FFT", n)
	tr := &Trace{Name: "fft", Procs: n}
	for bit := 1; bit < n; bit <<= 1 {
		ms := make(core.MessageSet, 0, n)
		for p := 0; p < n; p++ {
			ms = append(ms, core.Message{Src: p, Dst: p ^ bit})
		}
		tr.Phases = append(tr.Phases, Phase{
			Name:     fmt.Sprintf("stage 2^%d", log2(bit)),
			Messages: ms,
			Repeat:   1,
		})
	}
	return tr
}

// FEMSolve returns an iterative planar finite-element solve on a k×k mesh:
// iters relaxation sweeps (nearest-neighbour exchange) each followed by a
// tree-structured residual reduction to processor 0 and a broadcast back.
func FEMSolve(k, iters int) *Trace {
	n := k * k
	mesh := workload.NewGridMesh(k, k)
	tr := &Trace{Name: "fem-solve", Procs: n}
	tr.Phases = append(tr.Phases,
		Phase{Name: "relaxation exchange", Messages: mesh.ExchangeStep(), Repeat: iters},
	)
	for _, p := range reductionPhases(n) {
		p.Repeat = iters
		tr.Phases = append(tr.Phases, p)
	}
	return tr
}

// reductionPhases returns the lg n rounds of a binary-tree reduction to
// processor 0 followed by the mirror broadcast.
func reductionPhases(n int) []Phase {
	var phases []Phase
	for stride := 1; stride < n; stride <<= 1 {
		var ms core.MessageSet
		for p := stride; p < n; p += 2 * stride {
			ms = append(ms, core.Message{Src: p, Dst: p - stride})
		}
		phases = append(phases, Phase{
			Name:     fmt.Sprintf("reduce stride %d", stride),
			Messages: ms,
			Repeat:   1,
		})
	}
	for stride := largestStride(n); stride >= 1; stride >>= 1 {
		var ms core.MessageSet
		for p := stride; p < n; p += 2 * stride {
			ms = append(ms, core.Message{Src: p - stride, Dst: p})
		}
		phases = append(phases, Phase{
			Name:     fmt.Sprintf("broadcast stride %d", stride),
			Messages: ms,
			Repeat:   1,
		})
	}
	return phases
}

// largestStride returns the largest power of two below n.
func largestStride(n int) int {
	s := 1
	for 2*s < n {
		s <<= 1
	}
	return s
}

// MultiGrid returns one V-cycle on a k×k grid: exchange at the fine level,
// restrict to each coarser level (fine points send to their coarse parent),
// exchange there, and prolong back down. Multigrid traffic is local at every
// scale — the workload where a modest fat-tree shines.
func MultiGrid(k int) *Trace {
	requirePow2("MultiGrid", k)
	n := k * k
	tr := &Trace{Name: "multigrid", Procs: n}
	// Descending half of the V-cycle.
	for level := 0; (k >> uint(level)) >= 2; level++ {
		kk := k >> uint(level)
		tr.Phases = append(tr.Phases, Phase{
			Name:     fmt.Sprintf("smooth %dx%d", kk, kk),
			Messages: coarseExchange(k, level),
			Repeat:   1,
		})
		if (k >> uint(level+1)) >= 2 {
			tr.Phases = append(tr.Phases, Phase{
				Name:     fmt.Sprintf("restrict to %dx%d", kk/2, kk/2),
				Messages: restriction(k, level),
				Repeat:   1,
			})
		}
	}
	// Ascending half: prolongation mirrors restriction.
	for level := levels(k) - 2; level >= 0; level-- {
		kk := k >> uint(level)
		tr.Phases = append(tr.Phases, Phase{
			Name:     fmt.Sprintf("prolong to %dx%d", kk, kk),
			Messages: prolongation(k, level),
			Repeat:   1,
		})
	}
	return tr
}

// levels returns the number of multigrid levels for a k×k grid (down to 2×2).
func levels(k int) int {
	l := 0
	for (k >> uint(l)) >= 2 {
		l++
	}
	return l
}

// gridProc maps coarse-grid coordinates at a level to the row-major fine-grid
// processor hosting that point.
func gridProc(k, level, r, c int) int {
	stride := 1 << uint(level)
	return (r*stride)*k + c*stride
}

// coarseExchange is the 5-point-stencil exchange on the level's subgrid.
func coarseExchange(k, level int) core.MessageSet {
	kk := k >> uint(level)
	var ms core.MessageSet
	for r := 0; r < kk; r++ {
		for c := 0; c < kk; c++ {
			p := gridProc(k, level, r, c)
			if c+1 < kk {
				q := gridProc(k, level, r, c+1)
				ms = append(ms, core.Message{Src: p, Dst: q}, core.Message{Src: q, Dst: p})
			}
			if r+1 < kk {
				q := gridProc(k, level, r+1, c)
				ms = append(ms, core.Message{Src: p, Dst: q}, core.Message{Src: q, Dst: p})
			}
		}
	}
	return ms
}

// restriction sends each non-representative fine point of a 2x2 block to the
// block's coarse representative.
func restriction(k, level int) core.MessageSet {
	kk := k >> uint(level)
	var ms core.MessageSet
	for r := 0; r < kk; r++ {
		for c := 0; c < kk; c++ {
			if r%2 == 0 && c%2 == 0 {
				continue
			}
			src := gridProc(k, level, r, c)
			dst := gridProc(k, level, r-r%2, c-c%2)
			ms = append(ms, core.Message{Src: src, Dst: dst})
		}
	}
	return ms
}

// prolongation mirrors restriction: coarse representatives update their fine
// block.
func prolongation(k, level int) core.MessageSet {
	rest := restriction(k, level)
	ms := make(core.MessageSet, len(rest))
	for i, m := range rest {
		ms[i] = core.Message{Src: m.Dst, Dst: m.Src}
	}
	return ms
}

// SampleSort returns a three-phase sample sort on n processors: a gather of
// p-1 splitter samples to processor 0, a splinter broadcast back, and a
// balanced all-to-all data redistribution (k messages per processor to
// random-but-seeded destinations).
func SampleSort(n, perProc int, seed int64) *Trace {
	requirePow2("SampleSort", n)
	tr := &Trace{Name: "sample-sort", Procs: n}
	var gather core.MessageSet
	for p := 1; p < n; p++ {
		gather = append(gather, core.Message{Src: p, Dst: 0})
	}
	var scatter core.MessageSet
	for p := 1; p < n; p++ {
		scatter = append(scatter, core.Message{Src: 0, Dst: p})
	}
	tr.Phases = append(tr.Phases,
		Phase{Name: "sample gather", Messages: gather, Repeat: 1},
		Phase{Name: "splitter broadcast", Messages: scatter, Repeat: 1},
		Phase{Name: "redistribution", Messages: workload.Random(n, n*perProc, seed), Repeat: 1},
	)
	return tr
}

// requirePow2 panics unless n is a power of two >= 2.
func requirePow2(who string, n int) {
	if n < 2 || n&(n-1) != 0 {
		panic(fmt.Sprintf("trace: %s needs a power-of-two size >= 2, got %d", who, n))
	}
}

// log2 returns lg of a power of two.
func log2(x int) int {
	l := 0
	for x > 1 {
		x >>= 1
		l++
	}
	return l
}
