package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"time"

	"fattree"
)

// The sim-implicit workload: one serial engine on a 2^20-endpoint implicit
// universal tree (the streaming data plane), fed sparse random message sets
// through RunOnline. It runs in a child process so that set-up time and
// peak RSS belong to a fresh process doing only this work.
//
// A call's scratch fits the benchmark CPU's 2 MiB L2 cache at simK
// messages. At four times as many (n/256), calls spilled into the cache
// shared with other guests of the host and ran 8-15 ms depending on their
// load: ten runs spread 23-29% between quartiles in p50 and throughput.
// At this size the p50 spread of ten runs fell to 7-10% in calm periods.
const (
	simN        = 1 << 20
	simW        = 1 << 18
	simK        = simN / 1024 // messages per call
	simPool     = 16          // distinct message sets per child, cycled
	simWarmup   = 5           // untimed calls after set-up
	simCounted  = 100         // fixed call count of the traced counter phase
	simReplayIn = 61          // one call in this many is replayed after the window
)

// childReport is what a sim-implicit child prints as its last line.
type childReport struct {
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	Reasons   []string  `json:"reasons"`
	LatMS     []float64 `json:"lat_ms"`
	WindowS   float64   `json:"window_s"`
	StealS    float64   `json:"steal_s"` // steal on the benchmark's CPU over the window
	HWMKB     float64   `json:"hwm_kb"`
	Ledger    ledger    `json:"ledger"`
}

// runSim is one sim-implicit run: child processes, each set up from scratch
// and measured for its session's share of the window (traced runs use a
// single child for the whole window).
func runSim(o options) (ledger, *tally, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, nil, err
	}
	t := &tally{}
	collect := func(rep childReport) {
		t.attempted += rep.Attempted
		t.failed += rep.Failed
		t.reasons = append(t.reasons, rep.Reasons...)
	}
	if o.trace {
		rep, _, err := simChild(self, o, 0, o.seconds)
		if err != nil {
			return nil, nil, err
		}
		collect(rep)
		fmt.Printf("trace: %s\n", tracePath(o))
		return rep.Ledger, t, nil
	}
	set, err := runSessions(func(slice int) (session, error) {
		rep, setup, err := simChild(self, o, slice, o.seconds/sessions)
		if err != nil {
			return session{}, err
		}
		collect(rep)
		return newSession(rep.LatMS, rep.WindowS, rep.StealS, setup, rep.HWMKB/1024), nil
	})
	if err != nil {
		return nil, nil, err
	}
	return set.ledger(), t, nil
}

// simChild starts one child, times it from process start to its "ready"
// line (topology, engine and the first warm-up call), and collects its
// report.
func simChild(self string, o options, slice int, seconds float64) (childReport, float64, error) {
	var rep childReport
	args := []string{"-sim-child", "-workload", o.workload, "-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.FormatFloat(seconds, 'f', -1, 64), "-slice", strconv.Itoa(slice), "-out", o.out}
	if o.trace {
		args = append(args, "-trace", "1")
	}
	begin := time.Now()
	cmd := exec.Command(self, args...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return rep, 0, err
	}
	if err := cmd.Start(); err != nil {
		return rep, 0, err
	}
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 0, 1<<20), 64<<20)
	var setup float64
	var last string
	for sc.Scan() {
		if sc.Text() == "ready" && setup == 0 {
			setup = time.Since(begin).Seconds()
		}
		last = sc.Text()
	}
	if err := cmd.Wait(); err != nil {
		return rep, 0, fmt.Errorf("sim-implicit child %d: %w", slice, err)
	}
	if err := json.Unmarshal([]byte(last), &rep); err != nil {
		return rep, 0, fmt.Errorf("sim-implicit child %d report: %w", slice, err)
	}
	return rep, setup, nil
}

// simCall is one timed RunOnline call of the child.
type simCall struct {
	ms    fattree.MessageSet
	stats fattree.Stats
}

// runSimChild is the child process: build the tree and engine, serve the
// first warm-up call, print "ready", then measure.
func runSimChild(o options, slice int) error {
	var heap0 runtime.MemStats
	if o.trace {
		runtime.GC()
		runtime.ReadMemStats(&heap0)
	}
	rng := rand.New(rand.NewSource(o.seed*31 + int64(slice)))
	gen := func() fattree.MessageSet { return fattree.Random(simN, simK, rng.Int63()) }
	tree := fattree.NewImplicitUniversal(simN, simW)
	eng := fattree.NewEngineWithOptions(tree, fattree.SwitchIdeal, 0, fattree.Options{Workers: 1})
	rep := childReport{Ledger: ledger{}}
	t := &tally{}
	call := func(ms fattree.MessageSet) fattree.Stats {
		st := fattree.RunOnline(eng, ms)
		t.check(st.Delivered == len(ms), "sim-implicit call delivered %d of %d", st.Delivered, len(ms))
		return st
	}
	call(gen())
	fmt.Println("ready")
	if o.trace {
		var heap1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&heap1)
		retained := max(int64(heap1.HeapAlloc)-int64(heap0.HeapAlloc), 0)
		rep.Ledger.set("stream.bytes_per_endpoint", float64(retained)/simN, 1)
	}
	// The inputs are generated up front and cycled, so the timed loop makes
	// no garbage of its own and peak RSS does not depend on the call rate.
	pool := make([]fattree.MessageSet, simPool)
	for i := range pool {
		pool[i] = gen()
	}
	cursor := 0
	next := func() fattree.MessageSet {
		cursor++
		return pool[(cursor-1)%len(pool)]
	}
	for i := 0; i < simWarmup; i++ {
		call(next())
	}
	// Peak RSS is read after a fixed amount of work. The engine's live heap
	// dwarfs the garbage a call leaves, so the heap only reaches its GC goal
	// long after a session ends, and a later reading would grow with however
	// many calls fit in the window: faster code would read as more memory.
	hwm, err := procStatus(os.Getpid(), "VmHWM")
	if err != nil {
		return err
	}
	rep.HWMKB = hwm

	var replays []simCall
	// window runs calls for d, returning per-call latencies (ms) and the wall
	// time, and appending one span per call when spans is non-nil.
	clock := benchClock()
	window := func(d time.Duration, spans *[]chromeEvent) ([]float64, float64) {
		var lat []float64
		begin := time.Now()
		for time.Since(begin) < d {
			ms := next()
			c0 := clock()
			st := call(ms)
			c1 := clock()
			lat = append(lat, float64(c1-c0)/1e6)
			if len(lat)%simReplayIn == 0 {
				replays = append(replays, simCall{ms, st})
			}
			if spans != nil {
				*spans = append(*spans, chromeEvent{Name: "RunOnline", Phase: "X", TS: us(c0), Dur: us(c1 - c0),
					PID: 1, TID: 1, Args: map[string]any{"cycles": st.Cycles, "msgs": len(ms)}})
			}
		}
		return lat, time.Since(begin).Seconds()
	}

	full := seconds(o.seconds)
	if !o.trace {
		steal0 := o.steal()
		rep.LatMS, rep.WindowS = window(full, nil)
		rep.StealS = o.steal() - steal0
	} else {
		if err := simCounterPhase(rep.Ledger, t, eng, next); err != nil {
			return err
		}
		spans := []chromeEvent{processName(1, "perfbench sim-implicit")}
		var plain, traced int
		var plainS, tracedS float64
		end := time.Now().Add(full)
		for b := 0; time.Now().Before(end); b++ {
			if b%2 == 0 {
				lat, secs := window(traceBlock, nil)
				plain, plainS = plain+len(lat), plainS+secs
			} else {
				lat, secs := window(traceBlock, &spans)
				traced, tracedS = traced+len(lat), tracedS+secs
			}
		}
		rep.Ledger.set("trace.overhead_pct", overheadPct(plain, seconds(plainS), traced, seconds(tracedS)), traced)
		var covered float64
		for _, e := range spans[1:] {
			covered += e.Dur
		}
		rep.Ledger.set("trace.residual_pct", (1-covered/(tracedS*1e6))*100, traced)
		if len(spans) > maxExportReqs {
			spans = spans[:maxExportReqs+1]
		}
		if err := writeChrome(tracePath(o), spans); err != nil {
			return err
		}
	}
	// Replays after the window: the same engine must reproduce each sampled
	// call exactly (ideal switches keep no history), and no call may beat
	// the load-factor lower bound ceil(λ(M)) on delivery cycles.
	for i, c := range replays {
		st := fattree.RunOnline(eng, c.ms)
		if st.Cycles != c.stats.Cycles || st.Delivered != c.stats.Delivered ||
			st.Drops != c.stats.Drops || st.Deferrals != c.stats.Deferrals {
			t.fail("sim-implicit replay %d: first %+v, replay %+v", i, c.stats, st)
		}
		if i < 3 {
			lambda := fattree.LoadFactor(tree, c.ms)
			if float64(st.Cycles) < math.Ceil(lambda) {
				t.fail("sim-implicit call used %d cycles, below the load factor %.2f", st.Cycles, lambda)
			}
		}
	}
	rep.Attempted, rep.Failed, rep.Reasons = t.attempted, t.failed, t.reasons
	b, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	fmt.Println(string(b))
	return nil
}

// simCounterPhase runs a fixed number of calls between two MemStats
// readings: cycles and offers per call repeat exactly for a seed, and the
// allocation count is a delta over exactly those RunOnline calls (the
// results are checked only after the second reading).
func simCounterPhase(l ledger, t *tally, eng *fattree.Engine, next func() fattree.MessageSet) error {
	var m0, m1 runtime.MemStats
	var ns int64
	stats := make([]fattree.Stats, simCounted)
	sets := make([]fattree.MessageSet, simCounted)
	for i := range sets {
		sets[i] = next()
	}
	runtime.ReadMemStats(&m0)
	for i, ms := range sets {
		begin := time.Now()
		stats[i] = fattree.RunOnline(eng, ms)
		ns += int64(time.Since(begin))
	}
	runtime.ReadMemStats(&m1)
	var cycles, offers int
	for i, st := range stats {
		t.check(st.Delivered == len(sets[i]), "sim-implicit call delivered %d of %d", st.Delivered, len(sets[i]))
		cycles += st.Cycles
		offers += st.Delivered + st.Drops + st.Deferrals
	}
	if offers == 0 {
		return fmt.Errorf("sim-implicit counter phase offered nothing")
	}
	l.set("stream.cycles_per_call", float64(cycles)/simCounted, simCounted)
	l.set("stream.ns_per_offer", float64(ns)/float64(offers), simCounted)
	l.set("stream.allocs_per_call", float64(m1.Mallocs-m0.Mallocs)/simCounted, simCounted)
	return nil
}
