package main

import (
	"bytes"
	"encoding/json"
	"math"
	"reflect"
	"testing"

	"fattree"
)

func TestPercentileRule(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	cases := []struct {
		n, num, den int
		want        float64
		ok          bool
	}{
		{1000, 99, 100, 990, true}, // exactly ten samples beyond p99
		{999, 99, 100, 990, false}, // nine beyond: not reportable
		{20, 1, 2, 10, true},
		{19, 1, 2, 10, false},
		{0, 1, 2, 0, false},
		{5000, 99, 100, 4950, true},
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.num, c.den)
		if got != c.want || ok != c.ok {
			t.Errorf("percentile(n=%d, %d/%d) = %v, %v; want %v, %v", c.n, c.num, c.den, got, ok, c.want, c.ok)
		}
	}
	l := ledger{}
	if l.setPercentile("p99", seq(999), 99, 100) {
		t.Error("ledger recorded a p99 from 999 samples")
	}
	if !l.setPercentile("p99", seq(1000), 99, 100) || l["p99"].Samples != 1000 {
		t.Errorf("ledger p99 from 1000 samples = %+v", l["p99"])
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Errorf("odd median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("even median = %v", m)
	}
}

// TestQuietSessions checks that each timing is the median of the best
// quarter of the quiet sessions' own figures, that a session too short for
// a p99 ranks last, and that set-up and memory are a median and a mean over
// every session.
func TestQuietSessions(t *testing.T) {
	var s sessionSet
	for i := 0; i < 20; i++ {
		// Session i runs at 100+i requests/s. Its 1000 samples read 20-i ms,
		// except the eleven slowest, which read 40-i ms: p50 20-i, p99 40-i.
		lat := make([]float64, 1000)
		for j := range lat {
			lat[j] = float64(20 - i)
			if j < 11 {
				lat[j] = float64(40 - i)
			}
		}
		s = append(s, session{lat: lat, rps: float64(100 + i), setup: float64(i), hwmMB: float64(2 * i)})
	}
	// A noisy session is never timed, however fast it ran.
	noisy := session{lat: make([]float64, 5000), rps: 1000, steal: 2 * maxSteal, setup: 9.5, hwmMB: 19}
	l := append(s, noisy).ledger()
	// The best five of each: 119..115/s, p50 1..5 ms, p99 21..25 ms.
	want := map[string]float64{"throughput_rps": 117, "latency_p50_ms": 3, "latency_p99_ms": 23, "setup_s": 9.5, "mem_peak_mb": 19}
	for name, v := range want {
		if got := l[name].Value; got != v {
			t.Errorf("%s = %v, want %v", name, got, v)
		}
	}
	if got := l["latency_p99_ms"].Samples; got != 20000 {
		t.Errorf("p99 rests on %d samples, want the 20000 of the quiet sessions", got)
	}

	// A session too short for a p99 ranks last; once the best quarter holds
	// one, p99 is not reported.
	s[19].lat = s[19].lat[:999]
	if got := s.ledger()["latency_p99_ms"].Value; got != 24 {
		t.Errorf("p99 with the best session too short = %v, want 24 (median of 22..26)", got)
	}
	for i := 0; i < 18; i++ {
		s[i].lat = s[i].lat[:999]
	}
	if _, ok := s.ledger()["latency_p99_ms"]; ok {
		t.Error("p99 reported although the best quarter holds sessions of 999 samples")
	}
}

func TestBestQuarter(t *testing.T) {
	xs := []float64{5, 1, 9, 3, 7, 2, 8, 4, 6}
	if got := bestQuarter(xs, true); got != 8 {
		t.Errorf("best quarter, higher better = %v, want 8 (median of 9, 8, 7)", got)
	}
	if got := bestQuarter(xs, false); got != 2 {
		t.Errorf("best quarter, lower better = %v, want 2 (median of 1, 2, 3)", got)
	}
	if got := bestQuarter([]float64{4}, false); got != 4 {
		t.Errorf("best quarter of one = %v", got)
	}
}

func TestUnionAndSelfTime(t *testing.T) {
	cases := []struct {
		ivs  []interval
		want int64
	}{
		{nil, 0},
		{[]interval{{0, 10}, {20, 30}}, 20},             // disjoint
		{[]interval{{0, 10}, {5, 15}}, 15},              // overlapping
		{[]interval{{0, 100}, {10, 20}, {30, 40}}, 100}, // nested
		{[]interval{{20, 30}, {0, 10}, {10, 20}}, 30},   // unsorted, touching
		{[]interval{{5, 5}, {9, 3}}, 0},                 // empty and inverted
	}
	for _, c := range cases {
		if got := unionLen(c.ivs); got != c.want {
			t.Errorf("unionLen(%v) = %d, want %d", c.ivs, got, c.want)
		}
	}
	if got := selfTime(100, 30, 20); got != 50 {
		t.Errorf("selfTime(100, 30, 20) = %d", got)
	}
	if got := selfTime(100, 80, 40); got != 0 {
		t.Errorf("selfTime must clamp at zero, got %d", got)
	}
}

func TestBreakdown(t *testing.T) {
	// Server spans on the server's clock; client stamps on the client's.
	spans := map[string]serverSpan{
		"handler": {Kind: "handler", StartNS: 1010, DurNS: 30},
		"queue":   {Kind: "queue", StartNS: 1040, DurNS: 10},
		"engine":  {Kind: "engine", StartNS: 1050, DurNS: 40},
		"respond": {Kind: "respond", StartNS: 1095, DurNS: 5},
	}
	b := breakdown(clientTrace{st: stamps{sent: 0, read: 1000, done: 1100}}, spans)
	if b.wall != 1100 || b.server != 85 || b.transport != 1015 || b.residual != 915 {
		t.Errorf("breakdown = wall %d server %d transport %d residual %d; want 1100 85 1015 915",
			b.wall, b.server, b.transport, b.residual)
	}
}

func TestSpanLogMergeDeduplicates(t *testing.T) {
	jsonl := []byte(`{"trace_id":"0000000000000001","tenant":0,"kind":"handler","start_ns":1,"dur_ns":2}
{"trace_id":"0000000000000001","tenant":0,"kind":"engine","start_ns":3,"dur_ns":4,"cycles":3,"msgs":64}
{"trace_id":"0000000000000002","tenant":1,"kind":"queue","start_ns":5,"dur_ns":6}
`)
	lg := spanLog{}
	for i := 0; i < 2; i++ { // a second drain returns the same spans again
		if err := lg.merge(jsonl); err != nil {
			t.Fatal(err)
		}
	}
	if len(lg) != 2 || len(lg["0000000000000001"]) != 2 || lg["0000000000000001"]["engine"].Cycles != 3 {
		t.Errorf("merged log = %+v", lg)
	}
	if err := lg.merge([]byte("{not json\n")); err == nil {
		t.Error("malformed span line accepted")
	}
}

func TestParseMemStats(t *testing.T) {
	text := `heap profile: 3: 4096 [10: 8192] @ heap/1048576
1: 4096 [2: 8192] @ 0x4a 0x4b
#	0x4a	main.main+0x1	/src/main.go:3

# runtime.MemStats
# Alloc = 999376
# TotalAlloc = 1999376
# Mallocs = 6909
# Stack = 393216 / 393216
# PauseNs = [0 0 0]
# NumGC = 3
# GCCPUFraction = 0.0125
# DebugGC = false
`
	m := parseMemStats(text)
	want := map[string]float64{"Alloc": 999376, "TotalAlloc": 1999376, "Mallocs": 6909, "NumGC": 3, "GCCPUFraction": 0.0125}
	if len(m) != len(want) {
		t.Errorf("parsed %d fields %v, want %d", len(m), m, len(want))
	}
	for k, v := range want {
		if m[k] != v {
			t.Errorf("%s = %v, want %v", k, m[k], v)
		}
	}
}

func TestParseProcStatCPU(t *testing.T) {
	stat := "4242 (ft serve) S 1 4242 4242 0 -1 4194560 100 0 0 0 150 50 0 0 20 0 9 0 1000 0 0"
	got, err := parseProcStatCPU(stat)
	if err != nil || got != 2.0 {
		t.Errorf("parseProcStatCPU = %v, %v; want 2s", got, err)
	}
	if _, err := parseProcStatCPU("garbage"); err == nil {
		t.Error("malformed stat accepted")
	}
}

// TestScrapeDeltas renders real per-tenant expositions before and after a
// request, parses them with the repository's parser, and checks that the
// counter deltas equal the request's own delivery stats.
func TestScrapeDeltas(t *testing.T) {
	tree := fattree.NewUniversal(16, 4)
	obs := fattree.NewObserver(tree)
	eng := fattree.NewEngineWithOptions(tree, fattree.SwitchIdeal, 0, fattree.Options{Workers: 1, Observer: obs})
	scrape := func() counters {
		var buf bytes.Buffer
		label := []fattree.PromLabel{{Name: "tenant", Value: "a"}}
		if err := fattree.WritePrometheus(&buf, fattree.LabeledSnapshot{Labels: label, Snap: obs.Snapshot()}); err != nil {
			t.Fatal(err)
		}
		samples, err := fattree.ParsePromExposition(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		return sumCounters(samples)
	}
	eng.RunServe(fattree.RandomPermutation(16, 1))
	before := scrape()
	ms := fattree.Random(16, 64, 2)
	st := eng.RunServe(ms)
	d := delta(before, scrape())
	if d["fattree_cycles_total"] != float64(st.Cycles) ||
		d["fattree_messages_delivered_total{tenant=a}"] != float64(len(ms)) ||
		d["fattree_messages_dropped_total"] != float64(st.Drops) ||
		d["fattree_messages_offered_total"] != float64(st.Delivered+st.Drops+st.Deferrals) {
		t.Errorf("deltas %v disagree with stats %+v", d, st)
	}
	if errs := checkConservation(d, []string{"a"}); len(errs) != 0 {
		t.Errorf("conservation on a real scrape: %v", errs)
	}
	d["fattree_messages_offered_total{tenant=a}"]++
	if errs := checkConservation(d, []string{"a"}); len(errs) != 1 {
		t.Errorf("a broken conservation law went unreported")
	}
}

// TestRouteInputs checks that each request body names the tenant, workload
// and seed of the message set the client expects back, and that inputs
// depend only on the seed.
func TestRouteInputs(t *testing.T) {
	w := routeSmall
	w.pool = 3
	a, b := w.inputs(7), w.inputs(7)
	for i := range a {
		if !bytes.Equal(a[i].body, b[i].body) {
			t.Fatal("same seed gave different inputs")
		}
		var wire struct {
			Tenant, Workload string
			Seed             int64
		}
		if err := json.Unmarshal(a[i].body, &wire); err != nil {
			t.Fatal(err)
		}
		if wire.Tenant != tenants[i%2] || wire.Workload != "perm" || wire.Seed != a[i].seed {
			t.Fatalf("request %d body %s", i, a[i].body)
		}
		if want := fattree.RandomPermutation(w.n, wire.Seed); !reflect.DeepEqual(a[i].ms, want) {
			t.Fatalf("request %d: expected set differs from the generator's", i)
		}
	}
	if c := w.inputs(8); bytes.Equal(a[0].body, c[0].body) {
		t.Error("different seeds gave identical inputs")
	}
}

func TestParseSteal(t *testing.T) {
	stat := `cpu  713624 0 60545 1354227 2176 0 11825 4602 0 0
cpu0 126659 0 15996 923742 1043 0 3603 3392 0 0
cpu1 586964 0 44549 430485 1133 0 8222 1209 0 0
intr 31113558 0 0
`
	for label, want := range map[string]float64{"cpu": 46.02, "cpu0": 33.92, "cpu1": 12.09, "cpu2": 0} {
		if got := parseSteal(stat, label); math.Abs(got-want) > 1e-9 {
			t.Errorf("parseSteal(%s) = %v, want %v", label, got, want)
		}
	}
	if n := countCPUs(stat); n != 2 {
		t.Errorf("countCPUs = %d, want 2", n)
	}
}

// TestRunSessions checks that noisy sessions are replaced, that each
// replacement is handed the slice of the session it replaces, that the
// replacements are bounded, and that a run with almost no quiet sessions
// fails.
func TestRunSessions(t *testing.T) {
	var slices []int
	calls := 0
	set, err := runSessions(func(slice int) (session, error) {
		calls++
		slices = append(slices, slice)
		steal := 0.0
		if calls%3 == 0 {
			steal = 2 * maxSteal // every third session is noisy
		}
		return newSession([]float64{1}, 1, steal, 0, 0), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// 16 quiet sessions take 23 calls, 7 of them replaced.
	if len(set) != 23 || calls != 23 {
		t.Errorf("%d sessions in %d calls, want 16 quiet plus 7 replaced", len(set), calls)
	}
	if slices[2] != 2 || slices[3] != 2 || slices[22] != 15 {
		t.Errorf("replacement slices = %v", slices)
	}
	// With every other session noisy, the run stops after maxSessions
	// starts and times the 12 quiet ones.
	calls = 0
	set, err = runSessions(func(int) (session, error) {
		calls++
		return newSession([]float64{1}, 1, float64(calls%2)*0.5, 0, 0), nil
	})
	if err != nil || len(set) != maxSessions {
		t.Errorf("half-noisy run: %d sessions, %v; want %d and no error", len(set), err, maxSessions)
	}
	if _, err := runSessions(func(int) (session, error) {
		return newSession([]float64{1}, 1, 0.5, 0, 0), nil
	}); err == nil {
		t.Error("a run of noisy sessions did not fail")
	}
}
