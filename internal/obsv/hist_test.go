package obsv

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"fattree/internal/core"
)

func TestHistBucketBoundaries(t *testing.T) {
	h := NewHist([]int64{1, 2, 4, 8})
	// Bounds are inclusive upper bounds (Prometheus le): a boundary value
	// lands in the bucket it names, the next value up in the bucket above.
	for _, v := range []int64{0, 1, 2, 3, 4, 5, 8, 9, 100} {
		h.Observe(v)
	}
	want := []int64{2, 1, 2, 2, 2} // <=1: {0,1}; <=2: {2}; <=4: {3,4}; <=8: {5,8}; +Inf: {9,100}
	if h.NumBuckets() != len(want) {
		t.Fatalf("NumBuckets = %d, want %d", h.NumBuckets(), len(want))
	}
	for i, w := range want {
		if got := h.BucketCount(i); got != w {
			t.Errorf("bucket %d count = %d, want %d", i, got, w)
		}
	}
	if h.Count() != 9 || h.Sum() != 0+1+2+3+4+5+8+9+100 {
		t.Fatalf("count=%d sum=%d", h.Count(), h.Sum())
	}
}

func TestHistOverflowBucket(t *testing.T) {
	h := NewLog2Hist(3) // bounds 1,2,4,8
	h.Observe(8)        // last finite bucket, inclusive
	h.Observe(9)        // first overflow value
	h.Observe(1 << 40)  // far overflow
	if got := h.BucketCount(h.NumBuckets() - 2); got != 1 {
		t.Errorf("last finite bucket = %d, want 1", got)
	}
	if got := h.BucketCount(h.NumBuckets() - 1); got != 2 {
		t.Errorf("overflow bucket = %d, want 2", got)
	}
	// A quantile that falls in the overflow bucket is unbounded at this
	// resolution and must report !ok.
	if _, ok := h.Quantile(1.0); ok {
		t.Error("Quantile(1.0) in overflow bucket reported ok")
	}
	if v, ok := h.Quantile(0.3); !ok || v != 8 {
		t.Errorf("Quantile(0.3) = %d,%v, want 8,true", v, ok)
	}
}

func TestHistQuantile(t *testing.T) {
	h := NewLog2Hist(4) // 1,2,4,8,16
	if _, ok := h.Quantile(0.5); ok {
		t.Error("empty histogram quantile reported ok")
	}
	for i := 0; i < 10; i++ {
		h.Observe(1)
	}
	h.Observe(16)
	if v, ok := h.Quantile(0.5); !ok || v != 1 {
		t.Errorf("p50 = %d,%v, want 1,true", v, ok)
	}
	if v, ok := h.Quantile(1.0); !ok || v != 16 {
		t.Errorf("p100 = %d,%v, want 16,true", v, ok)
	}
	if v, ok := h.Quantile(0.0); !ok || v != 1 {
		t.Errorf("p0 clamps to rank 1, got %d,%v", v, ok)
	}
}

func TestHistReset(t *testing.T) {
	h := NewLog2Hist(2)
	h.Observe(3)
	h.Observe(100)
	h.Reset()
	if h.Count() != 0 || h.Sum() != 0 {
		t.Fatalf("after reset count=%d sum=%d", h.Count(), h.Sum())
	}
	for i := 0; i < h.NumBuckets(); i++ {
		if h.BucketCount(i) != 0 {
			t.Fatalf("bucket %d nonzero after reset", i)
		}
	}
	if h.NumBuckets() != 4 { // bounds kept: 1,2,4 + overflow
		t.Fatalf("bounds not kept across reset")
	}
}

func TestNewHistValidation(t *testing.T) {
	for _, tc := range []struct {
		name   string
		bounds []int64
	}{
		{"empty", nil},
		{"equal", []int64{1, 1}},
		{"decreasing", []int64{4, 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("NewHist(%v) did not panic", tc.bounds)
				}
			}()
			NewHist(tc.bounds)
		})
	}
}

func TestNewHistCopiesBounds(t *testing.T) {
	bounds := []int64{1, 2, 4}
	h := NewHist(bounds)
	bounds[0] = 99
	if h.Bound(0) != 1 {
		t.Fatal("NewHist aliased the caller's bounds slice")
	}
}

// observeSomething drives a small observed run so snapshot tests have
// non-trivial counters and histograms to look at.
func observedRun(t *testing.T) *Observer {
	t.Helper()
	tree := core.NewUniversal(8, 4)
	o := New(tree)
	o.CycleStart(3)
	o.Inject(0, core.Message{Src: 0, Dst: 5}, tree.Leaf(0), 0)
	o.SwitchDelta(2, 2, 1, 3, 0)
	o.Advance(0, core.Message{Src: 0, Dst: 5}, 2, 1, 0, 0)
	o.CycleEnd(2, 1, 0)
	o.Retries(1)
	o.Latencies([]int64{1, 1})
	o.Queue(4, 7)
	o.Stall(4)
	o.SchedLevel(1, 2, 3)
	return o
}

func TestSnapshotImmutable(t *testing.T) {
	o := observedRun(t)
	s := o.Snapshot()
	if s.Counters.Offered != 3 || s.Counters.Delivered != 2 || s.Counters.Cycles != 1 {
		t.Fatalf("snapshot counters: %+v", s.Counters)
	}
	if s.Latency.Count != 2 {
		t.Fatalf("latency count = %d, want 2", s.Latency.Count)
	}
	// Mutating the observer after the snapshot must not change the snapshot.
	o.CycleStart(5)
	o.CycleEnd(5, 0, 0)
	o.Latencies([]int64{4})
	if s.Counters.Offered != 3 || s.Latency.Count != 2 {
		t.Fatal("snapshot mutated by later recording")
	}
	// Mutating the snapshot's slices must not reach the observer.
	s.Counters.WireUse[0] = 999
	s.Latency.Counts[0] = 999
	s2 := o.Snapshot()
	if s2.Counters.WireUse[0] == 999 || s2.Latency.Counts[0] == 999 {
		t.Fatal("snapshot aliases observer arrays")
	}
}

func TestSnapshotSub(t *testing.T) {
	o := observedRun(t)
	before := o.Snapshot()
	o.CycleStart(4)
	o.CycleEnd(4, 0, 0)
	o.Latencies([]int64{2, 2, 2, 2})
	after := o.Snapshot()
	d := after.Sub(before)
	if d.Counters.Cycles != 1 || d.Counters.Offered != 4 || d.Counters.Delivered != 4 {
		t.Fatalf("diff counters: %+v", d.Counters)
	}
	if d.Latency.Count != 4 || d.Latency.Sum != 8 {
		t.Fatalf("diff latency count=%d sum=%d, want 4, 8", d.Latency.Count, d.Latency.Sum)
	}
	// The pre-existing observations must have cancelled out.
	if d.Counters.Retried != 0 || d.QueueDepth.Count != 0 {
		t.Fatalf("diff leaked earlier observations: %+v", d.Counters)
	}
	// QueuePeak is a running max, not a counter: Sub keeps the later value.
	if d.Counters.QueuePeak[4] != 7 {
		t.Fatalf("diff queue peak = %d, want 7", d.Counters.QueuePeak[4])
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	s := observedRun(t).Snapshot()
	data, err := json.Marshal(s)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters.Offered != s.Counters.Offered || back.Latency.Count != s.Latency.Count {
		t.Fatalf("round trip lost data: %+v", back.Counters)
	}
}

func TestWriteHistSummary(t *testing.T) {
	var sb strings.Builder
	if err := observedRun(t).Snapshot().WriteHistSummary(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"delivery latency", "match rounds", "queue depth",
		"per-level utilization", "count 2", "p50<=1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("summary missing %q:\n%s", want, out)
		}
	}
}

func TestWritePrometheusValid(t *testing.T) {
	o := observedRun(t)
	var buf bytes.Buffer
	err := WritePrometheus(&buf,
		LabeledSnapshot{Labels: []PromLabel{{"tree", "8"}}, Snap: o.Snapshot()},
		LabeledSnapshot{Labels: []PromLabel{{"tree", "16"}}, Snap: o.Snapshot()},
	)
	if err != nil {
		t.Fatal(err)
	}
	text := buf.Bytes()
	if err := ValidateExposition(text); err != nil {
		t.Fatalf("own exposition invalid: %v\n%s", err, text)
	}
	out := string(text)
	for _, want := range []string{
		`fattree_cycles_total{tree="8"} 1`,
		`fattree_messages_offered_total{tree="8"} 3`,
		`fattree_delivery_latency_cycles_bucket{tree="8",le="+Inf"} 2`,
		`fattree_delivery_latency_cycles_count{tree="8"} 2`,
		`fattree_level_utilization_permille_bucket{tree="8",level="0",le="+Inf"}`,
		`fattree_sched_level_cycles_total{tree="8",level="external"}`,
		`fattree_buffered_queue_peak_messages{tree="16"} 7`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// One HELP/TYPE header per family even with two labeled snapshots.
	if n := strings.Count(out, "# TYPE fattree_cycles_total "); n != 1 {
		t.Errorf("fattree_cycles_total TYPE header appears %d times, want 1", n)
	}
}

func TestValidateExpositionRejects(t *testing.T) {
	for _, tc := range []struct {
		name, text string
	}{
		{"no type", "fattree_x_total 1\n"},
		{"bad name", "# TYPE 9bad counter\n"},
		{"bad type", "# TYPE fattree_x_total countr\nfattree_x_total 1\n"},
		{"bad value", "# TYPE fattree_x_total counter\nfattree_x_total abc\n"},
		{"unterminated labels", "# TYPE fattree_x_total counter\nfattree_x_total{a=\"b\" 1\n"},
		{"unquoted label", "# TYPE fattree_x_total counter\nfattree_x_total{a=b} 1\n"},
		{"duplicate type", "# TYPE fattree_x_total counter\n# TYPE fattree_x_total counter\n"},
		{"type after samples", "# TYPE fattree_x_total counter\nfattree_x_total 1\n# TYPE fattree_x_total counter\n"},
		{"histogram missing inf", "# TYPE h histogram\nh_bucket{le=\"1\"} 1\nh_count 1\nh_sum 1\n"},
		{"histogram not cumulative", "# TYPE h histogram\nh_bucket{le=\"1\"} 2\nh_bucket{le=\"2\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_count 2\nh_sum 2\n"},
		{"histogram inf count mismatch", "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_count 3\nh_sum 2\n"},
		{"histogram missing count", "# TYPE h histogram\nh_bucket{le=\"+Inf\"} 2\nh_sum 2\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := ValidateExposition([]byte(tc.text)); err == nil {
				t.Fatalf("accepted invalid exposition:\n%s", tc.text)
			}
		})
	}
	// And the degenerate valid cases.
	for _, tc := range []struct {
		name, text string
	}{
		{"empty", ""},
		{"comment only", "# scraped at dawn\n"},
		{"timestamped", "# TYPE x counter\nx 1 1700000000000\n"},
		{"escaped labels", "# TYPE x counter\nx{a=\"q\\\"uo\\\\te\\n\"} 1\n"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := ValidateExposition([]byte(tc.text)); err != nil {
				t.Fatalf("rejected valid exposition: %v\n%s", err, tc.text)
			}
		})
	}
}

func TestObserverResetClearsHistograms(t *testing.T) {
	o := observedRun(t)
	o.Reset()
	s := o.Snapshot()
	if s.Latency.Count != 0 || s.MatchRounds.Count != 0 || s.QueueDepth.Count != 0 {
		t.Fatalf("histograms survive Reset: %+v", s)
	}
	for _, h := range s.LevelUtil {
		if h.Count != 0 {
			t.Fatal("level-util histogram survives Reset")
		}
	}
}
