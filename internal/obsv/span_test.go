package obsv

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
)

func TestSpanRingOverwriteOldest(t *testing.T) {
	r := NewSpanRing(4)
	for i := 1; i <= 6; i++ {
		r.Push(Span{Trace: uint64(i), Kind: SpanEngine})
	}
	if r.Len() != 4 || r.Cap() != 4 {
		t.Fatalf("len=%d cap=%d, want 4/4", r.Len(), r.Cap())
	}
	if r.Overwritten() != 2 {
		t.Fatalf("overwritten=%d, want 2", r.Overwritten())
	}
	spans := r.Spans()
	for i, s := range spans {
		if want := uint64(i + 3); s.Trace != want {
			t.Fatalf("span %d has trace %d, want %d (oldest-first)", i, s.Trace, want)
		}
	}
	r.Reset()
	if r.Len() != 0 || r.Overwritten() != 0 {
		t.Fatalf("reset left len=%d overwritten=%d", r.Len(), r.Overwritten())
	}
}

func TestSpanRingConcurrentPush(t *testing.T) {
	r := NewSpanRing(128)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Push(Span{Trace: uint64(g*1000 + i), Kind: SpanQueue})
			}
		}(g)
	}
	wg.Wait()
	if r.Len() != 128 {
		t.Fatalf("len=%d, want full ring", r.Len())
	}
	if got := r.Overwritten(); got != 8*1000-128 {
		t.Fatalf("overwritten=%d, want %d", got, 8*1000-128)
	}
}

func TestSpanRingPushAllocs(t *testing.T) {
	r := NewSpanRing(64)
	s := Span{Trace: 42, Tenant: 1, Kind: SpanEngine, Dur: 100}
	allocs := testing.AllocsPerRun(100, func() { r.Push(s) })
	if allocs != 0 {
		t.Errorf("Push: %.1f allocs/op, want 0", allocs)
	}
}

func TestSpanExports(t *testing.T) {
	r := NewSpanRing(16)
	now := r.Now()
	r.Push(Span{Trace: 1, Tenant: 0, Kind: SpanHandler, Start: now, Dur: 1500})
	r.Push(Span{Trace: 1, Tenant: 0, Kind: SpanQueue, Start: now + 1500, Dur: 800})
	r.Push(Span{Trace: 1, Tenant: 0, Kind: SpanEngine, Start: now + 2300, Dur: 90000, Cycles: 7, Msgs: 64})
	r.Push(Span{Trace: 2, Tenant: 1, Kind: SpanEngine, Start: now + 100, Dur: 50, Err: true})

	var chrome bytes.Buffer
	if err := r.WriteChromeTrace(&chrome, []string{"alpha", "beta"}); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var trace struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(chrome.Bytes(), &trace); err != nil {
		t.Fatalf("chrome trace is not JSON: %v", err)
	}
	slices, threads := 0, 0
	for _, ev := range trace.TraceEvents {
		switch ev["ph"] {
		case "X":
			slices++
		case "M":
			threads++
		}
	}
	if slices != 4 {
		t.Fatalf("chrome trace has %d slices, want 4", slices)
	}
	if threads != 3 { // process_name + 2 tenant tracks
		t.Fatalf("chrome trace has %d metadata events, want 3", threads)
	}

	var jsonl bytes.Buffer
	if err := r.WriteJSONL(&jsonl); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	sc := bufio.NewScanner(&jsonl)
	lines := 0
	for sc.Scan() {
		lines++
		var s jsonlSpan
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("JSONL line %d invalid: %v", lines, err)
		}
		if len(s.Trace) != 16 {
			t.Fatalf("JSONL line %d trace_id %q is not 16 hex digits", lines, s.Trace)
		}
	}
	if lines != 4 {
		t.Fatalf("JSONL has %d lines, want 4", lines)
	}
}

func TestSpanKindStrings(t *testing.T) {
	for kind, want := range map[SpanKind]string{
		SpanHandler: "handler", SpanQueue: "queue",
		SpanEngine: "engine", SpanRespond: "respond", SpanKind(9): "span(9)",
	} {
		if got := kind.String(); got != want {
			t.Errorf("SpanKind(%d).String() = %q, want %q", kind, got, want)
		}
	}
	if got := TraceID(0x2a); got != "000000000000002a" {
		t.Errorf("TraceID(0x2a) = %q", got)
	}
}

// TestAppendTraceID pins the hand-rolled hex against fmt's %016x, and
// appending into room allocates nothing.
func TestAppendTraceID(t *testing.T) {
	traces := []uint64{0, 1, math.MaxUint64, 0x2a, 1 << 63}
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 1000; i++ {
		traces = append(traces, rng.Uint64())
	}
	buf := []byte("prefix:")
	for _, trace := range traces {
		want := fmt.Sprintf("%016x", trace)
		if got := AppendTraceID(buf, trace); string(got) != "prefix:"+want {
			t.Fatalf("AppendTraceID(%#x) = %q, want prefix:%s", trace, got, want)
		}
		if got := TraceID(trace); got != want {
			t.Fatalf("TraceID(%#x) = %q, want %s", trace, got, want)
		}
	}
	dst := make([]byte, 0, 16)
	if a := testing.AllocsPerRun(100, func() { dst = AppendTraceID(dst[:0], 0xdeadbeef) }); a != 0 {
		t.Errorf("AppendTraceID into room: %.1f allocs, want 0", a)
	}
}

func TestREDObserveAndExposition(t *testing.T) {
	red := NewRED()
	red.QueueEnter()
	red.QueueEnter()
	red.QueueExit(1500)
	red.ObserveRequest(3, 2500, 0xabc, false)
	red.ObserveRequest(12, 90, 0xdef, true)
	red.RejectRequest()

	snap := red.Snapshot()
	if snap.Requests != 3 || snap.Errors != 2 {
		t.Fatalf("requests=%d errors=%d, want 3/2", snap.Requests, snap.Errors)
	}
	if snap.QueueDepth != 1 || snap.QueuePeak != 2 {
		t.Fatalf("depth=%d peak=%d, want 1/2", snap.QueueDepth, snap.QueuePeak)
	}
	if snap.DurationCycles.Count != 2 || snap.DurationCycles.Sum != 15 {
		t.Fatalf("cycles hist count=%d sum=%d", snap.DurationCycles.Count, snap.DurationCycles.Sum)
	}

	var buf bytes.Buffer
	err := WriteREDPrometheus(&buf,
		LabeledRED{Labels: []PromLabel{{"tenant", "alpha"}}, Snap: snap},
		LabeledRED{Labels: []PromLabel{{"tenant", "beta"}}, Snap: NewRED().Snapshot()},
	)
	if err != nil {
		t.Fatalf("WriteREDPrometheus: %v", err)
	}
	text := buf.String()
	samples, err := ParseExposition(buf.Bytes())
	if err != nil {
		t.Fatalf("exposition rejected by own parser: %v\n%s", err, text)
	}
	if !strings.Contains(text, `# {trace_id="0000000000000abc"} 3`) {
		t.Fatalf("missing cycles exemplar:\n%s", text)
	}
	gotExemplars := 0
	for _, s := range samples {
		if s.ExemplarTrace != "" {
			gotExemplars++
			if s.Label("tenant") != "alpha" {
				t.Fatalf("exemplar on unexpected series %s{tenant=%q}", s.Name, s.Label("tenant"))
			}
		}
	}
	if gotExemplars != 4 { // 2 observations × 2 duration histograms
		t.Fatalf("parsed %d exemplar-carrying samples, want 4", gotExemplars)
	}
}

func TestREDEqualAndAllocs(t *testing.T) {
	a, b := NewRED(), NewRED()
	for _, r := range []*RED{a, b} {
		r.ObserveRequest(5, 100, 1, false)
		r.ObserveRequest(9, 999, 2, true)
	}
	if !REDEqual(a, b) {
		t.Fatal("identical sequences not REDEqual")
	}
	b.ObserveRequest(5, 1, 3, false)
	if REDEqual(a, b) {
		t.Fatal("diverged sequences still REDEqual")
	}

	allocs := testing.AllocsPerRun(100, func() {
		a.QueueEnter()
		a.QueueExit(10)
		a.ObserveRequest(4, 250, 7, false)
	})
	if allocs != 0 {
		t.Errorf("RED hot methods: %.1f allocs/op, want 0", allocs)
	}
}

// TestREDEnqueueBeforeExit checks that Enqueue records a request's entry
// before its consumer can record the exit: a consumer that receives at once
// always sees the depth gauge count its request, and a full queue refuses
// without counting.
func TestREDEnqueueBeforeExit(t *testing.T) {
	r := NewRED()
	q := make(chan int, 1)
	low := make(chan int64, 1)
	done := make(chan struct{})
	go func() {
		defer close(done)
		minDepth := int64(1)
		for range q {
			minDepth = min(minDepth, r.Snapshot().QueueDepth)
			r.QueueExit(1)
		}
		low <- minDepth
	}()
	for i := 0; i < 2000; i++ {
		for !Enqueue(r, q, i) {
			runtime.Gosched() // let the consumer drain; a busy spin starves it on one CPU
		}
	}
	close(q)
	<-done
	if d := <-low; d < 1 {
		t.Fatalf("a consumer saw queue depth %d for a request it had received, want >= 1", d)
	}
	r, full := NewRED(), make(chan int, 1)
	if !Enqueue(r, full, 1) || Enqueue(r, full, 2) {
		t.Fatal("Enqueue on a one-slot queue: want the first sent and the second refused")
	}
	if s := r.Snapshot(); s.QueueDepth != 1 || s.QueuePeak != 1 {
		t.Fatalf("depth %d peak %d after one admitted and one refused, want 1/1", s.QueueDepth, s.QueuePeak)
	}
}
