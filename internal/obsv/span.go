package obsv

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// This file is the request-path half of the tracing layer: where the event
// ring (ring.go) records what happens *inside* a delivery cycle, the span
// ring records what happens *around* it — one span per stage of a served
// request (handler parse, queue wait, engine delivery, response write), all
// stamped with the request's trace ID so a single request can be followed
// handler → queue → engine → response across tenants. Same flight-recorder
// semantics as the event ring: fixed capacity, pushes never allocate, oldest
// spans are overwritten once full. Unlike the event ring the span ring is
// mutex-guarded — handler goroutines of different tenants push concurrently.

// SpanKind enumerates the stages of a served request.
type SpanKind uint8

const (
	// SpanHandler covers request decode, tenant resolution, and workload
	// materialization inside the HTTP handler.
	SpanHandler SpanKind = iota
	// SpanQueue covers the wait in the tenant's bounded queue, from enqueue
	// to the moment a pool worker dequeues the request.
	SpanQueue
	// SpanEngine covers the delivery itself: one RunServe call on the
	// tenant's persistent engine. Cycles and Msgs are meaningful here.
	SpanEngine
	// SpanRespond covers response encoding and the write back to the client.
	SpanRespond
)

// String returns the kind's lowercase name.
func (k SpanKind) String() string {
	switch k {
	case SpanHandler:
		return "handler"
	case SpanQueue:
		return "queue"
	case SpanEngine:
		return "engine"
	case SpanRespond:
		return "respond"
	}
	return fmt.Sprintf("span(%d)", uint8(k))
}

// Span is one recorded stage of one request. Start is nanoseconds on the
// ring's monotonic clock (see SpanRing.Now), Dur the stage's duration in
// nanoseconds. Cycles and Msgs are zero outside SpanEngine; Err is true when
// the stage ended in a request error (stall, rejection, bad input).
type Span struct {
	Trace  uint64
	Start  int64
	Dur    int64
	Tenant int32
	Cycles int32
	Msgs   int32
	Kind   SpanKind
	Err    bool
}

// SpanRing is a fixed-capacity, concurrency-safe span buffer. Pushes never
// allocate; once full the oldest spans are overwritten. The zero value is
// unusable — construct with NewSpanRing.
type SpanRing struct {
	mu          sync.Mutex
	buf         []Span
	start, size int
	overwritten int64
	epoch       time.Time
}

// NewSpanRing returns a ring holding at most capacity spans. Its monotonic
// clock starts at construction.
func NewSpanRing(capacity int) *SpanRing {
	if capacity < 1 {
		panic(fmt.Sprintf("obsv: span ring capacity %d must be >= 1", capacity))
	}
	return &SpanRing{buf: make([]Span, capacity), epoch: time.Now()}
}

// Now returns the ring's monotonic clock reading in nanoseconds since
// construction — the time base for Span.Start.
//
//ftlint:hotpath
func (r *SpanRing) Now() int64 { return time.Since(r.epoch).Nanoseconds() }

// Push appends s, overwriting the oldest span when full. Safe for concurrent
// use; never allocates.
//
//ftlint:hotpath
func (r *SpanRing) Push(s Span) {
	r.mu.Lock()
	if r.size < len(r.buf) {
		r.buf[(r.start+r.size)%len(r.buf)] = s
		r.size++
	} else {
		r.buf[r.start] = s
		r.start = (r.start + 1) % len(r.buf)
		r.overwritten++
	}
	r.mu.Unlock()
}

// Len returns the number of buffered spans.
func (r *SpanRing) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.size
}

// Cap returns the ring's fixed capacity.
func (r *SpanRing) Cap() int { return len(r.buf) }

// Overwritten returns how many spans were lost to overwriting.
func (r *SpanRing) Overwritten() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.overwritten
}

// Reset discards all spans (capacity and clock are kept).
func (r *SpanRing) Reset() {
	r.mu.Lock()
	r.start, r.size, r.overwritten = 0, 0, 0
	r.mu.Unlock()
}

// Spans returns the buffered spans oldest-first as a fresh slice.
func (r *SpanRing) Spans() []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Span, r.size)
	for i := 0; i < r.size; i++ {
		out[i] = r.buf[(r.start+i)%len(r.buf)]
	}
	return out
}

// TraceID formats a trace ID the way it appears in responses, exemplars, and
// span exports: 16 lowercase hex digits.
func TraceID(trace uint64) string {
	var buf [16]byte
	return string(AppendTraceID(buf[:0], trace))
}

// AppendTraceID appends trace as TraceID formats it, without allocating
// once dst has room.
func AppendTraceID(dst []byte, trace uint64) []byte {
	const hex = "0123456789abcdef"
	for shift := 60; shift >= 0; shift -= 4 {
		dst = append(dst, hex[trace>>shift&0xf])
	}
	return dst
}

// WriteChromeTrace exports the buffered spans as Chrome trace_event JSON
// (chrome://tracing, ui.perfetto.dev): one track per tenant, one complete
// ("X") slice per span, named by stage and carrying the trace ID, cycle
// count, and error flag as args. tenants maps tenant index → display name;
// indexes outside it render as "tenant <i>".
func (r *SpanRing) WriteChromeTrace(w io.Writer, tenants []string) error {
	spans := r.Spans()
	events := []chromeEvent{
		{Name: "process_name", Phase: "M", PID: 1,
			Args: map[string]any{"name": "fat-tree request path"}},
	}
	named := map[int32]bool{}
	for _, s := range spans {
		if !named[s.Tenant] {
			named[s.Tenant] = true
			name := fmt.Sprintf("tenant %d", s.Tenant)
			if int(s.Tenant) < len(tenants) {
				name = tenants[s.Tenant]
			}
			events = append(events, chromeEvent{
				Name: "thread_name", Phase: "M", PID: 1, TID: int(s.Tenant) + 1,
				Args: map[string]any{"name": name},
			})
		}
		dur := s.Dur / 1000
		if dur < 1 {
			dur = 1 // sub-microsecond stages still render as slices
		}
		events = append(events, chromeEvent{
			Name: s.Kind.String(), Phase: "X",
			TS: s.Start / 1000, Dur: dur, PID: 1, TID: int(s.Tenant) + 1,
			Args: map[string]any{
				"trace_id": TraceID(s.Trace), "cycles": s.Cycles,
				"msgs": s.Msgs, "err": s.Err,
			},
		})
	}
	return json.NewEncoder(w).Encode(chromeTrace{TraceEvents: events, DisplayTimeUnit: "ms"})
}

// jsonlSpan is the JSONL wire form of one span.
type jsonlSpan struct {
	Trace   string `json:"trace_id"`
	Tenant  int32  `json:"tenant"`
	Kind    string `json:"kind"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
	Cycles  int32  `json:"cycles,omitempty"`
	Msgs    int32  `json:"msgs,omitempty"`
	Err     bool   `json:"err,omitempty"`
}

// WriteJSONL exports the buffered spans as one JSON object per line,
// oldest-first.
func (r *SpanRing) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, s := range r.Spans() {
		if err := enc.Encode(jsonlSpan{
			Trace: TraceID(s.Trace), Tenant: s.Tenant, Kind: s.Kind.String(),
			StartNS: s.Start, DurNS: s.Dur, Cycles: s.Cycles, Msgs: s.Msgs, Err: s.Err,
		}); err != nil {
			return err
		}
	}
	return bw.Flush()
}
