package main

// This file is the tenant-serving mode of ftserve (-tenants): the
// /v1/route request API, the per-tenant bounded queues with explicit
// backpressure, the dispatcher that schedules tenants on the shared
// internal/par pool, and the span instrumentation around the whole request
// path. Requests of one tenant are processed serially in arrival order by
// whichever pool worker drains that tenant's queue — the serial merge point
// that keeps the tenant's engine counters and RED block bit-identical across
// worker counts. The steady-state request path (dequeue → span → RunServe →
// RED merge → span → completion signal) is allocation-free; the HTTP rim
// around it (JSON decode/encode, workload materialization) is not, and is
// deliberately outside the //ftlint:hotpath boundary.

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"fattree"
)

// maxRouteBody bounds a /v1/route body (single or per NDJSON batch).
const maxRouteBody = 8 << 20

// minWireMessage is the length of the shortest valid explicit message with
// its separator: src defaults to 0, and a message may not target its source.
const minWireMessage = len(`{"dst":1},`)

// maxRouteMessages bounds the size of a named workload by the most messages
// an explicit body of maxRouteBody bytes could carry, so a short body cannot
// ask for more work than the longest explicit one. parseConfig refuses a
// menu whose fixed-size workloads exceed it; buildRequest refuses a k (0
// meaning 4n) that does.
const maxRouteMessages = maxRouteBody / minWireMessage

// tenantBatch bounds how many requests one tenant drains per pool round, so
// a hot tenant cannot starve the others between rounds.
const tenantBatch = 64

// tenant is one served tenant: a persistent engine and observer plus the
// RED instrument block and the bounded request queue.
type tenant struct {
	name  string
	idx   int32
	eng   *fattree.Engine
	obs   *fattree.Observer
	red   *fattree.RED
	queue chan *routeReq
}

// routeReq is one admitted request, pooled and reused across requests. The
// dispatcher fills stats/waitUS/durUS/failed and signals done; the handler
// owns the request before enqueue and after receiving from done.
type routeReq struct {
	ms         fattree.MessageSet
	trace      uint64
	enqueuedNS int64
	stats      fattree.Stats
	waitUS     int64
	durUS      int64
	failed     bool
	done       chan struct{}
}

// routeWire is the /v1/route request body: a named workload or an explicit
// message list, never both.
type routeWire struct {
	Tenant   string    `json:"tenant"`
	Workload string    `json:"workload,omitempty"`
	K        int       `json:"k,omitempty"`
	Seed     int64     `json:"seed,omitempty"`
	Messages []wireMsg `json:"messages,omitempty"`
}

// wireMsg is one explicit message of a route request.
type wireMsg struct {
	Src int `json:"src"`
	Dst int `json:"dst"`
}

// routeResp is the /v1/route response body (one line per request in NDJSON
// batch mode). Error responses carry only error (and retry_after_s on 429).
type routeResp struct {
	TraceID     string `json:"trace_id,omitempty"`
	Tenant      string `json:"tenant,omitempty"`
	Messages    int    `json:"messages,omitempty"`
	Delivered   int    `json:"delivered,omitempty"`
	Cycles      int    `json:"cycles,omitempty"`
	Drops       int    `json:"drops,omitempty"`
	Deferrals   int    `json:"deferrals,omitempty"`
	QueueWaitUS int64  `json:"queue_wait_us,omitempty"`
	DurationUS  int64  `json:"duration_us,omitempty"`
	Error       string `json:"error,omitempty"`
	RetryAfterS int    `json:"retry_after_s,omitempty"`
}

// tenantMode reports whether this server was started with -tenants.
func (s *server) tenantMode() bool { return len(s.tenants) > 0 }

// servedTotal returns the number of requests processed by the dispatcher.
func (s *server) servedTotal() int { return int(s.served.Load()) }

// getReq takes a pooled request, ready for reuse.
func (s *server) getReq() *routeReq {
	req := s.reqPool.Get().(*routeReq)
	req.ms = req.ms[:0]
	req.failed = false
	return req
}

// handleRoute serves POST /v1/route: one JSON request, or an NDJSON batch
// when the Content-Type says so.
func (s *server) handleRoute(w http.ResponseWriter, r *http.Request) {
	if !s.tenantMode() {
		writeJSON(w, http.StatusNotFound, routeResp{Error: "tenant mode disabled (start ftserve with -tenants)"})
		return
	}
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, routeResp{Error: "POST only"})
		return
	}
	if strings.Contains(r.Header.Get("Content-Type"), "ndjson") {
		s.handleRouteBatch(w, r)
		return
	}
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRouteBody))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, routeResp{Error: "reading body: " + err.Error()})
		return
	}
	resp, status := s.routeOne(body)
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	respStart := s.spans.Now()
	writeJSON(w, status, resp)
	s.pushRespondSpan(resp, respStart)
}

// handleRouteBatch serves an NDJSON batch: one request per line, one
// response line per request, in order. The whole (bounded) body is read
// before the first response byte: the net/http server may make the request
// body unavailable once the response headers flush, so interleaving reads
// with response writes truncates large batches mid-stream. Per-line failures
// (including backpressure rejections) ride in the line objects; the HTTP
// status is 200 once any line parses.
func (s *server) handleRouteBatch(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRouteBody))
	if err != nil {
		writeJSON(w, http.StatusBadRequest, routeResp{Error: "reading batch: " + err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	sc := bufio.NewScanner(bytes.NewReader(body))
	sc.Buffer(make([]byte, 0, 64<<10), maxRouteBody)
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		resp, status := s.routeOne(line)
		if status == http.StatusTooManyRequests {
			resp.RetryAfterS = 1
		}
		respStart := s.spans.Now()
		if err := enc.Encode(resp); err != nil {
			return // client went away
		}
		s.pushRespondSpan(resp, respStart)
	}
	if err := bw.Flush(); err != nil {
		return // client went away; nothing to clean up
	}
}

// routeOne admits, schedules, and awaits one request, returning its response
// and HTTP status.
func (s *server) routeOne(body []byte) (routeResp, int) {
	handlerStart := s.spans.Now()
	var wire routeWire
	if err := json.Unmarshal(body, &wire); err != nil {
		return routeResp{Error: "invalid JSON: " + err.Error()}, http.StatusBadRequest
	}
	tn, ok := s.tenantIdx[wire.Tenant]
	if !ok {
		return routeResp{Error: fmt.Sprintf("unknown tenant %q", wire.Tenant)}, http.StatusNotFound
	}
	trace := s.traceSeq.Add(1)
	req := s.getReq()
	req.trace = trace
	if errResp, status := s.buildRequest(tn, &wire, req); status != 0 {
		tn.red.RejectRequest()
		s.reqPool.Put(req)
		return errResp, status
	}
	s.spans.Push(fattree.Span{
		Trace: trace, Tenant: tn.idx, Kind: fattree.SpanHandler,
		Start: handlerStart, Dur: s.spans.Now() - handlerStart,
		Msgs: int32(len(req.ms)),
	})

	// Admission: the RLock pairs with beginDrain's Lock so no request can
	// slip into a queue after the dispatcher's final drain round started.
	s.drainMu.RLock()
	if s.draining {
		s.drainMu.RUnlock()
		s.reqPool.Put(req)
		return routeResp{Error: "draining"}, http.StatusServiceUnavailable
	}
	req.enqueuedNS = s.spans.Now()
	select {
	case tn.queue <- req:
		tn.red.QueueEnter()
		s.drainMu.RUnlock()
	default:
		s.drainMu.RUnlock()
		tn.red.RejectRequest()
		s.spans.Push(fattree.Span{
			Trace: trace, Tenant: tn.idx, Kind: fattree.SpanQueue,
			Start: req.enqueuedNS, Err: true,
		})
		s.reqPool.Put(req)
		return routeResp{TraceID: fattree.TraceID(trace), Tenant: tn.name,
			Error: "tenant queue full"}, http.StatusTooManyRequests
	}
	select {
	case s.wake <- struct{}{}:
	default:
	}
	<-req.done

	resp := routeResp{
		TraceID: fattree.TraceID(trace), Tenant: tn.name,
		Messages: len(req.ms), Delivered: req.stats.Delivered,
		Cycles: req.stats.Cycles, Drops: req.stats.Drops,
		Deferrals:   req.stats.Deferrals,
		QueueWaitUS: req.waitUS, DurationUS: req.durUS,
	}
	status := http.StatusOK
	if req.failed {
		resp.Error = "delivery stalled"
		status = http.StatusUnprocessableEntity
	}
	s.reqPool.Put(req)
	return resp, status
}

// buildRequest materializes the request's message set into req.ms. A nonzero
// status reports a client error (the response explains it).
func (s *server) buildRequest(tn *tenant, wire *routeWire, req *routeReq) (routeResp, int) {
	n := s.cfg.sizes[0]
	switch {
	case wire.Workload != "" && len(wire.Messages) > 0:
		return routeResp{Error: "workload and messages are mutually exclusive"}, http.StatusBadRequest
	case wire.Workload != "":
		if !s.workloadMenu[wire.Workload] {
			return routeResp{Error: fmt.Sprintf("workload %q not in this server's menu %v", wire.Workload, s.cfg.workloads)}, http.StatusBadRequest
		}
		if wire.K < 0 {
			return routeResp{Error: "k must be non-negative"}, http.StatusBadRequest
		}
		if m := workloadMessages(wire.Workload, n, wire.K); m > maxRouteMessages {
			return routeResp{Error: fmt.Sprintf("workload %s with k = %d builds %d messages, which exceeds the per-request limit of %d",
				wire.Workload, wire.K, m, maxRouteMessages)}, http.StatusRequestEntityTooLarge
		}
		req.ms = buildWorkload(wire.Workload, n, wire.K, wire.Seed)
		return routeResp{}, 0
	case len(wire.Messages) > 0:
		for _, m := range wire.Messages {
			req.ms = append(req.ms, fattree.Message{Src: m.Src, Dst: m.Dst})
		}
		if err := req.ms.Validate(tn.eng.Tree()); err != nil {
			return routeResp{Error: "invalid messages: " + err.Error()}, http.StatusBadRequest
		}
		return routeResp{}, 0
	}
	return routeResp{Error: "need workload or messages"}, http.StatusBadRequest
}

// pushRespondSpan records the response stage of a completed request: from
// just before the response encode to the push itself.
func (s *server) pushRespondSpan(resp routeResp, start int64) {
	if resp.TraceID == "" {
		return
	}
	tn, ok := s.tenantIdx[resp.Tenant]
	if !ok {
		return
	}
	trace, err := strconv.ParseUint(resp.TraceID, 16, 64)
	if err != nil {
		return
	}
	s.spans.Push(fattree.Span{
		Trace: trace, Tenant: tn.idx, Kind: fattree.SpanRespond,
		Start: start, Dur: s.spans.Now() - start, Err: resp.Error != "",
	})
}

// beginDrain flips the server into draining: /readyz reports 503 and
// /v1/route refuses new work, while already-queued requests complete.
// Idempotent; safe from any goroutine.
func (s *server) beginDrain() {
	s.drainMu.Lock()
	if !s.draining {
		s.draining = true
		s.ready.Store(false)
	}
	s.drainMu.Unlock()
}

// tenantLoop is the dispatcher: it fans the tenants out over the shared
// worker pool, each round draining up to tenantBatch requests per tenant in
// arrival order, and sleeps on the wake channel when every queue is empty.
// On cancellation (or a spent -runs budget) it drains every queue to empty —
// in-flight requests complete — and returns.
func (s *server) tenantLoop(ctx context.Context) {
	counts := make([]int, len(s.tenants))
	for {
		processed := s.drainRound(counts)
		if s.cfg.runs > 0 && s.served.Load() >= int64(s.cfg.runs) {
			s.beginDrain()
			for s.drainRound(counts) > 0 {
			}
			return
		}
		if processed == 0 {
			select {
			case <-ctx.Done():
				s.beginDrain()
				for s.drainRound(counts) > 0 {
				}
				return
			case <-s.wake:
			}
		}
	}
}

// drainRound runs one pool round over all tenants and returns the number of
// requests processed. counts is caller-owned scratch, one slot per tenant.
func (s *server) drainRound(counts []int) int {
	s.pool.ForEach(len(s.tenants), func(i int) {
		counts[i] = s.tenants[i].drainBatch(s)
	})
	processed := 0
	for i, c := range counts {
		processed += c
		counts[i] = 0
	}
	return processed
}

// drainBatch processes up to tenantBatch queued requests of this tenant, in
// arrival order, and returns how many it processed.
func (tn *tenant) drainBatch(s *server) int {
	for n := 0; n < tenantBatch; n++ {
		select {
		case req := <-tn.queue:
			tn.process(s, req)
		default:
			return n
		}
	}
	return tenantBatch
}

// process is the observed steady-state request path: dequeue accounting,
// queue-wait span, one RunServe on the tenant's persistent engine, the RED
// merge, the engine span, and the completion signal. Allocation-free on a
// warmed engine (TestServeRouteAllocs, BenchmarkServeRoute).
//
//ftlint:hotpath
func (tn *tenant) process(s *server, req *routeReq) {
	spans := s.spans
	dequeued := spans.Now()
	wait := dequeued - req.enqueuedNS
	tn.red.QueueExit(wait / 1000)
	spans.Push(fattree.Span{
		Trace: req.trace, Tenant: tn.idx, Kind: fattree.SpanQueue,
		Start: req.enqueuedNS, Dur: wait,
	})
	//ftlint:ignore callgraphhotalloc RunServe's recorded witnesses are its validation error path (which feeds a panic) and the streaming plane's first-touch switch materialization; a warmed request path is allocation-free, pinned by TestServeRouteAllocs and BenchmarkServeRoute.
	st := tn.eng.RunServe(req.ms)
	end := spans.Now()
	req.stats = st
	req.waitUS = wait / 1000
	req.durUS = (end - dequeued) / 1000
	req.failed = st.Delivered != len(req.ms)
	tn.red.ObserveRequest(int64(st.Cycles), req.durUS, req.trace, req.failed)
	spans.Push(fattree.Span{
		Trace: req.trace, Tenant: tn.idx, Kind: fattree.SpanEngine,
		Start: dequeued, Dur: end - dequeued,
		Cycles: int32(st.Cycles), Msgs: int32(len(req.ms)), Err: req.failed,
	})
	s.served.Add(1) // before the client is answered, so /runs never lags it
	req.done <- struct{}{}
}

// writeJSON writes one JSON response with the given status.
func writeJSON(w http.ResponseWriter, status int, resp routeResp) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	if err := json.NewEncoder(w).Encode(resp); err != nil {
		return // client went away; nothing to clean up
	}
}

// handleSpansJSONL serves the span ring as JSONL, oldest-first.
func (s *server) handleSpansJSONL(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/x-ndjson")
	if err := s.spans.WriteJSONL(w); err != nil {
		return // client went away; nothing to clean up
	}
}

// handleSpansChrome serves the span ring as Chrome trace_event JSON.
func (s *server) handleSpansChrome(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	if err := s.spans.WriteChromeTrace(w, s.tenantNames()); err != nil {
		return // client went away; nothing to clean up
	}
}

// tenantNames returns the tenant display names indexed by tenant.idx.
func (s *server) tenantNames() []string {
	names := make([]string, len(s.tenants))
	for i, tn := range s.tenants {
		names[i] = tn.name
	}
	return names
}

// newReqPool builds the routeReq pool shared by all handlers.
func newReqPool() sync.Pool {
	return sync.Pool{New: func() any {
		return &routeReq{done: make(chan struct{}, 1)}
	}}
}
