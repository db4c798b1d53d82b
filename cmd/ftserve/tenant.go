package main

// This file is the tenant-serving mode of ftserve (-tenants): the
// /v1/route request API, the per-tenant bounded queues with explicit
// backpressure, the dispatcher that schedules tenants on the shared
// internal/par pool, and the span instrumentation around the whole request
// path. Requests of one tenant are processed serially in arrival order by
// whichever pool worker drains that tenant's queue — the serial merge point
// that keeps the tenant's engine counters and RED block bit-identical across
// worker counts. The steady-state request path (dequeue → span → RunServe →
// RED merge → span → completion signal) is allocation-free. The HTTP rim
// around it (body read, wire decode and encode, workload materialization)
// works in pooled buffers and allocates only in net/http (TestRouteHandlerAllocs);
// it stays outside the //ftlint:hotpath boundary.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
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

// routeReq is one request, pooled and reused across requests with its
// decoded wire form and message set. The dispatcher fills
// stats/waitUS/durUS/failed and signals done; the handler owns the request
// before enqueue and after receiving from done.
type routeReq struct {
	wire       routeWire
	ms         fattree.MessageSet
	trace      uint64
	enqueuedNS int64
	stats      fattree.Stats
	waitUS     int64
	durUS      int64
	failed     bool
	done       chan struct{}
}

// routeResp is the /v1/route response body (one line per request in NDJSON
// batch mode), encoded by appendRouteResp. Error responses carry only error
// (and retry_after_s on 429), and trace_id and tenant once a request has a
// trace.
type routeResp struct {
	TraceID     traceID `json:"trace_id,omitempty"`
	Tenant      string  `json:"tenant,omitempty"`
	Messages    int     `json:"messages,omitempty"`
	Delivered   int     `json:"delivered,omitempty"`
	Cycles      int     `json:"cycles,omitempty"`
	Drops       int     `json:"drops,omitempty"`
	Deferrals   int     `json:"deferrals,omitempty"`
	QueueWaitUS int64   `json:"queue_wait_us,omitempty"`
	DurationUS  int64   `json:"duration_us,omitempty"`
	Error       string  `json:"error,omitempty"`
	RetryAfterS int     `json:"retry_after_s,omitempty"`

	tenant int32 // Tenant's index, for the respond span (set with TraceID)
}

// rimBuf is a pooled request body and response buffer.
type rimBuf struct{ body, out []byte }

var rimPool = sync.Pool{New: func() any { return new(rimBuf) }}

// flushSize is how much of an NDJSON batch response is buffered between
// writes.
const flushSize = 4 << 10

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
	buf := rimPool.Get().(*rimBuf)
	defer rimPool.Put(buf)
	if !s.tenantMode() {
		writeRouteResp(w, http.StatusNotFound, &routeResp{Error: "tenant mode disabled (start ftserve with -tenants)"}, buf)
		return
	}
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeRouteResp(w, http.StatusMethodNotAllowed, &routeResp{Error: "POST only"}, buf)
		return
	}
	var err error
	buf.body, err = readBody(buf.body[:0], http.MaxBytesReader(w, r.Body, maxRouteBody))
	if strings.Contains(r.Header.Get("Content-Type"), "ndjson") {
		s.routeBatch(w, buf, err)
		return
	}
	if err != nil {
		writeRouteResp(w, http.StatusBadRequest, &routeResp{Error: "reading body: " + err.Error()}, buf)
		return
	}
	resp, status := s.routeOne(buf.body)
	if status == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	respStart := s.spans.Now()
	writeRouteResp(w, status, &resp, buf)
	s.pushRespondSpan(&resp, respStart)
}

// readBody appends r's contents to dst, as io.ReadAll does into a buffer
// of its own.
func readBody(dst []byte, r io.Reader) ([]byte, error) {
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}

// routeBatch serves an NDJSON batch held in buf.body (readErr is the body
// read's error): one request per line, one response line per request, in
// order. The whole (bounded) body is read before the first response byte:
// the net/http server may make the request body unavailable once the
// response headers flush, so interleaving reads with response writes
// truncates large batches mid-stream. Per-line failures (including
// backpressure rejections) ride in the line objects; the HTTP status is 200
// once the body is read.
func (s *server) routeBatch(w http.ResponseWriter, buf *rimBuf, readErr error) {
	if readErr != nil {
		writeRouteResp(w, http.StatusBadRequest, &routeResp{Error: "reading batch: " + readErr.Error()}, buf)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	out := buf.out[:0]
	defer func() { buf.out = out }()
	for rest := buf.body; len(rest) > 0; {
		line := rest
		if i := bytes.IndexByte(rest, '\n'); i >= 0 {
			line, rest = rest[:i], rest[i+1:]
		} else {
			rest = nil
		}
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		resp, status := s.routeOne(line)
		if status == http.StatusTooManyRequests {
			resp.RetryAfterS = 1
		}
		respStart := s.spans.Now()
		out = appendRouteResp(out, &resp)
		if len(out) >= flushSize {
			if _, err := w.Write(out); err != nil {
				return // client went away
			}
			out = out[:0]
		}
		s.pushRespondSpan(&resp, respStart)
	}
	if len(out) > 0 {
		if _, err := w.Write(out); err != nil {
			return // client went away; nothing to clean up
		}
	}
}

// routeOne admits, schedules, and awaits one request, returning its response
// and HTTP status.
func (s *server) routeOne(body []byte) (routeResp, int) {
	handlerStart := s.spans.Now()
	req := s.getReq()
	wire := &req.wire
	if err := wire.decode(body); err != nil {
		s.reqPool.Put(req)
		return routeResp{Error: "invalid JSON: " + err.Error()}, http.StatusBadRequest
	}
	tn, ok := s.tenantIdx[string(wire.tenant)]
	if !ok {
		s.reqPool.Put(req)
		return routeResp{Error: fmt.Sprintf("unknown tenant %q", wire.tenant)}, http.StatusNotFound
	}
	trace := s.traceSeq.Add(1)
	req.trace = trace
	if errResp, status := s.buildRequest(tn, req); status != 0 {
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
		return routeResp{TraceID: traceID(trace), Tenant: tn.name, tenant: tn.idx,
			Error: "tenant queue full"}, http.StatusTooManyRequests
	}
	select {
	case s.wake <- struct{}{}:
	default:
	}
	<-req.done

	resp := routeResp{
		TraceID: traceID(trace), Tenant: tn.name, tenant: tn.idx,
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

// buildRequest materializes the decoded request's message set into req.ms.
// A nonzero status reports a client error (the response explains it).
func (s *server) buildRequest(tn *tenant, req *routeReq) (routeResp, int) {
	n := s.cfg.sizes[0]
	wire := &req.wire
	switch {
	case len(wire.workload) > 0 && len(wire.messages) > 0:
		return routeResp{Error: "workload and messages are mutually exclusive"}, http.StatusBadRequest
	case len(wire.workload) > 0:
		name, ok := s.menuWorkload(wire.workload)
		if !ok {
			return routeResp{Error: fmt.Sprintf("workload %q not in this server's menu %v", wire.workload, s.cfg.workloads)}, http.StatusBadRequest
		}
		if wire.k < 0 {
			return routeResp{Error: "k must be non-negative"}, http.StatusBadRequest
		}
		if m := workloadMessages(name, n, wire.k); m > maxRouteMessages {
			return routeResp{Error: fmt.Sprintf("workload %s with k = %d builds %d messages, which exceeds the per-request limit of %d",
				name, wire.k, m, maxRouteMessages)}, http.StatusRequestEntityTooLarge
		}
		req.ms = appendWorkload(req.ms, name, n, wire.k, wire.seed)
		return routeResp{}, 0
	case len(wire.messages) > 0:
		for _, m := range wire.messages {
			req.ms = append(req.ms, fattree.Message{Src: m.Src, Dst: m.Dst})
		}
		if err := req.ms.Validate(tn.eng.Tree()); err != nil {
			return routeResp{Error: "invalid messages: " + err.Error()}, http.StatusBadRequest
		}
		return routeResp{}, 0
	}
	return routeResp{Error: "need workload or messages"}, http.StatusBadRequest
}

// menuWorkload returns the menu's name for a requested workload.
func (s *server) menuWorkload(name []byte) (string, bool) {
	for _, w := range s.cfg.workloads {
		if string(name) == w {
			return w, true
		}
	}
	return "", false
}

// pushRespondSpan records the response stage of a request that got a trace
// (completed or refused by a full queue): from just before the response
// encode to the push itself.
func (s *server) pushRespondSpan(resp *routeResp, start int64) {
	if resp.TraceID == 0 {
		return
	}
	s.spans.Push(fattree.Span{
		Trace: uint64(resp.TraceID), Tenant: resp.tenant, Kind: fattree.SpanRespond,
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
	for {
		processed := s.drainRound()
		if s.cfg.runs > 0 && s.served.Load() >= int64(s.cfg.runs) {
			s.beginDrain()
			for s.drainRound() > 0 {
			}
			return
		}
		if processed == 0 {
			select {
			case <-ctx.Done():
				s.beginDrain()
				for s.drainRound() > 0 {
				}
				return
			case <-s.wake:
			}
		}
	}
}

// drainRound runs one pool round over all tenants and returns the number of
// requests processed. Only the dispatcher calls it.
func (s *server) drainRound() int {
	s.pool.ForEach(len(s.tenants), s.drainTenant)
	processed := 0
	for i, c := range s.drainCounts {
		processed += c
		s.drainCounts[i] = 0
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

// writeRouteResp writes one JSON response with the given status, encoded in
// buf.out.
func writeRouteResp(w http.ResponseWriter, status int, resp *routeResp, buf *rimBuf) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	buf.out = appendRouteResp(buf.out[:0], resp)
	if _, err := w.Write(buf.out); err != nil {
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
