package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fattree"
)

// tenantServer builds a server with tenants alpha, beta and gamma and runs
// its tenant loops until the test ends; the returned server is ready for
// handler calls.
func tenantServer(t testing.TB, extra ...string) *server {
	t.Helper()
	args := append([]string{"-n", "16", "-workloads", "perm,random,bitrev", "-tenants", "alpha,beta,gamma"}, extra...)
	cfg, err := parseConfig(args)
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(cfg)
	srv.ready.Store(true)
	srv.startLoops()
	t.Cleanup(srv.stop)
	return srv
}

// post performs one /v1/route request against the server's mux.
func post(t testing.TB, srv *server, body, contentType string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest("POST", "/v1/route", strings.NewReader(body))
	req.Header.Set("Content-Type", contentType)
	srv.mux().ServeHTTP(rec, req)
	return rec
}

func TestRouteSingleRequest(t *testing.T) {
	srv := tenantServer(t)
	rec := post(t, srv, `{"tenant":"alpha","workload":"perm","seed":7}`, "application/json")
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	var resp routeResp
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Tenant != "alpha" || resp.Messages == 0 || resp.Delivered != resp.Messages {
		t.Fatalf("unexpected response: %+v", resp)
	}
	if resp.TraceID == 0 || resp.Cycles < 1 {
		t.Fatalf("missing trace/cycles: %+v", resp)
	}
	if want := fmt.Sprintf(`"trace_id":"%016x"`, uint64(resp.TraceID)); !strings.Contains(rec.Body.String(), want) {
		t.Fatalf("response %q lacks %s", rec.Body.String(), want)
	}

	// Explicit message list on another tenant.
	rec = post(t, srv, `{"tenant":"beta","messages":[{"src":0,"dst":5},{"src":3,"dst":9}]}`, "application/json")
	if rec.Code != 200 {
		t.Fatalf("explicit messages: status %d: %s", rec.Code, rec.Body.String())
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	if resp.Messages != 2 || resp.Delivered != 2 {
		t.Fatalf("explicit messages response: %+v", resp)
	}
}

func TestRouteClientErrors(t *testing.T) {
	srv := tenantServer(t)
	for _, tc := range []struct {
		name, body string
		status     int
	}{
		{"bad json", `{`, 400},
		{"unknown tenant", `{"tenant":"nope","workload":"perm"}`, 404},
		{"unknown workload", `{"tenant":"alpha","workload":"zeta"}`, 400},
		{"workload and messages", `{"tenant":"alpha","workload":"perm","messages":[{"src":0,"dst":1}]}`, 400},
		{"neither", `{"tenant":"alpha"}`, 400},
		{"negative k", `{"tenant":"alpha","workload":"random","k":-1}`, 400},
		{"out of range dst", `{"tenant":"alpha","messages":[{"src":0,"dst":99}]}`, 400},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := post(t, srv, tc.body, "application/json")
			if rec.Code != tc.status {
				t.Fatalf("status %d, want %d: %s", rec.Code, tc.status, rec.Body.String())
			}
			var resp routeResp
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatal(err)
			}
			if resp.Error == "" {
				t.Fatal("error response without error field")
			}
		})
	}

	rec := httptest.NewRecorder()
	srv.mux().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/route", nil))
	if rec.Code != 405 {
		t.Fatalf("GET /v1/route: status %d, want 405", rec.Code)
	}
}

func TestRouteBatchNDJSON(t *testing.T) {
	srv := tenantServer(t)
	batch := `{"tenant":"alpha","workload":"perm","seed":1}
{"tenant":"beta","workload":"bitrev"}

{"tenant":"nope","workload":"perm"}
{"tenant":"gamma","messages":[{"src":1,"dst":2}]}`
	rec := post(t, srv, batch, "application/x-ndjson")
	if rec.Code != 200 {
		t.Fatalf("batch status %d", rec.Code)
	}
	var resps []routeResp
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		var r routeResp
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("bad batch line %q: %v", sc.Text(), err)
		}
		resps = append(resps, r)
	}
	if len(resps) != 4 {
		t.Fatalf("batch returned %d lines, want 4 (blank line skipped)", len(resps))
	}
	for i, want := range []struct {
		tenant string
		errSub string
	}{
		{"alpha", ""}, {"beta", ""}, {"", "unknown tenant"}, {"gamma", ""},
	} {
		if want.errSub == "" && (resps[i].Tenant != want.tenant || resps[i].Error != "") {
			t.Fatalf("line %d: %+v", i, resps[i])
		}
		if want.errSub != "" && !strings.Contains(resps[i].Error, want.errSub) {
			t.Fatalf("line %d error %q, want %q", i, resps[i].Error, want.errSub)
		}
	}
}

// TestRouteBackpressure fills a tenant's queue before its loop starts: the
// overflow request must be rejected with 429 + Retry-After while the queued
// one completes once the loop runs.
func TestRouteBackpressure(t *testing.T) {
	cfg, err := parseConfig([]string{"-n", "16", "-tenants", "alpha", "-queue", "1"})
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(cfg)
	srv.ready.Store(true)

	first := make(chan *httptest.ResponseRecorder, 1)
	go func() { first <- post(t, srv, `{"tenant":"alpha","workload":"perm"}`, "application/json") }()
	// Wait for the first request to occupy the queue slot.
	for len(srv.tenants[0].queue) == 0 {
		runtime.Gosched()
	}

	rec := post(t, srv, `{"tenant":"alpha","workload":"perm"}`, "application/json")
	if rec.Code != 429 {
		t.Fatalf("overflow status %d, want 429: %s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	// The tenant loop completes the queued request.
	srv.startLoops()
	t.Cleanup(srv.stop)
	if rec := <-first; rec.Code != 200 {
		t.Fatalf("queued request: status %d", rec.Code)
	}

	// The rejection is visible in the RED error counters.
	snap := srv.tenants[0].red.Snapshot()
	if snap.Requests != 2 || snap.Errors != 1 {
		t.Fatalf("requests=%d errors=%d, want 2/1", snap.Requests, snap.Errors)
	}
}

// TestRouteDrainRefusal checks graceful drain: beginDrain flips /readyz to
// 503 and new route requests are refused while queued work still completes.
func TestRouteDrainRefusal(t *testing.T) {
	cfg, err := parseConfig([]string{"-n", "16", "-tenants", "alpha"})
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(cfg)
	srv.ready.Store(true)

	queued := make(chan *httptest.ResponseRecorder, 1)
	go func() { queued <- post(t, srv, `{"tenant":"alpha","workload":"perm"}`, "application/json") }()
	for len(srv.tenants[0].queue) == 0 {
		runtime.Gosched()
	}

	srv.beginDrain()
	if rec := get(t, srv, "/readyz"); rec.Code != 503 {
		t.Fatalf("/readyz while draining: status %d, want 503", rec.Code)
	}
	rec := post(t, srv, `{"tenant":"alpha","workload":"perm"}`, "application/json")
	if rec.Code != 503 || !strings.Contains(rec.Body.String(), "draining") {
		t.Fatalf("route while draining: status %d body %s", rec.Code, rec.Body.String())
	}

	// Already-admitted work still completes: stop serves the queue to
	// empty before it joins the loop.
	srv.startLoops()
	srv.stop()
	if rec := <-queued; rec.Code != 200 {
		t.Fatalf("queued request during drain: status %d", rec.Code)
	}
}

// TestTenantWorkerEquivalence posts the same per-tenant request mix twice:
// from three concurrent clients, one per tenant, and then one tenant at a
// time. Each tenant's loop serves its own queue in arrival order, so every
// tenant's engine counters and RED block must be bit-identical between the
// two runs, however the loops interleave.
func TestTenantWorkerEquivalence(t *testing.T) {
	tenants := []string{"alpha", "beta", "gamma"}
	requests := func(tenant string) []string {
		var reqs []string
		for i := 0; i < 6; i++ {
			reqs = append(reqs, fmt.Sprintf(`{"tenant":%q,"workload":"perm","seed":%d}`, tenant, i))
			reqs = append(reqs, fmt.Sprintf(`{"tenant":%q,"workload":"random","k":32,"seed":%d}`, tenant, 100+i))
		}
		return reqs
	}
	send := func(srv *server, tn string) {
		for _, body := range requests(tn) {
			if rec := post(t, srv, body, "application/json"); rec.Code != 200 {
				t.Errorf("tenant %s: status %d: %s", tn, rec.Code, rec.Body.String())
				return
			}
		}
	}

	concurrent := tenantServer(t)
	var wg sync.WaitGroup
	for _, tn := range tenants {
		wg.Add(1)
		go func(tn string) {
			defer wg.Done()
			send(concurrent, tn)
		}(tn)
	}
	wg.Wait()

	serial := tenantServer(t)
	for _, tn := range tenants {
		send(serial, tn)
	}

	for i, tn := range serial.tenants {
		if !fattree.ObserversEqual(tn.obs, concurrent.tenants[i].obs) {
			t.Errorf("tenant %s: engine counters differ between concurrent and serial clients", tn.name)
		}
		if !fattree.REDEqual(tn.red, concurrent.tenants[i].red) {
			t.Errorf("tenant %s: RED counters differ between concurrent and serial clients", tn.name)
		}
	}
}

// TestTenantIsolation queues requests on alpha that each run until the
// offer budget cuts them off (422, a few hundred ms apiece), then posts one
// small request to beta. Beta's own loop must answer it while at least two
// of alpha's requests are still queued or running, and (outside -race, whose
// timings are not the daemon's) within 50 ms.
func TestTenantIsolation(t *testing.T) {
	srv := tenantServer(t, "-tenants", "alpha,beta")
	const slow = 4
	var alphaDone atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < slow; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if rec := post(t, srv, `{"tenant":"alpha","workload":"random","k":100000}`, "application/json"); rec.Code != 422 {
				t.Errorf("alpha: status %d, want 422 (offer budget): %s", rec.Code, rec.Body.String())
			}
			alphaDone.Add(1)
		}()
	}
	// Every admitted request has entered alpha's queue: it is either still
	// there or has left it, which records one queue wait.
	alpha := srv.tenantIdx["alpha"]
	for {
		snap := alpha.red.Snapshot()
		if snap.QueueDepth+snap.QueueWaitMicros.Count >= slow {
			break
		}
		time.Sleep(time.Millisecond)
	}

	start := time.Now()
	rec := post(t, srv, `{"tenant":"beta","workload":"perm","seed":1}`, "application/json")
	latency := time.Since(start)
	done := alphaDone.Load()
	if rec.Code != 200 {
		t.Fatalf("beta: status %d: %s", rec.Code, rec.Body.String())
	}
	t.Logf("beta answered in %v with %d of alpha's %d requests done", latency, done, slow)
	if done > slow-2 {
		t.Errorf("beta was answered after %d of alpha's %d requests completed; want at least 2 still queued or running", done, slow)
	}
	if !raceEnabled && latency > 50*time.Millisecond {
		t.Errorf("beta took %v behind alpha's queue, want < 50ms", latency)
	}
	wg.Wait()
}

// TestTenantMetricsExposition checks the tenant-mode scrape: RED families and
// engine counters labeled per tenant, accepted by the repo's own validator.
func TestTenantMetricsExposition(t *testing.T) {
	srv := tenantServer(t)
	for _, body := range []string{
		`{"tenant":"alpha","workload":"perm","seed":3}`,
		`{"tenant":"beta","workload":"bitrev"}`,
	} {
		if rec := post(t, srv, body, "application/json"); rec.Code != 200 {
			t.Fatalf("setup request failed: %d", rec.Code)
		}
	}
	rec := get(t, srv, "/metrics")
	if rec.Code != 200 {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	if err := fattree.ValidatePromExposition(rec.Body.Bytes()); err != nil {
		t.Fatalf("tenant-mode /metrics is not valid exposition: %v", err)
	}
	body := rec.Body.String()
	for _, want := range []string{
		`fattree_requests_total{tenant="alpha"} 1`,
		`fattree_requests_total{tenant="beta"} 1`,
		`fattree_requests_total{tenant="gamma"} 0`,
		`fattree_request_duration_cycles_bucket{tenant="alpha",le="+Inf"}`,
		`fattree_cycles_total{tenant="alpha"}`,
		`fattree_messages_offered_total{tenant="beta"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestTenantSpanEndpoints checks the flight-recorder exports: JSONL spans
// covering the whole request path and a loadable Chrome trace.
func TestTenantSpanEndpoints(t *testing.T) {
	srv := tenantServer(t)
	if rec := post(t, srv, `{"tenant":"alpha","workload":"perm"}`, "application/json"); rec.Code != 200 {
		t.Fatalf("setup request failed: %d", rec.Code)
	}
	rec := get(t, srv, "/debug/spans.jsonl")
	if rec.Code != 200 {
		t.Fatalf("/debug/spans.jsonl status %d", rec.Code)
	}
	kinds := map[string]int{}
	sc := bufio.NewScanner(rec.Body)
	for sc.Scan() {
		var span struct {
			Trace string `json:"trace_id"`
			Kind  string `json:"kind"`
		}
		if err := json.Unmarshal(sc.Bytes(), &span); err != nil {
			t.Fatalf("bad span line %q: %v", sc.Text(), err)
		}
		kinds[span.Kind]++
	}
	for _, kind := range []string{"handler", "queue", "engine", "respond"} {
		if kinds[kind] == 0 {
			t.Errorf("span export missing %q stage (got %v)", kind, kinds)
		}
	}

	rec = get(t, srv, "/debug/spans.json")
	if rec.Code != 200 {
		t.Fatalf("/debug/spans.json status %d", rec.Code)
	}
	var trace struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &trace); err != nil {
		t.Fatalf("chrome trace invalid: %v", err)
	}
	if len(trace.TraceEvents) == 0 {
		t.Fatal("chrome trace empty")
	}
}

// TestRespondSpansCarryRequest checks that every respond span carries its
// own request's trace ID and tenant index, for a single request and for each
// line of an NDJSON batch, and that a request refused before it got a trace
// records none.
func TestRespondSpansCarryRequest(t *testing.T) {
	srv := tenantServer(t)
	var resps []routeResp
	decode := func(line []byte) {
		var resp routeResp
		if err := json.Unmarshal(line, &resp); err != nil {
			t.Fatalf("bad response %q: %v", line, err)
		}
		resps = append(resps, resp)
	}
	decode(post(t, srv, `{"tenant":"beta","workload":"perm","seed":2}`, "application/json").Body.Bytes())
	batch := `{"tenant":"gamma","workload":"bitrev"}
{"tenant":"nope","workload":"perm"}
{"tenant":"alpha","workload":"random","k":8,"seed":4}
{"tenant":"beta","messages":[{"src":1,"dst":2}]}`
	sc := bufio.NewScanner(post(t, srv, batch, "application/x-ndjson").Body)
	for sc.Scan() {
		decode(sc.Bytes())
	}
	if len(resps) != 5 {
		t.Fatalf("%d responses, want 5", len(resps))
	}

	respond := map[uint64]fattree.Span{}
	engine := map[uint64]int32{}
	for _, span := range srv.spans.Spans() {
		switch span.Kind {
		case fattree.SpanRespond:
			if _, dup := respond[span.Trace]; dup {
				t.Fatalf("two respond spans for trace %x", span.Trace)
			}
			respond[span.Trace] = span
		case fattree.SpanEngine:
			engine[span.Trace] = span.Tenant
		}
	}
	traced := 0
	for _, resp := range resps {
		if resp.TraceID == 0 {
			if resp.Error == "" {
				t.Fatalf("untraced response without an error: %+v", resp)
			}
			continue
		}
		traced++
		span, ok := respond[uint64(resp.TraceID)]
		if !ok {
			t.Fatalf("no respond span for trace %x", uint64(resp.TraceID))
		}
		want := srv.tenantIdx[resp.Tenant].idx
		if span.Tenant != want || engine[uint64(resp.TraceID)] != want || span.Err != (resp.Error != "") {
			t.Fatalf("trace %x (tenant %s = %d): respond span %+v, engine span tenant %d",
				uint64(resp.TraceID), resp.Tenant, want, span, engine[uint64(resp.TraceID)])
		}
	}
	if traced != 4 || len(respond) != traced {
		t.Fatalf("%d traced responses and %d respond spans, want 4 of each", traced, len(respond))
	}
}

// TestTenantRunsEndpoint checks /runs tenant-mode semantics: total counts
// served requests. A request is counted before its client is answered, so
// one read right after the last response sees every request.
func TestTenantRunsEndpoint(t *testing.T) {
	srv := tenantServer(t)
	for i := 0; i < 3; i++ {
		if rec := post(t, srv, `{"tenant":"alpha","workload":"perm"}`, "application/json"); rec.Code != 200 {
			t.Fatalf("setup request failed: %d", rec.Code)
		}
	}
	var doc struct {
		Total int `json:"total"`
	}
	if err := json.Unmarshal(get(t, srv, "/runs").Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Total != 3 {
		t.Fatalf("/runs total = %d, want 3 served requests", doc.Total)
	}
}

// TestRouteRejectsOversizedK checks cost admission of named workloads: a
// request whose workload would build more than maxRouteMessages messages —
// an explicit k, or random with k omitted (4n) on a large tree — is refused
// with 413 before any message is built, and the tenant records one rejected
// request and routes nothing.
func TestRouteRejectsOversizedK(t *testing.T) {
	for _, tc := range []struct {
		name  string
		flags []string
		body  string
	}{
		{"explicit-k", nil, `{"tenant":"alpha","workload":"random","k":2000000000}`},
		{"random-4n", []string{"-n", "262144", "-tenants", "alpha"}, `{"tenant":"alpha","workload":"random"}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := tenantServer(t, tc.flags...)
			rec := post(t, srv, tc.body, "application/json")
			if rec.Code != 413 {
				t.Fatalf("status %d, want 413: %s", rec.Code, rec.Body.String())
			}
			var resp routeResp
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(resp.Error, "exceeds") {
				t.Fatalf("error %q does not explain the limit", resp.Error)
			}
			tn := srv.tenantIdx["alpha"]
			snap := tn.red.Snapshot()
			if snap.Requests != 1 || snap.Errors != 1 {
				t.Fatalf("requests=%d errors=%d, want one rejection (1/1)", snap.Requests, snap.Errors)
			}
			if snap.DurationCycles.Count != 0 || snap.QueueWaitMicros.Count != 0 || snap.QueuePeak != 0 {
				t.Fatalf("rejected request reached the queue or the engine: %+v", snap)
			}
			if tn.obs.C.Offered != 0 || srv.servedTotal() != 0 {
				t.Fatalf("engine offered %d messages, served %d requests; want 0/0", tn.obs.C.Offered, srv.servedTotal())
			}
		})
	}
}

// TestTenantEngineWiring pins how newServer wires a tenant's engine — the
// tree, the switch kind, the per-tenant seeds and the loss model — against
// an engine built independently with the seeds newServer documents: every
// response reports that engine's RunServe stats, and the observers hold
// identical counters at the end. Ideal and partial-lossy switches both run.
// Plane parity itself is checked in internal/sim.
func TestTenantEngineWiring(t *testing.T) {
	bodies := []string{
		`{"tenant":"beta","workload":"perm","seed":5}`,
		`{"tenant":"beta","workload":"random","k":32,"seed":9}`,
		`{"tenant":"beta","messages":[{"src":0,"dst":15},{"src":1,"dst":15},{"src":2,"dst":15},{"src":3,"dst":15},{"src":4,"dst":15},{"src":8,"dst":3},{"src":15,"dst":0}]}`,
	}
	for _, tc := range []struct {
		name  string
		flags []string
	}{
		{"ideal", nil},
		{"partial-lossy", []string{"-switches", "partial", "-loss", "0.05"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := tenantServer(t, tc.flags...)
			tn := srv.tenantIdx["beta"]
			n, i := srv.cfg.n, int64(tn.idx)
			ft := fattree.NewUniversal(n, n/4)
			ref := fattree.NewObserver(ft)
			eng := fattree.NewEngineWithOptions(ft, srv.cfg.switches, srv.cfg.seed+i,
				fattree.Options{Observer: ref})
			if srv.cfg.loss > 0 {
				eng.InjectLoss(srv.cfg.loss, srv.cfg.seed+7*i+3)
			}
			for _, body := range bodies {
				rec := post(t, srv, body, "application/json")
				var resp routeResp
				if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
					t.Fatal(err)
				}
				var wire routeWireJSON
				if err := json.Unmarshal([]byte(body), &wire); err != nil {
					t.Fatal(err)
				}
				ms := fattree.MessageSet{}
				if wire.Workload != "" {
					ms = appendWorkload(nil, wire.Workload, n, wire.K, wire.Seed)
				}
				for _, m := range wire.Messages {
					ms = append(ms, fattree.Message{Src: m.Src, Dst: m.Dst})
				}
				st := eng.RunServe(ms)
				want := 200
				if st.Delivered != len(ms) {
					want = 422
				}
				if rec.Code != want {
					t.Fatalf("%s: status %d, want %d: %s", body, rec.Code, want, rec.Body.String())
				}
				if resp.Messages != len(ms) || resp.Cycles != st.Cycles || resp.Delivered != st.Delivered ||
					resp.Drops != st.Drops || resp.Deferrals != st.Deferrals {
					t.Fatalf("%s: response %+v diverges from the reference engine %+v", body, resp, st)
				}
			}
			if !fattree.ObserversEqual(tn.obs, ref) {
				t.Fatal("tenant observer counters diverge from the reference engine")
			}
		})
	}
}

// TestServeRouteAllocs pins the steady-state request path — dequeue, spans,
// RunServe, RED merge, completion — at zero heap allocations per request.
func TestServeRouteAllocs(t *testing.T) {
	cfg, err := parseConfig([]string{"-n", "64", "-tenants", "alpha"})
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(cfg)
	tn := srv.tenants[0]
	ms := fattree.RandomPermutation(64, 42)
	req := &routeReq{ms: ms, trace: 7, done: make(chan struct{}, 1)}
	// Warm the engine scratch and the RED/span structures.
	req.enqueuedNS = srv.spans.Now()
	tn.process(srv, req)
	<-req.done

	allocs := testing.AllocsPerRun(100, func() {
		req.enqueuedNS = srv.spans.Now()
		tn.process(srv, req)
		<-req.done
	})
	if allocs != 0 {
		t.Errorf("request path: %.1f allocs/op, want 0", allocs)
	}
}

func TestTenantConfigErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"bad tenant name", []string{"-tenants", "a b"}},
		{"empty tenant name", []string{"-tenants", "alpha,,beta"}},
		{"duplicate tenant", []string{"-tenants", "alpha,alpha"}},
		{"multiple sizes", []string{"-tenants", "alpha", "-n", "16,32"}},
		{"bad queue", []string{"-tenants", "alpha", "-queue", "0"}},
		{"bad span cap", []string{"-tenants", "alpha", "-span-cap", "0"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := parseConfig(append([]string{"-n", "16"}, tc.args...)); err == nil {
				t.Fatalf("parseConfig(%v) accepted invalid flags", tc.args)
			}
		})
	}
}
