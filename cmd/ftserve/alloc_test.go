//go:build !race

// The race detector's sync.Pool drops items at random, so pooled
// allocation counts hold only without it.

package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"testing"
)

// stubResponseWriter discards the response body; its header map persists
// across requests, as a kept-alive connection's does not, so the count
// below is the handler's own.
type stubResponseWriter struct {
	header http.Header
	status int
}

func (w *stubResponseWriter) Header() http.Header         { return w.header }
func (w *stubResponseWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *stubResponseWriter) WriteHeader(status int)      { w.status = status }

// TestRouteHandlerAllocs pins the allocations of one warmed named-workload
// /v1/route request through the mux, dispatcher included: the wire decode,
// the generator, the response encode and the body read work in pooled
// buffers, leaving net/http's per-request allocations. One dispatcher
// worker keeps pool rounds on the dispatcher goroutine; with more, each
// round starts goroutines (internal/par), which is not the rim's cost.
func TestRouteHandlerAllocs(t *testing.T) {
	srv := tenantServer(t, "-n", "64", "-workloads", "perm", "-workers", "1")
	mux := srv.mux()
	body := []byte(`{"tenant":"alpha","workload":"perm","seed":7}`)
	rd := bytes.NewReader(body)
	req := httptest.NewRequest("POST", "/v1/route", rd)
	req.Header.Set("Content-Type", "application/json")
	w := &stubResponseWriter{header: http.Header{}}
	serve := func() {
		rd.Reset(body)
		mux.ServeHTTP(w, req)
	}
	for i := 0; i < 10; i++ {
		serve()
	}
	if w.status != 200 {
		t.Fatalf("status %d", w.status)
	}
	allocs := testing.AllocsPerRun(200, serve)
	t.Logf("%.1f allocs per request", allocs)
	if allocs > 8 {
		t.Errorf("warmed /v1/route request: %.1f allocs, want <= 8", allocs)
	}
}
