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

// raceEnabled reports a -race build, whose timings are not the daemon's.
const raceEnabled = false

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

// TestRouteHandlerAllocs pins the allocations of one warmed /v1/route
// request through the mux, tenant loop included, for a named workload and
// for an explicit message list: the wire decode, the generator, the
// response encode and the body read work in pooled buffers, leaving
// net/http's per-request allocations.
func TestRouteHandlerAllocs(t *testing.T) {
	srv := tenantServer(t, "-n", "64", "-workloads", "perm")
	mux := srv.mux()
	for _, tc := range []struct{ name, body string }{
		{"named", `{"tenant":"alpha","workload":"perm","seed":7}`},
		{"explicit", `{"tenant":"beta","messages":[{"src":0,"dst":5},{"src":3,"dst":9},{"src":9,"dst":63},{"dst":1}]}`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			body := []byte(tc.body)
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
		})
	}
}

// BenchmarkRouteHandler measures one /v1/route request through the mux with
// the tenant loops running: the rim, the handoff to the tenant's loop and
// back, and RunServe on a 64-endpoint tree. Requests alternate between two
// tenants, as route-small's do.
func BenchmarkRouteHandler(b *testing.B) {
	for _, tc := range []struct {
		name   string
		bodies [2]string
	}{
		{"named", [2]string{
			`{"tenant":"alpha","workload":"perm","seed":7}`,
			`{"tenant":"beta","workload":"perm","seed":8}`,
		}},
		{"explicit", [2]string{
			`{"tenant":"alpha","messages":[{"src":0,"dst":5},{"src":3,"dst":9},{"src":9,"dst":63},{"dst":1}]}`,
			`{"tenant":"beta","messages":[{"src":5,"dst":0},{"src":9,"dst":3},{"src":63,"dst":9},{"src":1}]}`,
		}},
	} {
		b.Run(tc.name, func(b *testing.B) {
			srv := tenantServer(b, "-n", "64", "-workloads", "perm")
			mux := srv.mux()
			var bodies [2][]byte
			var rds [2]*bytes.Reader
			var reqs [2]*http.Request
			for i, body := range tc.bodies {
				bodies[i] = []byte(body)
				rds[i] = bytes.NewReader(bodies[i])
				reqs[i] = httptest.NewRequest("POST", "/v1/route", rds[i])
				reqs[i].Header.Set("Content-Type", "application/json")
			}
			w := &stubResponseWriter{header: http.Header{}}
			serve := func(i int) {
				rds[i%2].Reset(bodies[i%2])
				mux.ServeHTTP(w, reqs[i%2])
				if w.status != 200 {
					b.Fatalf("status %d", w.status)
				}
			}
			for i := 0; i < 10; i++ {
				serve(i)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				serve(i)
			}
		})
	}
}
