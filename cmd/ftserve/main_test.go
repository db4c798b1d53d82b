package main

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"fattree"
)

func TestParseConfigErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"bad size", []string{"-n", "15"}},
		{"size too small", []string{"-n", "2"}},
		{"unknown workload", []string{"-workloads", "nope"}},
		{"transpose odd lg", []string{"-n", "32", "-workloads", "transpose"}},
		{"unknown switches", []string{"-switches", "nope"}},
		{"loss out of range", []string{"-loss", "1.5"}},
		// -policy, -runs and -history are not flags: refused, not ignored.
		{"unknown policy", []string{"-policy", "offline"}},
		{"negative runs", []string{"-runs", "-1"}},
		{"bad history", []string{"-history", "0"}},
		{"unknown flag", []string{"-nope"}},
		{"positional args", []string{"extra"}},
		{"alltoall above the request limit", []string{"-n", "1024", "-workloads", "alltoall", "-tenants", "a"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := parseConfig(tc.args); err == nil {
				t.Fatalf("parseConfig(%v) accepted invalid flags", tc.args)
			}
		})
	}
	// A flag-parse error is named once, then the usage follows.
	_, err := parseConfig([]string{"-n", "16,32"})
	if err == nil || strings.Count(err.Error(), `"16,32"`) != 1 || !strings.Contains(err.Error(), "Usage of ftserve") {
		t.Fatalf("parseConfig(-n 16,32) = %v, want the bad value named once, then the usage", err)
	}
	cfg, err := parseConfig([]string{"-n", "64", "-workloads", "transpose"})
	if err != nil {
		t.Fatalf("valid flags rejected: %v", err)
	}
	if cfg.n != 64 || len(cfg.tenants) != 1 || cfg.tenants[0] != "default" {
		t.Fatalf("parsed config wrong: %+v", cfg)
	}
}

// get performs one request against the server's mux.
func get(t testing.TB, srv *server, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.mux().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec
}

// servedServer returns a tenant server (see tenantServer) that has served
// one perm and one random request on each of alpha and beta. On lossy
// switches a request may stall (422); it still counts as served.
func servedServer(t *testing.T, extra ...string) *server {
	t.Helper()
	srv := tenantServer(t, extra...)
	for _, tn := range []string{"alpha", "beta"} {
		for _, body := range []string{
			`{"tenant":"` + tn + `","workload":"perm","seed":3}`,
			`{"tenant":"` + tn + `","workload":"random","k":48,"seed":5}`,
		} {
			if rec := post(t, srv, body, "application/json"); rec.Code != 200 && rec.Code != 422 {
				t.Fatalf("setup request %s: status %d: %s", body, rec.Code, rec.Body.String())
			}
		}
	}
	return srv
}

func TestEndpoints(t *testing.T) {
	srv := servedServer(t)
	for _, tc := range []struct {
		path   string
		status int
		want   []string
	}{
		{"/healthz", 200, []string{"ok"}},
		{"/readyz", 200, []string{"ready"}},
		{"/metrics", 200, []string{
			"fattree_server_ready 1",
			`fattree_server_info{go_version=`,
			`fattree_requests_total{tenant="alpha"} 2`,
			`fattree_cycles_total{tenant="alpha"}`,
			`fattree_cycles_total{tenant="beta"}`,
			`fattree_delivery_latency_cycles_bucket{tenant="alpha",le="+Inf"}`,
			`fattree_level_utilization_permille_bucket{tenant="beta",level="0",le="+Inf"}`,
		}},
		{"/runs", 200, []string{`"total": 4`, `"ready": true`, `"uptime_seconds"`}},
		{"/debug/pprof/cmdline", 200, nil},
		{"/nosuch", 404, nil},
	} {
		t.Run(tc.path, func(t *testing.T) {
			rec := get(t, srv, tc.path)
			if rec.Code != tc.status {
				t.Fatalf("%s: status %d, want %d", tc.path, rec.Code, tc.status)
			}
			body := rec.Body.String()
			for _, want := range tc.want {
				if !strings.Contains(body, want) {
					t.Errorf("%s missing %q in:\n%.2000s", tc.path, want, body)
				}
			}
		})
	}
}

func TestMetricsExpositionValid(t *testing.T) {
	srv := servedServer(t, "-loss", "0.02", "-switches", "partial")
	rec := get(t, srv, "/metrics")
	if err := fattree.ValidatePromExposition(rec.Body.Bytes()); err != nil {
		t.Fatalf("/metrics is not valid exposition: %v", err)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q", ct)
	}
	if !strings.Contains(rec.Body.String(), `switches="partial"`) {
		t.Fatal("fattree_server_info does not report the partial switches")
	}
}

// TestReadyzBeforeFirstRun checks a server that is not yet accepting
// requests (ftserve marks itself ready once its listener is up): /readyz
// answers 503 while /metrics and /healthz serve.
func TestReadyzBeforeFirstRun(t *testing.T) {
	cfg, err := parseConfig([]string{"-n", "16", "-tenants", "alpha"})
	if err != nil {
		t.Fatal(err)
	}
	srv := newServer(cfg)
	if rec := get(t, srv, "/readyz"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz before the listener is up: status %d, want 503", rec.Code)
	}
	if rec := get(t, srv, "/metrics"); rec.Code != 200 ||
		!strings.Contains(rec.Body.String(), "fattree_server_ready 0") {
		t.Fatalf("/metrics before readiness: %d", rec.Code)
	}
	if rec := get(t, srv, "/healthz"); rec.Code != 200 {
		t.Fatalf("/healthz before readiness: %d", rec.Code)
	}
}

// TestScrapeDuringRun scrapes /metrics and /runs while three clients route
// requests on lossy partial switches: every scrape must be valid exposition
// and internally consistent (the cycle-boundary snapshot contract), and
// nothing may race (run with -race in CI).
func TestScrapeDuringRun(t *testing.T) {
	srv := tenantServer(t, "-loss", "0.03", "-switches", "partial")
	var wg sync.WaitGroup
	for _, tn := range []string{"alpha", "beta", "gamma"} {
		wg.Add(1)
		go func(tn string) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				body := fmt.Sprintf(`{"tenant":%q,"workload":"random","k":64,"seed":%d}`, tn, i)
				if rec := post(t, srv, body, "application/json"); rec.Code != 200 && rec.Code != 422 {
					t.Errorf("tenant %s: status %d: %s", tn, rec.Code, rec.Body.String())
					return
				}
			}
		}(tn)
	}
	for i := 0; i < 50; i++ {
		rec := get(t, srv, "/metrics")
		if rec.Code != 200 {
			t.Fatalf("scrape %d: status %d", i, rec.Code)
		}
		if err := fattree.ValidatePromExposition(rec.Body.Bytes()); err != nil {
			t.Fatalf("scrape %d invalid: %v", i, err)
		}
		if rec := get(t, srv, "/runs"); rec.Code != 200 {
			t.Fatalf("/runs during traffic: status %d", rec.Code)
		}
	}
	wg.Wait()
}
