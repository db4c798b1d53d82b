package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"fattree"
)

// testConfig returns a small two-tree configuration with a bounded run
// budget, suitable for driving the sim loop synchronously in tests.
func testConfig(t *testing.T, extra ...string) config {
	t.Helper()
	args := append([]string{"-n", "16,32", "-workloads", "perm,random", "-runs", "4"}, extra...)
	cfg, err := parseConfig(args)
	if err != nil {
		t.Fatal(err)
	}
	return cfg
}

func TestParseConfigErrors(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"bad size", []string{"-n", "15"}},
		{"size too small", []string{"-n", "2"}},
		{"unknown workload", []string{"-workloads", "nope"}},
		{"transpose odd lg", []string{"-n", "32", "-workloads", "transpose"}},
		{"unknown policy", []string{"-policy", "offline"}},
		{"unknown switches", []string{"-switches", "nope"}},
		{"loss out of range", []string{"-loss", "1.5"}},
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
	cfg, err := parseConfig([]string{"-n", "64,256", "-workloads", "transpose", "-policy", "random"})
	if err != nil {
		t.Fatalf("valid flags rejected: %v", err)
	}
	if len(cfg.sizes) != 2 || cfg.sizes[1] != 256 || cfg.policy != "random" {
		t.Fatalf("parsed config wrong: %+v", cfg)
	}
}

// completedServer runs the bounded sim loop to completion and returns the
// server ready for handler tests.
func completedServer(t *testing.T, extra ...string) *server {
	t.Helper()
	srv, err := newServer(testConfig(t, extra...))
	if err != nil {
		t.Fatal(err)
	}
	srv.simLoop(context.Background())
	return srv
}

// get performs one request against the server's mux.
func get(t *testing.T, srv *server, path string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	srv.mux().ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec
}

func TestEndpoints(t *testing.T) {
	srv := completedServer(t)
	for _, tc := range []struct {
		path   string
		status int
		want   []string
	}{
		{"/healthz", 200, []string{"ok"}},
		{"/readyz", 200, []string{"ready"}},
		{"/metrics", 200, []string{
			"fattree_server_ready 1",
			`fattree_server_runs_total{tree="16",workload="perm"}`,
			`fattree_cycles_total{tree="16"}`,
			`fattree_cycles_total{tree="32"}`,
			`fattree_delivery_latency_cycles_bucket{tree="16",le="+Inf"}`,
			`fattree_level_utilization_permille_bucket{tree="32",level="0",le="+Inf"}`,
		}},
		{"/runs", 200, []string{`"total": 4`, `"workload": "perm"`, `"delivered"`}},
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
	srv := completedServer(t, "-loss", "0.05", "-switches", "partial", "-policy", "random")
	rec := get(t, srv, "/metrics")
	if err := fattree.ValidatePromExposition(rec.Body.Bytes()); err != nil {
		t.Fatalf("/metrics is not valid exposition: %v", err)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q", ct)
	}
}

func TestReadyzBeforeFirstRun(t *testing.T) {
	srv, err := newServer(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if rec := get(t, srv, "/readyz"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz before first run: status %d, want 503", rec.Code)
	}
	// /metrics and /healthz must serve fine before readiness.
	if rec := get(t, srv, "/metrics"); rec.Code != 200 ||
		!strings.Contains(rec.Body.String(), "fattree_server_ready 0") {
		t.Fatalf("/metrics before first run: %d", rec.Code)
	}
}

func TestRunsHistoryBounded(t *testing.T) {
	srv := completedServer(t, "-runs", "9", "-history", "3")
	rec := get(t, srv, "/runs")
	var doc struct {
		Total int         `json:"total"`
		Runs  []runRecord `json:"runs"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Total != 9 || len(doc.Runs) != 3 {
		t.Fatalf("total=%d len(runs)=%d, want 9 and 3", doc.Total, len(doc.Runs))
	}
	// Newest first.
	if doc.Runs[0].Seq != 9 || doc.Runs[2].Seq != 7 {
		t.Fatalf("runs not newest-first: %+v", doc.Runs)
	}
}

// TestScrapeDuringRun drives the sim loop and concurrent /metrics scrapes at
// the same time: every scrape must be valid exposition and internally
// consistent (the cycle-boundary snapshot contract), and nothing may race
// (run with -race in CI).
func TestScrapeDuringRun(t *testing.T) {
	cfg := testConfig(t, "-runs", "60", "-loss", "0.03", "-switches", "partial")
	srv, err := newServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		srv.simLoop(context.Background())
	}()
	for i := 0; i < 50; i++ {
		rec := get(t, srv, "/metrics")
		if rec.Code != 200 {
			t.Fatalf("scrape %d: status %d", i, rec.Code)
		}
		if err := fattree.ValidatePromExposition(rec.Body.Bytes()); err != nil {
			t.Fatalf("scrape %d invalid: %v", i, err)
		}
		if rec := get(t, srv, "/runs"); rec.Code != 200 {
			t.Fatalf("/runs during run: status %d", rec.Code)
		}
	}
	wg.Wait()
}
