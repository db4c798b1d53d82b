// Command ftserve is the multi-tenant /v1/route daemon: every tenant gets a
// persistent engine on one shared universal tree (the streaming data
// plane), and clients submit message sets or named workloads through
// /v1/route. Each tenant has a bounded queue with explicit backpressure and
// a goroutine of its own that serves it in arrival order, so one tenant's
// slow requests never hold up another's.
//
//	/metrics            Prometheus text exposition (fattree_* families:
//	                    per-tenant RED and engine counters)
//	/healthz            liveness (200 once the process is up)
//	/readyz             readiness (200 while accepting, 503 while draining)
//	/runs               served-request total, readiness and uptime as JSON
//	/v1/route           POST one JSON request, or an NDJSON batch when the
//	                    Content-Type says ndjson
//	/debug/spans.jsonl  request span ring as JSONL, oldest first
//	/debug/spans.json   request span ring as Chrome trace_event JSON
//	/debug/pprof/       the standard pprof handlers
//
// Usage examples:
//
//	ftserve                                         # 127.0.0.1:8080, n=256, tenant "default"
//	ftserve -tenants alpha,beta -n 256 -queue 512   # two tenants on one tree
//	ftserve -addr :9090 -switches partial -loss 0.01
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: it flips /readyz to
// 503, refuses new /v1/route work, lets every tenant loop finish its queued
// requests, and only then closes the listener.
//
// Exit status: 0 success, 1 runtime failure, 2 usage error.
package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"
)

func main() {
	cfg, err := parseConfig(os.Args[1:])
	if err != nil {
		fmt.Fprintf(os.Stderr, "ftserve: %v\n", err)
		os.Exit(2)
	}
	if err := run(cfg); err != nil {
		fmt.Fprintf(os.Stderr, "ftserve: %v\n", err)
		os.Exit(1)
	}
}

// run starts the tenant loops and the HTTP server, and blocks until a
// shutdown signal arrives. A clean shutdown returns nil.
func run(cfg config) error {
	srv := newServer(cfg)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	fmt.Printf("ftserve: serving /v1/route on http://%s (tree %d, tenants %v, queue %d)\n",
		ln.Addr(), cfg.n, cfg.tenants, cfg.queue)
	srv.startLoops()
	srv.ready.Store(true) // accepting requests the moment the listener is up

	httpSrv := &http.Server{Handler: srv.mux()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	select {
	case <-ctx.Done():
		fmt.Println("ftserve: signal received, shutting down")
	case err := <-serveErr:
		srv.stop()
		return err
	}
	srv.stop() // refuse new work, finish the queued requests, join the loops

	shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil {
		return err
	}
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
