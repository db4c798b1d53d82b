// Command ftserve is the live-telemetry daemon. In its default rotation mode
// it runs fat-tree delivery simulations continuously — rotating through a
// configurable set of tree sizes and workloads — and exposes the
// observability layer over HTTP while the simulations are in flight. With
// -tenants it instead becomes a multi-tenant request server: every tenant
// gets a persistent engine on a shared universal tree (the streaming data
// plane), and clients submit message sets or named workloads through
// /v1/route, scheduled on a shared worker pool behind per-tenant bounded
// queues with explicit backpressure.
//
//	/metrics            Prometheus text exposition (fattree_* families;
//	                    per-tree labels, or per-tenant RED + engine counters)
//	/healthz            liveness (200 once the process is up)
//	/readyz             readiness (rotation: 200 after the first completed
//	                    run; tenants: 200 while accepting, 503 while draining)
//	/runs               recent run history (tenant mode: served-request total)
//	/v1/route           POST one JSON request, or an NDJSON batch when the
//	                    Content-Type says ndjson (tenant mode only)
//	/debug/spans.jsonl  request span ring as JSONL, oldest first (tenant mode)
//	/debug/spans.json   request span ring as Chrome trace_event JSON
//	/debug/pprof/       the standard pprof handlers
//
// Usage examples:
//
//	ftserve                                    # 127.0.0.1:8080, n=256, default rotation
//	ftserve -addr :9090 -n 256,1024 -workloads perm,transpose -loss 0.01
//	ftserve -runs 10 -addr 127.0.0.1:0        # bounded: exit 0 after 10 runs
//	ftserve -tenants alpha,beta -n 256 -queue 512   # multi-tenant /v1/route
//
// The daemon shuts down gracefully on SIGINT/SIGTERM: tenant mode flips
// /readyz to 503, refuses new /v1/route work, drains the queued requests,
// and only then closes the listener. With -runs N > 0 it serves until N runs
// (tenant mode: N requests) complete, then exits 0 (the smoke-test mode).
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

// run starts the simulation loop and the HTTP server, and blocks until a
// shutdown signal arrives or (in bounded -runs mode) the run budget is
// spent. A clean shutdown returns nil.
func run(cfg config) error {
	srv, err := newServer(cfg)
	if err != nil {
		return err
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ln, err := net.Listen("tcp", cfg.addr)
	if err != nil {
		return err
	}
	if srv.tenantMode() {
		fmt.Printf("ftserve: serving /v1/route on http://%s (tree %d, tenants %v, queue %d)\n",
			ln.Addr(), cfg.sizes[0], cfg.tenants, cfg.queue)
		srv.ready.Store(true) // accepting requests the moment the listener is up
	} else {
		fmt.Printf("ftserve: serving /metrics on http://%s (trees %v, workloads %v)\n",
			ln.Addr(), cfg.sizes, cfg.workloads)
	}

	httpSrv := &http.Server{Handler: srv.mux()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	simDone := make(chan struct{})
	go func() {
		defer close(simDone)
		if srv.tenantMode() {
			srv.tenantLoop(ctx)
		} else {
			srv.simLoop(ctx)
		}
	}()

	select {
	case <-ctx.Done():
		fmt.Println("ftserve: signal received, shutting down")
		if srv.tenantMode() {
			srv.beginDrain() // refuse new work while the dispatcher drains
		}
	case <-simDone:
		// Bounded mode finished its budget (or the loop stopped on ctx).
		if srv.tenantMode() {
			fmt.Printf("ftserve: served %d requests, shutting down\n", srv.totalRuns())
		} else {
			fmt.Printf("ftserve: completed %d runs, shutting down\n", srv.totalRuns())
		}
	case err := <-serveErr:
		stop()
		<-simDone
		return err
	}
	stop() // stop the sim loop if it is still running
	<-simDone

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
