package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fattree"
)

// config is the parsed ftserve command line.
type config struct {
	addr      string
	n         int // processors at the leaves of the one shared tree
	rootCap   int
	workloads []string
	switches  fattree.SwitchKind
	loss      float64
	seed      int64
	tenants   []string
	queue     int
	spanCap   int
}

// serveWorkloads are the named workloads a -workloads menu may offer.
var serveWorkloads = map[string]bool{
	"perm": true, "random": true, "bitrev": true, "transpose": true,
	"shuffle": true, "reversal": true, "nn": true, "alltoall": true,
	"hotspot": true, "local": true,
}

// parseConfig parses and validates args; any error is a usage error (exit 2).
func parseConfig(args []string) (config, error) {
	var cfg config
	var workloads, switches, tenants string
	fs := flag.NewFlagSet("ftserve", flag.ContinueOnError)
	var usage bytes.Buffer
	fs.SetOutput(&usage)
	fs.StringVar(&cfg.addr, "addr", "127.0.0.1:8080", "HTTP listen address (host:port; port 0 picks an ephemeral port)")
	fs.IntVar(&cfg.n, "n", 256, "tree size: processors at the leaves (a power of two >= 4)")
	fs.IntVar(&cfg.rootCap, "w", 0, "root capacity of the tree (0 = n/4)")
	fs.StringVar(&workloads, "workloads", "perm,random,transpose", "comma-separated menu of named workloads: perm|random|bitrev|transpose|shuffle|reversal|nn|alltoall|hotspot|local")
	fs.StringVar(&switches, "switches", "ideal", "concentrator kind: ideal|partial")
	fs.Float64Var(&cfg.loss, "loss", 0, "transient-fault injection rate in [0,1)")
	fs.Int64Var(&cfg.seed, "seed", 1, "base random seed of the tenant engines")
	fs.StringVar(&tenants, "tenants", "default", "comma-separated tenant names; each gets its own engine and queue")
	fs.IntVar(&cfg.queue, "queue", 256, "per-tenant bounded queue capacity; a full queue answers 429 + Retry-After")
	fs.IntVar(&cfg.spanCap, "span-cap", 4096, "request span ring capacity (/debug/spans.jsonl flight recorder)")
	if err := fs.Parse(args); err != nil {
		// The flag set has already written the error line above the usage.
		return cfg, errors.New(strings.TrimSuffix(usage.String(), "\n"))
	}
	if fs.NArg() > 0 {
		return cfg, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	n := cfg.n
	if n < 4 || n&(n-1) != 0 {
		return cfg, fmt.Errorf("-n must be a power of two >= 4 (got %d)", n)
	}
	for _, w := range strings.Split(workloads, ",") {
		w = strings.TrimSpace(w)
		if !serveWorkloads[w] {
			return cfg, fmt.Errorf("unknown workload %q in -workloads", w)
		}
		if w == "transpose" && fattree.Lg(n)%2 != 0 {
			return cfg, fmt.Errorf("workload transpose needs an even power of two, but -n is %d", n)
		}
		// k = 1 sizes only the fixed-size workloads: a request's own k
		// sizes random, hotspot and local, and buildRequest checks it.
		if m := workloadMessages(w, n, 1); m > maxRouteMessages {
			return cfg, fmt.Errorf("workload %s builds %d messages at -n %d, above the per-request limit of %d",
				w, m, n, maxRouteMessages)
		}
		cfg.workloads = append(cfg.workloads, w)
	}
	switch switches {
	case "ideal":
		cfg.switches = fattree.SwitchIdeal
	case "partial":
		cfg.switches = fattree.SwitchPartial
	default:
		return cfg, fmt.Errorf("unknown -switches %q (want ideal|partial)", switches)
	}
	if cfg.loss < 0 || cfg.loss >= 1 {
		return cfg, fmt.Errorf("-loss must be in [0,1) (got %v)", cfg.loss)
	}
	if cfg.queue < 1 {
		return cfg, fmt.Errorf("-queue must be >= 1 (got %d)", cfg.queue)
	}
	if cfg.spanCap < 1 {
		return cfg, fmt.Errorf("-span-cap must be >= 1 (got %d)", cfg.spanCap)
	}
	seen := map[string]bool{}
	for _, name := range strings.Split(tenants, ",") {
		name = strings.TrimSpace(name)
		if !validTenantName(name) {
			return cfg, fmt.Errorf("tenant name %q must match [a-zA-Z0-9_-]+", name)
		}
		if seen[name] {
			return cfg, fmt.Errorf("duplicate tenant name %q", name)
		}
		seen[name] = true
		cfg.tenants = append(cfg.tenants, name)
	}
	return cfg, nil
}

// validTenantName reports whether name is usable as a Prometheus label
// value and a JSON key without escaping: [a-zA-Z0-9_-]+.
func validTenantName(name string) bool {
	if name == "" {
		return false
	}
	for _, r := range name {
		ok := r == '_' || r == '-' || (r >= 'a' && r <= 'z') ||
			(r >= 'A' && r <= 'Z') || (r >= '0' && r <= '9')
		if !ok {
			return false
		}
	}
	return true
}

// server owns the tenants, their loops, and the HTTP handlers.
type server struct {
	cfg   config
	start time.Time
	ready atomic.Bool // accepting requests: set once listening, cleared by beginDrain

	tenants   []*tenant
	tenantIdx map[string]*tenant
	spans     *fattree.SpanRing
	reqPool   sync.Pool
	traceSeq  atomic.Uint64
	served    atomic.Int64
	loops     sync.WaitGroup // one per tenant loop
	drainMu   sync.RWMutex
	draining  bool
}

// newServer builds every tenant's engine, observer, RED block and queue on
// one shared universal tree (the streaming data plane). The tenant loops
// start with startLoops.
func newServer(cfg config) *server {
	s := &server{cfg: cfg, start: time.Now()}
	n := cfg.n
	w := cfg.rootCap
	if w == 0 {
		w = n / 4
	}
	ft := fattree.NewUniversal(n, w)
	s.tenantIdx = make(map[string]*tenant, len(cfg.tenants))
	for i, name := range cfg.tenants {
		obs := fattree.NewObserver(ft)
		eng := fattree.NewEngineWithOptions(ft, cfg.switches, cfg.seed+int64(i),
			fattree.Options{Observer: obs})
		if cfg.loss > 0 {
			eng.InjectLoss(cfg.loss, cfg.seed+int64(7*i+3))
		}
		tn := &tenant{
			name: name, idx: int32(i), eng: eng, obs: obs,
			red:   fattree.NewRED(),
			queue: make(chan *routeReq, cfg.queue),
		}
		s.tenants = append(s.tenants, tn)
		s.tenantIdx[name] = tn
	}
	s.spans = fattree.NewSpanRing(cfg.spanCap)
	s.reqPool = newReqPool()
	return s
}

// appendWorkload appends one request's message set to dst: the ftsim
// workload menu, with k = 0 meaning 4n and local using a fixed radius of 4.
func appendWorkload(dst fattree.MessageSet, name string, n, k int, seed int64) fattree.MessageSet {
	if k == 0 {
		k = 4 * n
	}
	return fattree.AppendWorkload(dst, name, n, k, 4, seed)
}

// workloadMessages returns how many messages appendWorkload makes for the
// named workload on n processors with count k (0 means 4n). For the
// permutations it is an upper bound: they leave out fixed points.
func workloadMessages(name string, n, k int) int {
	switch name {
	case "random", "hotspot", "local":
		if k == 0 {
			return 4 * n
		}
		return k
	case "nn":
		return 2 * (n - 1)
	case "alltoall":
		return n * (n - 1)
	}
	return n
}

// mux builds the HTTP handler tree.
func (s *server) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/runs", s.handleRuns)
	mux.HandleFunc("/v1/route", s.handleRoute)
	mux.HandleFunc("/debug/spans.jsonl", s.handleSpansJSONL)
	mux.HandleFunc("/debug/spans.json", s.handleSpansChrome)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// handleMetrics renders the full exposition into a buffer first, so a slow
// or aborted client can never leave a half-written scrape.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var buf bytes.Buffer
	s.writeServerMetrics(&buf)
	reds := make([]fattree.LabeledRED, 0, len(s.tenants))
	snaps := make([]fattree.LabeledSnapshot, 0, len(s.tenants))
	for _, tn := range s.tenants {
		labels := []fattree.PromLabel{{Name: "tenant", Value: tn.name}}
		reds = append(reds, fattree.LabeledRED{Labels: labels, Snap: tn.red.Snapshot()})
		snaps = append(snaps, fattree.LabeledSnapshot{Labels: labels, Snap: tn.obs.Snapshot()})
	}
	if err := fattree.WriteREDPrometheus(&buf, reds...); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	if err := fattree.WritePrometheus(&buf, snaps...); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	if _, err := w.Write(buf.Bytes()); err != nil {
		return // client went away; nothing to clean up
	}
}

// writeServerMetrics writes the daemon's own families (distinct from the
// snapshot families WritePrometheus owns).
func (s *server) writeServerMetrics(buf *bytes.Buffer) {
	fmt.Fprintf(buf, "# HELP fattree_server_info Build and configuration of this ftserve process.\n")
	fmt.Fprintf(buf, "# TYPE fattree_server_info gauge\n")
	fmt.Fprintf(buf, "fattree_server_info{go_version=%q,switches=%q} 1\n",
		runtime.Version(), switchName(s.cfg.switches))
	fmt.Fprintf(buf, "# HELP fattree_server_ready Whether the server is accepting requests.\n")
	fmt.Fprintf(buf, "# TYPE fattree_server_ready gauge\n")
	ready := 0
	if s.ready.Load() {
		ready = 1
	}
	fmt.Fprintf(buf, "fattree_server_ready %d\n", ready)
	fmt.Fprintf(buf, "# HELP fattree_server_uptime_seconds Seconds since process start.\n")
	fmt.Fprintf(buf, "# TYPE fattree_server_uptime_seconds gauge\n")
	fmt.Fprintf(buf, "fattree_server_uptime_seconds %g\n", time.Since(s.start).Seconds())
}

func switchName(k fattree.SwitchKind) string {
	if k == fattree.SwitchPartial {
		return "partial"
	}
	return "ideal"
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if _, err := fmt.Fprintln(w, "ok"); err != nil {
		return
	}
}

func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if !s.ready.Load() {
		http.Error(w, "not accepting requests (starting or draining)", http.StatusServiceUnavailable)
		return
	}
	if _, err := fmt.Fprintln(w, "ready"); err != nil {
		return
	}
}

// handleRuns serves the served-request total, readiness and uptime as JSON.
func (s *server) handleRuns(w http.ResponseWriter, r *http.Request) {
	doc := struct {
		Total         int     `json:"total"`
		Ready         bool    `json:"ready"`
		UptimeSeconds float64 `json:"uptime_seconds"`
	}{s.servedTotal(), s.ready.Load(), time.Since(s.start).Seconds()}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	if _, err := w.Write(buf.Bytes()); err != nil {
		return
	}
}
