package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fattree"
	"fattree/internal/par"
)

// config is the parsed ftserve command line.
type config struct {
	addr      string
	sizes     []int
	rootCap   int
	workloads []string
	k         int
	policy    string
	switches  fattree.SwitchKind
	loss      float64
	seed      int64
	workers   int
	runs      int
	interval  time.Duration
	history   int
	implicit  bool
	tenants   []string
	queue     int
	spanCap   int
}

// serveWorkloads are the workload generators the rotation may use.
var serveWorkloads = map[string]bool{
	"perm": true, "random": true, "bitrev": true, "transpose": true,
	"shuffle": true, "reversal": true, "nn": true, "alltoall": true,
	"hotspot": true, "local": true,
}

// parseConfig parses and validates args; any error is a usage error (exit 2).
func parseConfig(args []string) (config, error) {
	var cfg config
	var sizes, workloads, switches string
	fs := flag.NewFlagSet("ftserve", flag.ContinueOnError)
	var usage bytes.Buffer
	fs.SetOutput(&usage)
	fs.StringVar(&cfg.addr, "addr", "127.0.0.1:8080", "HTTP listen address (host:port; port 0 picks an ephemeral port)")
	fs.StringVar(&sizes, "n", "256", "comma-separated tree sizes to rotate through (powers of two)")
	fs.IntVar(&cfg.rootCap, "w", 0, "root capacity for every tree (0 = n/4 per tree)")
	fs.StringVar(&workloads, "workloads", "perm,random,transpose", "comma-separated workload rotation: perm|random|bitrev|transpose|shuffle|reversal|nn|alltoall|hotspot|local")
	fs.IntVar(&cfg.k, "k", 0, "message count for random/local/hotspot workloads (0 = 4n)")
	fs.StringVar(&cfg.policy, "policy", "online", "delivery policy per run: online|random")
	fs.StringVar(&switches, "switches", "ideal", "concentrator kind: ideal|partial")
	fs.Float64Var(&cfg.loss, "loss", 0, "transient-fault injection rate in [0,1)")
	fs.Int64Var(&cfg.seed, "seed", 1, "base random seed (varied per run)")
	fs.IntVar(&cfg.workers, "workers", 0, "tenant dispatcher pool size: how many tenants' requests run concurrently (tenant mode; 0 = GOMAXPROCS)")
	fs.IntVar(&cfg.runs, "runs", 0, "stop after this many runs and exit 0 (0 = run until signalled)")
	fs.DurationVar(&cfg.interval, "interval", 0, "pause between runs (0 = back to back)")
	fs.IntVar(&cfg.history, "history", 64, "completed runs retained for /runs")
	fs.BoolVar(&cfg.implicit, "implicit", false, "compute topologies on the fly and route with the streaming engine (per-level /metrics counters; lets -n reach 2^20)")
	var tenants string
	fs.StringVar(&tenants, "tenants", "", "comma-separated tenant names; enables the /v1/route serving mode instead of the rotation (-runs then bounds served requests)")
	fs.IntVar(&cfg.queue, "queue", 256, "per-tenant bounded queue capacity (tenant mode); a full queue answers 429 + Retry-After")
	fs.IntVar(&cfg.spanCap, "span-cap", 4096, "request span ring capacity (/debug/spans.jsonl flight recorder)")
	if err := fs.Parse(args); err != nil {
		return cfg, fmt.Errorf("%w\n%s", err, usage.String())
	}
	if fs.NArg() > 0 {
		return cfg, fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	for _, f := range strings.Split(sizes, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 4 || n&(n-1) != 0 {
			return cfg, fmt.Errorf("-n entries must be powers of two >= 4 (got %q)", f)
		}
		cfg.sizes = append(cfg.sizes, n)
	}
	for _, w := range strings.Split(workloads, ",") {
		w = strings.TrimSpace(w)
		if !serveWorkloads[w] {
			return cfg, fmt.Errorf("unknown workload %q in -workloads", w)
		}
		if w == "transpose" {
			for _, n := range cfg.sizes {
				if fattree.Lg(n)%2 != 0 {
					return cfg, fmt.Errorf("workload transpose needs an even power of two, but -n includes %d", n)
				}
			}
		}
		cfg.workloads = append(cfg.workloads, w)
	}
	switch cfg.policy {
	case "online", "random":
	default:
		return cfg, fmt.Errorf("unknown -policy %q (want online|random)", cfg.policy)
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
	if cfg.runs < 0 || cfg.interval < 0 {
		return cfg, fmt.Errorf("-runs and -interval must be non-negative")
	}
	if cfg.workers < 0 {
		return cfg, fmt.Errorf("-workers (the tenant dispatcher pool size) must be non-negative (got %d)", cfg.workers)
	}
	if cfg.history < 1 {
		return cfg, fmt.Errorf("-history must be >= 1 (got %d)", cfg.history)
	}
	if cfg.queue < 1 {
		return cfg, fmt.Errorf("-queue must be >= 1 (got %d)", cfg.queue)
	}
	if cfg.spanCap < 1 {
		return cfg, fmt.Errorf("-span-cap must be >= 1 (got %d)", cfg.spanCap)
	}
	if tenants != "" {
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
		if len(cfg.sizes) != 1 {
			return cfg, fmt.Errorf("tenant mode serves one tree geometry: -n must name exactly one size (got %v)", cfg.sizes)
		}
		for _, w := range cfg.workloads {
			// k = 1 sizes only the fixed-size workloads: a request's own k
			// sizes random, hotspot and local, and buildRequest checks it.
			if m := workloadMessages(w, cfg.sizes[0], 1); m > maxRouteMessages {
				return cfg, fmt.Errorf("workload %s builds %d messages at -n %d, above the per-request limit of %d",
					w, m, cfg.sizes[0], maxRouteMessages)
			}
		}
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

// instance is one simulated tree of the rotation: the engine and observer
// persist across runs, so the observer's counters are the monotone totals
// Prometheus expects. Only the sim loop touches eng; handlers read obs via
// Snapshot, which is safe mid-run.
type instance struct {
	size int
	eng  *fattree.Engine
	obs  *fattree.Observer
}

// runRecord is one completed simulation run, as served by /runs.
type runRecord struct {
	Seq        int       `json:"seq"`
	Tree       int       `json:"tree"`
	Workload   string    `json:"workload"`
	Policy     string    `json:"policy"`
	Messages   int       `json:"messages"`
	Delivered  int       `json:"delivered"`
	Cycles     int       `json:"cycles"`
	Drops      int       `json:"drops"`
	Deferrals  int       `json:"deferrals"`
	DurationUS int64     `json:"duration_us"`
	Start      time.Time `json:"start"`
}

// runRing is a fixed-capacity ring of completed runs: pushing past capacity
// overwrites the oldest record in place. The previous retention scheme —
// append then re-slice the tail — grew a fresh backing array on every wrap
// and kept the evicted head reachable through it; the ring's storage is
// allocated once and never moves.
type runRing struct {
	buf   []runRecord
	start int // index of the oldest record
	size  int
}

func newRunRing(capacity int) *runRing {
	return &runRing{buf: make([]runRecord, capacity)}
}

func (r *runRing) push(rec runRecord) {
	if r.size < len(r.buf) {
		r.buf[(r.start+r.size)%len(r.buf)] = rec
		r.size++
		return
	}
	r.buf[r.start] = rec
	r.start = (r.start + 1) % len(r.buf)
}

func (r *runRing) len() int { return r.size }
func (r *runRing) cap() int { return len(r.buf) }

// newestFirst appends the retained records to dst, newest first.
func (r *runRing) newestFirst(dst []runRecord) []runRecord {
	for i := r.size - 1; i >= 0; i-- {
		dst = append(dst, r.buf[(r.start+i)%len(r.buf)])
	}
	return dst
}

// server owns the simulation instances and the HTTP handlers.
type server struct {
	cfg       config
	instances []*instance
	start     time.Time

	ready atomic.Bool // first run completed (tenant mode: accepting requests)

	mu        sync.Mutex
	history   *runRing // completed rotation runs, capped at cfg.history
	total     int
	runCounts [][]int64 // [size index][workload index] completed runs

	// Tenant-serving mode (-tenants); see tenant.go.
	tenants      []*tenant
	tenantIdx    map[string]*tenant
	workloadMenu map[string]bool
	spans        *fattree.SpanRing
	pool         *par.Pool
	wake         chan struct{}
	reqPool      sync.Pool
	traceSeq     atomic.Uint64
	served       atomic.Int64
	drainMu      sync.RWMutex
	draining     bool
}

// newServer builds the per-size engines and observers (rotation mode) or the
// per-tenant engines, queues, and instrumentation (tenant mode).
func newServer(cfg config) (*server, error) {
	s := &server{cfg: cfg, start: time.Now(), history: newRunRing(cfg.history)}
	if len(cfg.tenants) > 0 {
		return s, s.initTenants()
	}
	for i, n := range cfg.sizes {
		w := cfg.rootCap
		if w == 0 {
			w = n / 4
		}
		// Implicit mode trades the per-node counter arrays for per-level
		// ones (the exposition is per-level anyway) and computes the tree on
		// demand, so one rotation can hold a 2^20-endpoint instance.
		var ft fattree.Topology
		var obs *fattree.Observer
		if cfg.implicit {
			imp := fattree.NewImplicitUniversal(n, w)
			ft = imp
			obs = fattree.NewObserverCompact(imp)
		} else {
			dense := fattree.NewUniversal(n, w)
			ft = dense
			obs = fattree.NewObserver(dense)
		}
		eng := fattree.NewEngineWithOptions(ft, cfg.switches, cfg.seed+int64(i),
			fattree.Options{Observer: obs})
		if cfg.loss > 0 {
			eng.InjectLoss(cfg.loss, cfg.seed+int64(7*i+3))
		}
		s.instances = append(s.instances, &instance{size: n, eng: eng, obs: obs})
		s.runCounts = append(s.runCounts, make([]int64, len(cfg.workloads)))
	}
	return s, nil
}

// initTenants builds the tenant-serving state: every tenant gets a persistent
// engine on the shared implicit topology — the streaming data plane, whose
// per-node observer counters match the dense plane's exactly — a per-node
// observer, a RED instrument block, and a bounded queue. -workers sizes the
// dispatcher pool that processes distinct tenants concurrently.
func (s *server) initTenants() error {
	n := s.cfg.sizes[0]
	w := s.cfg.rootCap
	if w == 0 {
		w = n / 4
	}
	ft := fattree.NewImplicitUniversal(n, w)
	s.tenantIdx = make(map[string]*tenant, len(s.cfg.tenants))
	s.workloadMenu = make(map[string]bool, len(s.cfg.workloads))
	for _, wl := range s.cfg.workloads {
		s.workloadMenu[wl] = true
	}
	for i, name := range s.cfg.tenants {
		obs := fattree.NewObserver(ft)
		eng := fattree.NewEngineWithOptions(ft, s.cfg.switches, s.cfg.seed+int64(i),
			fattree.Options{Observer: obs})
		if s.cfg.loss > 0 {
			eng.InjectLoss(s.cfg.loss, s.cfg.seed+int64(7*i+3))
		}
		tn := &tenant{
			name: name, idx: int32(i), eng: eng, obs: obs,
			red:   fattree.NewRED(),
			queue: make(chan *routeReq, s.cfg.queue),
		}
		s.tenants = append(s.tenants, tn)
		s.tenantIdx[name] = tn
	}
	s.pool = par.New(s.cfg.workers)
	s.spans = fattree.NewSpanRing(s.cfg.spanCap)
	s.wake = make(chan struct{}, 1)
	s.reqPool = newReqPool()
	return nil
}

// simLoop runs simulations until the context is cancelled or (with -runs
// N > 0) the budget is spent, rotating through size × workload combinations.
func (s *server) simLoop(ctx context.Context) {
	for r := 0; ctx.Err() == nil; r++ {
		combo := r % (len(s.instances) * len(s.cfg.workloads))
		inst := s.instances[combo/len(s.cfg.workloads)]
		wlIdx := combo % len(s.cfg.workloads)
		wl := s.cfg.workloads[wlIdx]
		ms := buildWorkload(wl, inst.size, s.cfg.k, s.cfg.seed+int64(r))

		begin := time.Now()
		var stats fattree.Stats
		if s.cfg.policy == "random" {
			stats = fattree.RunOnlineRandom(inst.eng, ms, s.cfg.seed+int64(2*r+1))
		} else {
			stats = fattree.RunOnline(inst.eng, ms)
		}

		s.mu.Lock()
		s.total++
		s.runCounts[combo/len(s.cfg.workloads)][wlIdx]++
		s.history.push(runRecord{
			Seq: s.total, Tree: inst.size, Workload: wl, Policy: s.cfg.policy,
			Messages: len(ms), Delivered: stats.Delivered, Cycles: stats.Cycles,
			Drops: stats.Drops, Deferrals: stats.Deferrals,
			DurationUS: time.Since(begin).Microseconds(), Start: begin.UTC(),
		})
		s.mu.Unlock()
		s.ready.Store(true)

		if s.cfg.runs > 0 && s.total >= s.cfg.runs {
			return
		}
		if s.cfg.interval > 0 {
			select {
			case <-ctx.Done():
				return
			case <-time.After(s.cfg.interval):
			}
		}
	}
}

// totalRuns returns the number of completed runs (tenant mode: served
// requests).
func (s *server) totalRuns() int {
	if s.tenantMode() {
		return s.servedTotal()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// buildWorkload builds one run's message set (the ftserve subset of the
// ftsim workload menu; local uses a fixed radius of 4).
func buildWorkload(name string, n, k int, seed int64) fattree.MessageSet {
	if k == 0 {
		k = 4 * n
	}
	switch name {
	case "perm":
		return fattree.RandomPermutation(n, seed)
	case "random":
		return fattree.Random(n, k, seed)
	case "bitrev":
		return fattree.BitReversal(n)
	case "transpose":
		return fattree.Transpose(n)
	case "shuffle":
		return fattree.Shuffle(n)
	case "reversal":
		return fattree.Reversal(n)
	case "nn":
		return fattree.NearestNeighbor(n)
	case "alltoall":
		return fattree.AllToAll(n)
	case "hotspot":
		return fattree.HotSpot(n, k, seed)
	case "local":
		return fattree.KLocal(n, k, 4, seed)
	}
	panic("ftserve: unvalidated workload " + name)
}

// workloadMessages returns how many messages buildWorkload makes for the
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
	if s.tenantMode() {
		mux.HandleFunc("/debug/spans.jsonl", s.handleSpansJSONL)
		mux.HandleFunc("/debug/spans.json", s.handleSpansChrome)
	}
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
	var snaps []fattree.LabeledSnapshot
	if s.tenantMode() {
		reds := make([]fattree.LabeledRED, 0, len(s.tenants))
		for _, tn := range s.tenants {
			labels := []fattree.PromLabel{{Name: "tenant", Value: tn.name}}
			reds = append(reds, fattree.LabeledRED{Labels: labels, Snap: tn.red.Snapshot()})
			snaps = append(snaps, fattree.LabeledSnapshot{Labels: labels, Snap: tn.obs.Snapshot()})
		}
		if err := fattree.WriteREDPrometheus(&buf, reds...); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
	} else {
		snaps = make([]fattree.LabeledSnapshot, 0, len(s.instances))
		for _, inst := range s.instances {
			snaps = append(snaps, fattree.LabeledSnapshot{
				Labels: []fattree.PromLabel{{Name: "tree", Value: strconv.Itoa(inst.size)}},
				Snap:   inst.obs.Snapshot(),
			})
		}
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
	fmt.Fprintf(buf, "fattree_server_info{go_version=%q,policy=%q,switches=%q} 1\n",
		runtime.Version(), s.cfg.policy, switchName(s.cfg.switches))
	fmt.Fprintf(buf, "# HELP fattree_server_ready Whether the first simulation run has completed.\n")
	fmt.Fprintf(buf, "# TYPE fattree_server_ready gauge\n")
	ready := 0
	if s.ready.Load() {
		ready = 1
	}
	fmt.Fprintf(buf, "fattree_server_ready %d\n", ready)
	fmt.Fprintf(buf, "# HELP fattree_server_uptime_seconds Seconds since process start.\n")
	fmt.Fprintf(buf, "# TYPE fattree_server_uptime_seconds gauge\n")
	fmt.Fprintf(buf, "fattree_server_uptime_seconds %g\n", time.Since(s.start).Seconds())
	fmt.Fprintf(buf, "# HELP fattree_server_runs_total Completed simulation runs per tree and workload.\n")
	fmt.Fprintf(buf, "# TYPE fattree_server_runs_total counter\n")
	s.mu.Lock()
	for i, inst := range s.instances {
		for j, wl := range s.cfg.workloads {
			fmt.Fprintf(buf, "fattree_server_runs_total{tree=\"%d\",workload=%q} %d\n",
				inst.size, wl, s.runCounts[i][j])
		}
	}
	s.mu.Unlock()
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
		msg := "no run completed yet"
		if s.tenantMode() {
			msg = "not accepting requests (starting or draining)"
		}
		http.Error(w, msg, http.StatusServiceUnavailable)
		return
	}
	if _, err := fmt.Fprintln(w, "ready"); err != nil {
		return
	}
}

// handleRuns serves the recent run history as JSON, newest first.
func (s *server) handleRuns(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	recent := s.history.newestFirst(make([]runRecord, 0, s.history.len()))
	total := s.total
	s.mu.Unlock()
	if s.tenantMode() {
		total = s.servedTotal() // requests, not rotation runs
	}
	doc := struct {
		Total         int         `json:"total"`
		Ready         bool        `json:"ready"`
		UptimeSeconds float64     `json:"uptime_seconds"`
		Runs          []runRecord `json:"runs"`
	}{total, s.ready.Load(), time.Since(s.start).Seconds(), recent}
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
