package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"path/filepath"
	"strconv"
	"time"

	"fattree"
)

// routeWorkload is one closed-loop /v1/route workload: one client, one
// keep-alive connection, the next request sent when the last one returns.
// Every request asks for the named perm workload with its own seed.
type routeWorkload struct {
	name    string
	n       int // tree size ftserve serves
	pool    int // distinct pre-generated requests, cycled
	warmup  int // untimed requests after each server start
	counted int // fixed request count of the traced run's counter phase
}

var routeSmall = routeWorkload{name: "route-small", n: 64, pool: 4096, warmup: 500, counted: 4000}

// tenants are the ftserve tenants; requests alternate between them.
var tenants = []string{"a", "b"}

// replayEvery samples one request in this many for the in-process replay.
const replayEvery = 61

// request is one pre-generated /v1/route call and the message set the
// server must route for it.
type request struct {
	tenant int
	seed   int64 // generator seed of the named perm workload
	body   []byte
	ms     fattree.MessageSet
}

// inputs generates the run's request pool from the seed alone.
func (w routeWorkload) inputs(seed int64) []request {
	rng := rand.New(rand.NewSource(seed))
	reqs := make([]request, w.pool)
	for i := range reqs {
		r := request{tenant: i % len(tenants), seed: rng.Int63()}
		r.ms = fattree.RandomPermutation(w.n, r.seed)
		r.body = []byte(fmt.Sprintf(`{"tenant":%q,"workload":"perm","seed":%d}`, tenants[r.tenant], r.seed))
		reqs[i] = r
	}
	return reqs
}

// sampled is a response kept for the in-process replay check.
type sampled struct {
	req  *request
	resp routeResp
}

// routeRun is the client state of one run: the request pool, the cursor
// into it, and the correctness bookkeeping.
type routeRun struct {
	w       routeWorkload
	reqs    []request
	next    int
	clock   func() int64
	tally   tally
	sent    []int // requests per tenant since the current server started
	replays []sampled
}

// call sends the next request, checks the response, and returns the
// response and client timestamps. The last result is false when the
// request failed (already counted in the tally).
func (r *routeRun) call(srv *server) (routeResp, stamps, bool) {
	req := &r.reqs[r.next%len(r.reqs)]
	r.next++
	r.sent[req.tenant]++
	rr, status, st, err := srv.route(req.body, r.clock)
	var bad string
	switch {
	case err != nil:
		bad = err.Error()
	case status != http.StatusOK:
		bad = fmt.Sprintf("status %d (%s)", status, rr.Error)
	case rr.Tenant != tenants[req.tenant] || rr.Messages != len(req.ms):
		bad = fmt.Sprintf("answered tenant %q with %d messages, want %q with %d", rr.Tenant, rr.Messages, tenants[req.tenant], len(req.ms))
	case rr.Delivered != rr.Messages:
		bad = fmt.Sprintf("delivered %d of %d", rr.Delivered, rr.Messages)
	}
	r.tally.check(bad == "", "%s request %d: %s", r.w.name, r.next-1, bad)
	if bad == "" && r.next%replayEvery == 0 {
		r.replays = append(r.replays, sampled{req, rr})
	}
	return rr, st, bad == ""
}

// startSession starts a fresh server and serves its first request; the
// returned set-up time runs from process start to that first response.
func (r *routeRun) startSession(o options) (*server, float64, error) {
	begin := time.Now()
	srv, err := startServer(filepath.Join(o.out, "ftserve"),
		"-tenants", "a,b", "-n", strconv.Itoa(r.w.n), "-workloads", "perm")
	if err != nil {
		return nil, 0, err
	}
	r.sent = make([]int, len(tenants))
	if _, _, ok := r.call(srv); !ok {
		srv.stop()
		return nil, 0, fmt.Errorf("%s: first request failed: %v", r.w.name, r.tally.reasons)
	}
	setup := time.Since(begin).Seconds()
	for i := 0; i < r.w.warmup; i++ {
		r.call(srv)
	}
	return srv, setup, nil
}

// endSession runs the post-session gate while the server is still up: the
// final /metrics scrape must parse, satisfy per-tenant conservation, and
// count exactly the requests this client sent; then it stops the server.
func (r *routeRun) endSession(srv *server) {
	defer srv.stop()
	c, _, err := srv.scrapeCounters()
	r.tally.check(err == nil, "%s final scrape: %v", r.w.name, err)
	if err != nil {
		return
	}
	for _, e := range checkConservation(c, tenants) {
		r.tally.check(false, "%s: %v", r.w.name, e)
	}
	for i, t := range tenants {
		k := "{tenant=" + t + "}"
		got, errs := c["fattree_requests_total"+k], c["fattree_request_errors_total"+k]
		r.tally.check(got == float64(r.sent[i]) && errs == 0,
			"%s tenant %s: server counted %v requests (%v errors), client sent %d", r.w.name, t, got, errs, r.sent[i])
	}
}

// checkReplays replays the sampled requests through a benchmark-owned
// serial engine on the same tree and requires identical delivery stats:
// ideal switches keep no history, so a fresh engine must agree exactly.
func (r *routeRun) checkReplays(eng *fattree.Engine) {
	for _, s := range r.replays {
		st := eng.RunServe(s.req.ms)
		if st.Cycles != s.resp.Cycles || st.Delivered != s.resp.Delivered ||
			st.Drops != s.resp.Drops || st.Deferrals != s.resp.Deferrals {
			r.tally.fail("%s replay of trace %s: server %+v, replay %+v", r.w.name, s.resp.TraceID, s.resp, st)
		}
	}
	r.replays = r.replays[:0]
}

// replayEngine builds the benchmark's own engine on the tree ftserve
// serves (ftserve's default root capacity n/4, ideal switches, serial).
func replayEngine(n int) *fattree.Engine {
	return fattree.NewEngineWithOptions(fattree.NewUniversal(n, n/4), fattree.SwitchIdeal, 0,
		fattree.Options{Workers: 1})
}

// runRoute is one run of a /v1/route workload.
func runRoute(w routeWorkload, o options) (ledger, *tally, error) {
	r := &routeRun{w: w, reqs: w.inputs(o.seed), clock: benchClock()}
	eng := replayEngine(w.n)
	if o.trace {
		l, err := r.traced(o, eng)
		return l, &r.tally, err
	}
	slice := seconds(o.seconds / sessions)
	set, err := runSessions(func(int) (session, error) {
		srv, setup, err := r.startSession(o)
		if err != nil {
			return session{}, err
		}
		var lat []float64
		steal0 := o.steal()
		begin := time.Now()
		for time.Since(begin) < slice {
			if _, st, ok := r.call(srv); ok {
				lat = append(lat, float64(st.done-st.sent)/1e6)
			}
		}
		window := time.Since(begin).Seconds()
		steal := o.steal() - steal0
		kb, err := procStatus(srv.pid(), "VmHWM")
		r.endSession(srv)
		r.checkReplays(eng)
		return newSession(lat, window, steal, setup, kb/1024), err
	})
	if err != nil {
		return nil, nil, err
	}
	return set.ledger(), &r.tally, nil
}
