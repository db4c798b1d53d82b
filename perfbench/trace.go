package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"fattree"
)

// spanCap is ftserve's default -span-cap. The traced loop drains the ring
// every spanCap/8 requests (four spans each), half the ring, so no span is
// overwritten before it is read.
const (
	spanCap       = 4096
	spansPerReq   = 4
	drainEvery    = spanCap / spansPerReq / 2
	maxExportReqs = 2000 // requests written to the Chrome trace file
)

// serverSpan is one line of ftserve's /debug/spans.jsonl.
type serverSpan struct {
	Trace   string `json:"trace_id"`
	Tenant  int    `json:"tenant"`
	Kind    string `json:"kind"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
	Cycles  int    `json:"cycles"`
	Msgs    int    `json:"msgs"`
	Err     bool   `json:"err"`
}

// spanLog holds drained server spans by trace ID and kind; a span that
// several drains return is kept once.
type spanLog map[string]map[string]serverSpan

// drain reads the server's span ring and merges it into the log.
func (lg spanLog) drain(srv *server) error {
	b, err := srv.get("/debug/spans.jsonl")
	if err != nil {
		return err
	}
	return lg.merge(b)
}

func (lg spanLog) merge(jsonl []byte) error {
	sc := bufio.NewScanner(bytes.NewReader(jsonl))
	for sc.Scan() {
		var s serverSpan
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			return fmt.Errorf("span line %q: %w", sc.Text(), err)
		}
		if lg[s.Trace] == nil {
			lg[s.Trace] = map[string]serverSpan{}
		}
		lg[s.Trace][s.Kind] = s
	}
	return sc.Err()
}

// clientTrace is the benchmark's own record of one traced request.
type clientTrace struct {
	trace string
	st    stamps
}

// requestBreakdown is one traced request split into its layers (ns).
type requestBreakdown struct{ wall, server, transport, residual int64 }

// breakdown merges a client record with its server spans. transport is the
// client wall time no server span covers; residual is what remains after
// the client's own decode span too, the time no span of either side covers.
func breakdown(c clientTrace, spans map[string]serverSpan) requestBreakdown {
	ivs := make([]interval, 0, len(spans))
	for _, s := range spans {
		ivs = append(ivs, interval{s.StartNS, s.StartNS + s.DurNS})
	}
	wall := c.st.done - c.st.sent
	srv := unionLen(ivs)
	return requestBreakdown{
		wall: wall, server: srv,
		transport: selfTime(wall, srv),
		residual:  selfTime(wall, srv, c.st.done-c.st.read),
	}
}

// chromeEvent is one Chrome trace_event record (times in microseconds).
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

func processName(pid int, name string) chromeEvent {
	return chromeEvent{Name: "process_name", Phase: "M", PID: pid, Args: map[string]any{"name": name}}
}

// routeEvents places each request's client spans (pid 1) and server spans
// (pid 2, one thread per tenant) on the client's timeline. The two
// processes' clocks are unrelated, so each request's server activity is
// centered inside the client's send-to-read interval.
func routeEvents(traces []clientTrace, lg spanLog) []chromeEvent {
	ev := []chromeEvent{processName(1, "perfbench client"), processName(2, "ftserve")}
	for _, c := range traces[:min(len(traces), maxExportReqs)] {
		args := map[string]any{"trace_id": c.trace}
		ev = append(ev,
			chromeEvent{Name: "request", Phase: "X", TS: us(c.st.sent), Dur: us(c.st.done - c.st.sent), PID: 1, TID: 1, Args: args},
			chromeEvent{Name: "decode", Phase: "X", TS: us(c.st.read), Dur: us(c.st.done - c.st.read), PID: 1, TID: 1, Args: args})
		spans := lg[c.trace]
		if len(spans) == 0 {
			continue
		}
		first, last := int64(1<<62), int64(-1<<62)
		for _, s := range spans {
			first, last = min(first, s.StartNS), max(last, s.StartNS+s.DurNS)
		}
		shift := c.st.sent + ((c.st.read-c.st.sent)-(last-first))/2 - first
		for _, s := range spans {
			ev = append(ev, chromeEvent{Name: s.Kind, Phase: "X", TS: us(s.StartNS + shift), Dur: us(s.DurNS),
				PID: 2, TID: s.Tenant + 1, Args: map[string]any{"trace_id": s.Trace, "cycles": s.Cycles, "msgs": s.Msgs}})
		}
	}
	return ev
}

// writeChrome writes events as a Chrome trace_event JSON file.
func writeChrome(path string, events []chromeEvent) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = json.NewEncoder(w).Encode(struct {
		TraceEvents     []chromeEvent `json:"traceEvents"`
		DisplayTimeUnit string        `json:"displayTimeUnit"`
	}{events, "ms"})
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// traceBlock is the length of the alternating untraced and traced blocks of
// a traced run. Alternating, rather than one half after the other, lets
// host drift over the run fall on both alike, so their difference is the
// tracing overhead.
const traceBlock = time.Second

// overheadPct is how much slower the traced blocks ran than the untraced.
func overheadPct(plain int, plainT time.Duration, traced int, tracedT time.Duration) float64 {
	p, t := float64(plain)/plainT.Seconds(), float64(traced)/tracedT.Seconds()
	return (p - t) / p * 100
}

// traced is the per-layer run of a route workload on one server: a
// fixed-count counter phase, then the window in alternating untraced and
// traced blocks, then replays of the same inputs in-process.
func (r *routeRun) traced(o options, eng *fattree.Engine) (ledger, error) {
	l := ledger{}
	srv, _, err := r.startSession(o)
	if err != nil {
		return nil, err
	}
	if err := r.counterPhase(srv, l); err != nil {
		srv.stop()
		return nil, err
	}

	lg := spanLog{}
	var traces []clientTrace
	var drainErr error
	var plain, pending int
	var plainT, tracedT time.Duration
	end := time.Now().Add(seconds(o.seconds))
	for b := 0; time.Now().Before(end); b++ {
		begin := time.Now()
		for time.Since(begin) < traceBlock {
			rr, st, ok := r.call(srv)
			if b%2 == 0 {
				if ok {
					plain++
				}
				continue
			}
			if ok {
				traces = append(traces, clientTrace{rr.TraceID, st})
			}
			if pending++; pending == drainEvery && drainErr == nil {
				drainErr, pending = lg.drain(srv), 0
			}
		}
		if b%2 == 0 {
			plainT += time.Since(begin)
			continue
		}
		// The next untraced block would overwrite this block's last spans.
		if drainErr == nil {
			drainErr, pending = lg.drain(srv), 0
		}
		tracedT += time.Since(begin)
	}
	if drainErr != nil {
		srv.stop()
		return nil, fmt.Errorf("draining spans: %w", drainErr)
	}
	l.set("trace.overhead_pct", overheadPct(plain, plainT, len(traces), tracedT), len(traces))

	var handler, respond, queue, engine, transport []float64
	var wall, residual int64
	lost := 0
	for _, c := range traces {
		spans := lg[c.trace]
		if len(spans) != spansPerReq {
			lost++
			continue
		}
		b := breakdown(c, spans)
		wall += b.wall
		residual += b.residual
		transport = append(transport, us(b.transport))
		handler = append(handler, us(spans["handler"].DurNS))
		respond = append(respond, us(spans["respond"].DurNS))
		queue = append(queue, us(spans["queue"].DurNS))
		engine = append(engine, float64(spans["engine"].DurNS)/1e6)
	}
	if lost > 0 {
		fmt.Printf("spans: %d of %d traced requests lacked a complete span set\n", lost, len(traces))
	}
	l.setPercentile("rim.handler_us_p50", handler, 1, 2)
	l.setPercentile("rim.respond_us_p50", respond, 1, 2)
	l.setPercentile("rim.transport_us_p50", transport, 1, 2)
	l.setPercentile("queue.wait_us_p50", queue, 1, 2)
	l.setPercentile("queue.wait_us_p99", queue, 99, 100)
	l.setPercentile("engine.ms_p50", engine, 1, 2)
	l.setPercentile("engine.ms_p99", engine, 99, 100)
	if wall > 0 {
		l.set("trace.residual_pct", float64(residual)/float64(wall)*100, len(transport))
	}
	if err := writeChrome(tracePath(o), routeEvents(traces, lg)); err != nil {
		srv.stop()
		return nil, err
	}
	fmt.Printf("trace: %s\n", tracePath(o))

	var scrape []float64
	var size int
	for i := 0; i < 25; i++ {
		t := time.Now()
		b, err := srv.get("/metrics")
		if err != nil {
			srv.stop()
			return nil, err
		}
		scrape, size = append(scrape, ms(time.Since(t))), len(b)
	}
	l.set("obsv.scrape_ms", median(scrape), len(scrape))
	l.set("obsv.scrape_kb", float64(size)/1024, len(scrape))

	r.endSession(srv)
	r.checkReplays(eng)
	r.replayLayers(l, eng)
	return l, nil
}

// counterPhase sends a fixed number of requests between two readings of
// /metrics, the server's MemStats and its CPU time, so every figure is a
// delta over exactly those requests. A back-to-back pair of MemStats reads
// before the phase measures what one read allocates; that is subtracted.
func (r *routeRun) counterPhase(srv *server, l ledger) error {
	c0, _, err := srv.scrapeCounters()
	if err != nil {
		return err
	}
	m0a, err := srv.memStats()
	if err != nil {
		return err
	}
	m0, err := srv.memStats()
	if err != nil {
		return err
	}
	cpu0, err := procCPUSeconds(srv.pid())
	if err != nil {
		return err
	}
	for i := 0; i < r.w.counted; i++ {
		r.call(srv)
	}
	m1, err := srv.memStats()
	if err != nil {
		return err
	}
	cpu1, err := procCPUSeconds(srv.pid())
	if err != nil {
		return err
	}
	c1, _, err := srv.scrapeCounters()
	if err != nil {
		return err
	}
	d := delta(c0, c1)
	n, reqs := r.w.counted, float64(r.w.counted)
	mem := func(k string) float64 { return (m1[k] - m0[k]) - (m0[k] - m0a[k]) }
	l.set("server.allocs_per_req", mem("Mallocs")/reqs, n)
	l.set("server.alloc_kb_per_req", mem("TotalAlloc")/1024/reqs, n)
	l.set("server.gc_per_1k_req", (m1["NumGC"]-m0["NumGC"])*1000/reqs, n)
	l.set("server.cpu_us_per_req", (cpu1-cpu0)*1e6/reqs, n)

	offered := d["fattree_messages_offered_total"]
	l.set("engine.cycles_per_req", d["fattree_cycles_total"]/reqs, n)
	l.set("engine.offers_per_req", offered/reqs, n)
	l.set("engine.retry_ratio", d["fattree_messages_retried_total"]/offered, n)
	l.set("engine.delivered_ratio", d["fattree_messages_delivered_total"]/offered, n)
	l.set("engine.ns_per_offer", d["fattree_request_duration_seconds_sum"]*1e9/offered, n)
	l.set("switch.requests_per_req", d["fattree_level_requests_total"]/reqs, n)
	l.set("switch.grant_ratio", d["fattree_level_grants_total"]/d["fattree_level_requests_total"], n)
	l.set("queue.rejected", d["fattree_requests_total"]-d["fattree_request_duration_cycles_count"], n)
	return nil
}

// replayLayers times the layers under the engine span in-process on the
// run's own inputs: the named-workload generator, MessageSet.Validate, a
// whole RunServe, and the first delivery cycle (RunCycle) of each set.
func (r *routeRun) replayLayers(l ledger, eng *fattree.Engine) {
	var body, build, validate, serve, cycle []float64
	tree := eng.Tree()
	eng.RunServe(r.reqs[0].ms) // warm the scratch arena
	for i := range r.reqs[:min(len(r.reqs), 1000)] {
		req := &r.reqs[i]
		body = append(body, float64(len(req.body))/1024)
		t := time.Now()
		fattree.RandomPermutation(r.w.n, req.seed)
		build = append(build, us(int64(time.Since(t))))
		t = time.Now()
		err := req.ms.Validate(tree)
		validate = append(validate, us(int64(time.Since(t))))
		r.tally.check(err == nil, "%s replay validate: %v", r.w.name, err)
		t = time.Now()
		eng.RunServe(req.ms)
		serve = append(serve, ms(time.Since(t)))
		t = time.Now()
		eng.RunCycle(req.ms)
		cycle = append(cycle, us(int64(time.Since(t))))
	}
	l.set("rim.body_kb_per_req", mean(body), len(body))
	l.setPercentile("workload.build_us", build, 1, 2)
	l.setPercentile("core.validate_us", validate, 1, 2)
	l.setPercentile("sim.serve_ms", serve, 1, 2)
	l.setPercentile("sim.cycle_us", cycle, 1, 2)
}
