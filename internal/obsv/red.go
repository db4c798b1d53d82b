package obsv

import (
	"io"
	"strconv"
	"sync"
)

// This file implements the per-tenant RED (rate, errors, duration)
// instruments of the serving daemon. Each tenant of cmd/ftserve owns one RED
// block; the tenant's own loop updates it as it processes the tenant's
// requests in arrival order, so the deterministic members — request and
// error counts and the duration-in-cycles histogram — depend only on that
// request sequence, exactly like the engine counters. The wall-clock members (duration and queue wait in
// seconds) are real time and deliberately excluded from REDEqual.
//
// Exemplars: every histogram bucket keeps the trace ID and raw value of the
// last observation that landed in it, emitted in the OpenMetrics exemplar
// syntax (`... # {trace_id="..."} value`) so a dashboard's latency bucket
// links straight to a span trace. The slots are fixed arrays sized at
// construction — updating one is two stores, no allocation.

// Exemplar is one histogram bucket's pinned example observation. Trace 0
// means the bucket has seen no observation.
type Exemplar struct {
	Trace uint64
	Value int64
}

// RED duration-bucket shapes: cycles share the engine's latency scale;
// wall-clock durations and queue waits are microseconds from 1µs to ~33s.
var (
	redCyclesBounds = log2Bounds(16) // 1 .. 65536 cycles
	redMicrosBounds = log2Bounds(25) // 1µs .. ~33.5s
)

// RED is one tenant's request instrument block. Safe for concurrent use; all
// methods are allocation-free after NewRED.
type RED struct {
	mu        sync.Mutex
	requests  int64
	errors    int64
	queueDep  int64
	queuePeak int64
	durCycles Hist       // delivery cycles per request (deterministic)
	durMicros Hist       // wall-clock request duration, µs
	waitMicro Hist       // bounded-queue wait, µs
	cyclesEx  []Exemplar // per durCycles bucket, incl. overflow
	microsEx  []Exemplar // per durMicros bucket, incl. overflow
}

// NewRED returns a fresh instrument block.
func NewRED() *RED {
	r := &RED{
		durCycles: NewHist(redCyclesBounds),
		durMicros: NewHist(redMicrosBounds),
		waitMicro: NewHist(redMicrosBounds),
	}
	r.cyclesEx = make([]Exemplar, r.durCycles.NumBuckets())
	r.microsEx = make([]Exemplar, r.durMicros.NumBuckets())
	return r
}

// ObserveRequest records one completed request: its delivery-cycle count,
// wall-clock duration in microseconds, trace ID (pinned as the exemplar of
// the buckets the observation lands in), and whether it failed.
//
//ftlint:hotpath
func (r *RED) ObserveRequest(cycles, durMicros int64, trace uint64, failed bool) {
	r.mu.Lock()
	r.requests++
	if failed {
		r.errors++
	}
	r.cyclesEx[r.durCycles.ObserveIdx(cycles)] = Exemplar{trace, cycles}
	r.microsEx[r.durMicros.ObserveIdx(durMicros)] = Exemplar{trace, durMicros}
	r.mu.Unlock()
}

// RejectRequest records one request refused at admission (bounded queue
// full, 429): counted as a request and an error, with no duration.
//
//ftlint:hotpath
func (r *RED) RejectRequest() {
	r.mu.Lock()
	r.requests++
	r.errors++
	r.mu.Unlock()
}

// QueueEnter records a request entering the tenant's bounded queue.
//
//ftlint:hotpath
func (r *RED) QueueEnter() {
	r.mu.Lock()
	r.enter()
	r.mu.Unlock()
}

// Enqueue sends v on the tenant's queue q unless q is full, and reports
// whether it did. It records the entry under the lock QueueExit takes, so
// a consumer that receives v at once cannot record its exit first and the
// depth gauge never reads below zero.
//
//ftlint:hotpath
func Enqueue[T any](r *RED, q chan<- T, v T) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	select {
	case q <- v:
		r.enter()
		return true
	default:
		return false
	}
}

func (r *RED) enter() {
	r.queueDep++
	if r.queueDep > r.queuePeak {
		r.queuePeak = r.queueDep
	}
}

// QueueExit records a request leaving the queue after waiting waitMicros.
//
//ftlint:hotpath
func (r *RED) QueueExit(waitMicros int64) {
	r.mu.Lock()
	r.queueDep--
	r.waitMicro.Observe(waitMicros)
	r.mu.Unlock()
}

// REDSnap is a point-in-time copy of one RED block.
type REDSnap struct {
	Requests, Errors      int64
	QueueDepth, QueuePeak int64
	DurationCycles        HistSnap
	DurationMicros        HistSnap
	QueueWaitMicros       HistSnap
	CyclesExemplars       []Exemplar
	MicrosExemplars       []Exemplar
}

// Snapshot returns a consistent copy of the block.
func (r *RED) Snapshot() REDSnap {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := REDSnap{
		Requests: r.requests, Errors: r.errors,
		QueueDepth: r.queueDep, QueuePeak: r.queuePeak,
		DurationCycles:  r.durCycles.Snap(),
		DurationMicros:  r.durMicros.Snap(),
		QueueWaitMicros: r.waitMicro.Snap(),
		CyclesExemplars: append([]Exemplar(nil), r.cyclesEx...),
		MicrosExemplars: append([]Exemplar(nil), r.microsEx...),
	}
	return s
}

// REDEqual reports whether two blocks agree on their deterministic members:
// request and error counts and the duration-in-cycles histogram. Wall-clock
// histograms and exemplars are excluded — they depend on real time, not on
// the request sequence.
func REDEqual(a, b *RED) bool {
	a.mu.Lock()
	defer a.mu.Unlock()
	b.mu.Lock()
	defer b.mu.Unlock()
	return a.requests == b.requests && a.errors == b.errors &&
		histEqual(&a.durCycles, &b.durCycles)
}

// LabeledRED pairs a RED snapshot with the label set identifying its tenant.
type LabeledRED struct {
	Labels []PromLabel
	Snap   REDSnap
}

// The request-path metric families, in exposition order.
var redFamilies = []promFamily{
	{"fattree_requests_total", "counter", "Requests received, per tenant (including rejected)."},
	{"fattree_request_errors_total", "counter", "Requests that failed: rejected at admission, stalled, or invalid."},
	{"fattree_request_queue_depth", "gauge", "Requests currently waiting in the tenant's bounded queue."},
	{"fattree_request_queue_depth_peak", "gauge", "Peak bounded-queue occupancy since start."},
	{"fattree_request_duration_cycles", "histogram", "Delivery cycles per request (deterministic across worker counts)."},
	{"fattree_request_duration_seconds", "histogram", "Wall-clock request duration from dequeue to delivery."},
	{"fattree_request_queue_wait_seconds", "histogram", "Wall-clock wait in the tenant's bounded queue."},
}

// WriteREDPrometheus writes the per-tenant request families as Prometheus
// text exposition, one HELP/TYPE header per family followed by every
// tenant's samples. Wall-clock histograms are recorded in microseconds and
// exposed in seconds (le bounds scaled by 1e-6); duration histograms carry
// OpenMetrics exemplars with the bucket's last trace ID.
func WriteREDPrometheus(w io.Writer, tenants ...LabeledRED) error {
	for _, fam := range redFamilies {
		if _, err := io.WriteString(w, "# HELP "+fam.name+" "+fam.help+"\n# TYPE "+fam.name+" "+fam.typ+"\n"); err != nil {
			return err
		}
		for _, t := range tenants {
			var err error
			switch fam.name {
			case "fattree_requests_total":
				err = writeSample(w, fam.name, t.Labels, nil, float64(t.Snap.Requests))
			case "fattree_request_errors_total":
				err = writeSample(w, fam.name, t.Labels, nil, float64(t.Snap.Errors))
			case "fattree_request_queue_depth":
				err = writeSample(w, fam.name, t.Labels, nil, float64(t.Snap.QueueDepth))
			case "fattree_request_queue_depth_peak":
				err = writeSample(w, fam.name, t.Labels, nil, float64(t.Snap.QueuePeak))
			case "fattree_request_duration_cycles":
				err = writeExemplarHistogram(w, fam.name, t.Labels, t.Snap.DurationCycles, t.Snap.CyclesExemplars, 1)
			case "fattree_request_duration_seconds":
				err = writeExemplarHistogram(w, fam.name, t.Labels, t.Snap.DurationMicros, t.Snap.MicrosExemplars, 1e-6)
			case "fattree_request_queue_wait_seconds":
				err = writeExemplarHistogram(w, fam.name, t.Labels, t.Snap.QueueWaitMicros, nil, 1e-6)
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// writeExemplarHistogram writes one histogram with le bounds (and exemplar
// values) scaled by scale, attaching each bucket's exemplar when present.
// exemplars may be nil (no exemplars) or one slot per bucket including the
// overflow bucket, which annotates le="+Inf".
func writeExemplarHistogram(w io.Writer, name string, labels []PromLabel, h HistSnap, exemplars []Exemplar, scale float64) error {
	bucket := func(le string, cum float64, ex Exemplar) error {
		l := PromLabel{"le", le}
		if ex.Trace == 0 {
			return writeSample(w, name+"_bucket", labels, &l, cum)
		}
		return writeExemplarSample(w, name+"_bucket", labels, &l, cum, ex, scale)
	}
	exAt := func(i int) Exemplar {
		if i < len(exemplars) {
			return exemplars[i]
		}
		return Exemplar{}
	}
	cum := int64(0)
	for i, b := range h.Bounds {
		cum += h.Counts[i]
		le := strconv.FormatFloat(float64(b)*scale, 'g', -1, 64)
		if scale == 1 {
			le = strconv.FormatInt(b, 10)
		}
		if err := bucket(le, float64(cum), exAt(i)); err != nil {
			return err
		}
	}
	if err := bucket("+Inf", float64(h.Count), exAt(len(h.Bounds))); err != nil {
		return err
	}
	if err := writeSample(w, name+"_sum", labels, nil, float64(h.Sum)*scale); err != nil {
		return err
	}
	return writeSample(w, name+"_count", labels, nil, float64(h.Count))
}
