package obsv

import (
	"fmt"
	"io"
)

// This file is the live-read side of the observability layer. An Observer is
// driven by exactly one simulation goroutine, but a telemetry consumer (the
// ftserve /metrics handler, a progress printer) needs to read it *while the
// run is in flight*. Snapshot is that read: it takes the observer's mutex —
// which recording holds from CycleStart to CycleEnd — and deep-copies every
// counter and histogram, so the result is immutable, owned by the caller,
// and consistent at a delivery-cycle boundary (the conservation law
// Offered == Delivered + Dropped + Deferred holds in every snapshot).
// Latency observations for a cycle are batched just after it, so a snapshot
// taken in that window may trail Delivered by at most one cycle's worth of
// latency samples.

// HistSnap is an immutable copy of one histogram: per-bucket (non-
// cumulative) counts under inclusive upper bounds, plus the overflow count
// (Counts has one more entry than Bounds).
type HistSnap struct {
	Bounds []int64 `json:"bounds"`
	Counts []int64 `json:"counts"`
	Count  int64   `json:"count"`
	Sum    int64   `json:"sum"`
}

// Snap returns an immutable copy of the histogram.
func (h *Hist) Snap() HistSnap {
	return HistSnap{
		Bounds: append([]int64(nil), h.bounds...),
		Counts: append([]int64(nil), h.counts...),
		Count:  h.total,
		Sum:    h.sum,
	}
}

// Quantile returns the smallest bucket upper bound covering at least
// q·Count observations; ok is false on an empty histogram or when the
// quantile falls in the overflow bucket.
func (s HistSnap) Quantile(q float64) (int64, bool) {
	return quantile(s.Bounds, s.Counts, s.Count, q)
}

// Sub returns the bucket-wise difference s - prev (observations recorded
// after prev was taken). Both snapshots must come from the same histogram.
func (s HistSnap) Sub(prev HistSnap) HistSnap {
	if len(s.Bounds) != len(prev.Bounds) {
		panic("obsv: HistSnap.Sub of snapshots with different bucket layouts")
	}
	d := HistSnap{
		Bounds: append([]int64(nil), s.Bounds...),
		Counts: make([]int64, len(s.Counts)),
		Count:  s.Count - prev.Count,
		Sum:    s.Sum - prev.Sum,
	}
	for i := range s.Counts {
		d.Counts[i] = s.Counts[i] - prev.Counts[i]
	}
	return d
}

// Snapshot is an immutable, deep-copied view of an Observer at one moment:
// the full counter block, the four histogram groups, and the per-level
// aggregation. Take one with Observer.Snapshot; diff two with Sub.
type Snapshot struct {
	Counters    Counters       `json:"counters"`
	Latency     HistSnap       `json:"latency_cycles"`
	MatchRounds HistSnap       `json:"match_rounds"`
	QueueDepth  HistSnap       `json:"queue_depth"`
	LevelUtil   []HistSnap     `json:"level_utilization_permille"`
	PerLevel    []LevelSummary `json:"per_level"`
}

// Snapshot returns an immutable copy of the observer's counters, histograms,
// and per-level aggregates. It is safe to call from any goroutine while a
// run is in flight: recording holds the observer's mutex from CycleStart to
// CycleEnd, so the copy always lands on a delivery-cycle boundary.
func (o *Observer) Snapshot() Snapshot {
	o.mu.Lock()
	defer o.mu.Unlock()
	s := Snapshot{
		Counters:    copyCounters(&o.C),
		Latency:     o.hist.latency.Snap(),
		MatchRounds: o.hist.matchRounds.Snap(),
		QueueDepth:  o.hist.queueDepth.Snap(),
		LevelUtil:   make([]HistSnap, len(o.hist.levelUtil)),
		PerLevel:    o.PerLevel(),
	}
	for i := range o.hist.levelUtil {
		s.LevelUtil[i] = o.hist.levelUtil[i].Snap()
	}
	return s
}

// copyCounters deep-copies a counter block.
func copyCounters(c *Counters) Counters {
	out := *c
	out.WireUse = append([]int64(nil), c.WireUse...)
	out.Requests = append([]int64(nil), c.Requests...)
	out.Grants = append([]int64(nil), c.Grants...)
	out.Drops = append([]int64(nil), c.Drops...)
	out.MatchRounds = append([]int64(nil), c.MatchRounds...)
	out.Faults = append([]int64(nil), c.Faults...)
	out.Stalls = append([]int64(nil), c.Stalls...)
	out.QueuePeak = append([]int64(nil), c.QueuePeak...)
	out.LevelCycles = append([]int64(nil), c.LevelCycles...)
	out.LevelMessages = append([]int64(nil), c.LevelMessages...)
	return out
}

// Sub returns the difference s - prev: what happened between the two
// snapshots. Monotone counters and histogram buckets subtract element-wise;
// QueuePeak is a running maximum, not a counter, so the diff keeps s's
// values as the best available "peak since prev". Both snapshots must come
// from the same observer (same binding).
func (s Snapshot) Sub(prev Snapshot) Snapshot {
	d := Snapshot{
		Counters:    subCounters(&s.Counters, &prev.Counters),
		Latency:     s.Latency.Sub(prev.Latency),
		MatchRounds: s.MatchRounds.Sub(prev.MatchRounds),
		QueueDepth:  s.QueueDepth.Sub(prev.QueueDepth),
		LevelUtil:   make([]HistSnap, len(s.LevelUtil)),
		PerLevel:    make([]LevelSummary, len(s.PerLevel)),
	}
	if len(s.LevelUtil) != len(prev.LevelUtil) || len(s.PerLevel) != len(prev.PerLevel) {
		panic("obsv: Snapshot.Sub of snapshots from different observers")
	}
	for i := range s.LevelUtil {
		d.LevelUtil[i] = s.LevelUtil[i].Sub(prev.LevelUtil[i])
	}
	for i := range s.PerLevel {
		a, b := s.PerLevel[i], prev.PerLevel[i]
		row := a
		row.WireUse = a.WireUse - b.WireUse
		row.Requests = a.Requests - b.Requests
		row.Grants = a.Grants - b.Grants
		row.Drops = a.Drops - b.Drops
		row.MatchRounds = a.MatchRounds - b.MatchRounds
		row.Utilization = 0
		if cycles := d.Counters.Cycles; cycles > 0 && row.Wires > 0 {
			row.Utilization = float64(row.WireUse) / float64(cycles*2*row.Wires)
		}
		d.PerLevel[i] = row
	}
	return d
}

// subCounters subtracts two counter blocks element-wise; QueuePeak keeps a's
// values (see Snapshot.Sub).
func subCounters(a, b *Counters) Counters {
	out := copyCounters(a)
	out.Cycles -= b.Cycles
	out.Offered -= b.Offered
	out.Delivered -= b.Delivered
	out.Dropped -= b.Dropped
	out.Deferred -= b.Deferred
	out.Retried -= b.Retried
	for _, pair := range [][2][]int64{
		{out.WireUse, b.WireUse}, {out.Requests, b.Requests},
		{out.Grants, b.Grants}, {out.Drops, b.Drops},
		{out.MatchRounds, b.MatchRounds}, {out.Faults, b.Faults},
		{out.Stalls, b.Stalls},
		{out.LevelCycles, b.LevelCycles}, {out.LevelMessages, b.LevelMessages},
	} {
		if len(pair[0]) != len(pair[1]) {
			panic("obsv: Snapshot.Sub of snapshots from different observers")
		}
		for i := range pair[0] {
			pair[0][i] -= pair[1][i]
		}
	}
	return out
}

// WriteHistSummary renders the snapshot's histograms as a compact text
// report: one line of count/sum/quantiles per distribution, then the bucket
// row, then one utilization line per tree level. It backs `ftsim -hist`.
func (s Snapshot) WriteHistSummary(w io.Writer) error {
	write := func(name, unit string, h HistSnap) error {
		if _, err := fmt.Fprintf(w, "%-28s %s\n", name+":", quantileLine(h, unit)); err != nil {
			return err
		}
		if h.Count == 0 {
			return nil
		}
		_, err := fmt.Fprintf(w, "%-28s %s\n", "", bucketLine(h))
		return err
	}
	if err := write("delivery latency (cycles)", "cycles", s.Latency); err != nil {
		return err
	}
	if err := write("match rounds per contest", "rounds", s.MatchRounds); err != nil {
		return err
	}
	if err := write("buffered queue depth", "msgs", s.QueueDepth); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "per-level utilization (permille of capacity, per cycle):\n"); err != nil {
		return err
	}
	for level, h := range s.LevelUtil {
		if _, err := fmt.Fprintf(w, "  level %-2d                   %s\n", level, quantileLine(h, "permille")); err != nil {
			return err
		}
	}
	return nil
}

// quantileLine renders "count N sum S p50<=x p90<=y p99<=z" for one
// histogram, with overflow quantiles shown as >last-bound.
func quantileLine(h HistSnap, unit string) string {
	if h.Count == 0 {
		return "(no observations)"
	}
	q := func(p float64) string {
		v, ok := h.Quantile(p)
		if !ok {
			return fmt.Sprintf(">%d", h.Bounds[len(h.Bounds)-1])
		}
		return fmt.Sprintf("<=%d", v)
	}
	return fmt.Sprintf("count %d sum %d %s, p50%s p90%s p99%s max%s",
		h.Count, h.Sum, unit, q(0.50), q(0.90), q(0.99), q(1.0))
}

// bucketLine renders the non-empty buckets as "le=B:N ... +Inf:N".
func bucketLine(h HistSnap) string {
	out := ""
	for i, c := range h.Counts {
		if c == 0 {
			continue
		}
		if out != "" {
			out += " "
		}
		if i < len(h.Bounds) {
			out += fmt.Sprintf("le=%d:%d", h.Bounds[i], c)
		} else {
			out += fmt.Sprintf("+Inf:%d", c)
		}
	}
	if out == "" {
		return "(all buckets empty)"
	}
	return "buckets " + out
}
