package main

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"time"
)

// minBeyond is the percentile rule: a percentile is reported only when at
// least this many samples lie above it, so p99 needs 1000 samples.
const minBeyond = 10

// percentile returns the nearest-rank num/den quantile of sorted (ascending)
// and whether at least minBeyond samples lie beyond it. Integer ranks keep
// p99 of exactly 1000 samples from flipping on float rounding.
func percentile(sorted []float64, num, den int) (float64, bool) {
	n := len(sorted)
	if n == 0 {
		return 0, false
	}
	rank := (n*num + den - 1) / den
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1], n-rank >= minBeyond
}

// median is the middle of xs (the mean of the two middles for an even
// count), for small sets such as one value per server start.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// mean is the arithmetic mean of xs.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// An untraced run times `sessions` quiet sessions. A session whose timed
// window lost more than maxSteal of the benchmark CPU's time to steal (the
// hypervisor running another guest on it) is noisy: it is replaced by a
// fresh session and not timed. After maxSessions sessions the run times
// the quiet ones it has, and fails rather than report figures from a loaded
// host when fewer than a quarter of `sessions` were quiet.
const (
	sessions    = 16
	maxSessions = 24
	maxSteal    = 0.01
)

// session is one fresh process's share of an untraced run.
type session struct {
	lat          []float64 // latency samples, ms
	rps          float64
	steal        float64 // share of the timed window stolen from the benchmark's CPU
	setup, hwmMB float64
}

// newSession summarizes a session from its latencies (ms), its timed
// window and the steal over it (s), its set-up time (s) and peak RSS (MiB).
func newSession(lat []float64, window, steal, setup, hwmMB float64) session {
	return session{lat: lat, rps: float64(len(lat)) / window, steal: steal / window, setup: setup, hwmMB: hwmMB}
}

func (ss session) quiet() bool { return ss.steal <= maxSteal }

// sessionSet accumulates an untraced run's sessions.
type sessionSet []session

// runSessions calls run until it has returned `sessions` quiet sessions or
// maxSessions in all. Each call is passed the index of the quiet session it
// is to fill, so a replacement reuses the inputs of the session it replaces.
func runSessions(run func(slice int) (session, error)) (sessionSet, error) {
	var set sessionSet
	quiet := 0
	for quiet < sessions && len(set) < maxSessions {
		ss, err := run(quiet)
		if err != nil {
			return nil, err
		}
		set = append(set, ss)
		tag := "quiet"
		if ss.quiet() {
			quiet++
		} else {
			tag = "noisy, not timed"
		}
		lat := sorted(ss.lat)
		p50, _ := percentile(lat, 1, 2)
		p99, _ := percentile(lat, 99, 100)
		fmt.Printf("session %d: setup %.4f s, %.1f/s, p50 %.4f ms, p99 %.4f ms, peak %.1f MiB, steal %.2f%% (%s)\n",
			len(set), ss.setup, ss.rps, p50, p99, ss.hwmMB, ss.steal*100, tag)
	}
	if quiet < sessions/4 {
		return nil, fmt.Errorf("host too noisy: %d of %d sessions lost over %.0f%% of their window to steal",
			len(set)-quiet, len(set), maxSteal*100)
	}
	return set, nil
}

// ledger reports the end-to-end metrics. Each timing is the median of the
// best quarter of the quiet sessions' own figures: their throughputs, and
// their p50s and p99s, each over that session's samples alone. Another
// tenant's load on the host only ever slows a session, so the best
// sessions are the ones that reflect the code, and a slowdown that spares
// a quarter of the run cannot move the result. Pooling the samples of
// several sessions instead let one session's slow tail set the p99. A
// session with fewer than the 1000 samples a p99 needs ranks last for p99,
// and p99 is reported only when the best quarter holds none such.
// Set-up time is the median over every session. Peak RSS is the mean: a
// session's GC either has or has not run before its allocation peak, so
// readings fall in two clusters a few MiB apart, and a median would jump
// between them.
func (s sessionSet) ledger() ledger {
	var rps, p50, p99, setups, hwm []float64
	samples := 0
	for _, ss := range s {
		setups, hwm = append(setups, ss.setup), append(hwm, ss.hwmMB)
		if !ss.quiet() {
			continue
		}
		lat := sorted(ss.lat)
		v50, _ := percentile(lat, 1, 2)
		v99, ok := percentile(lat, 99, 100)
		if !ok {
			v99 = math.Inf(1) // too short for a p99: ranks last
		}
		rps, p50, p99 = append(rps, ss.rps), append(p50, v50), append(p99, v99)
		samples += len(lat)
	}
	l := ledger{}
	l.set("throughput_rps", bestQuarter(rps, true), samples)
	l.set("latency_p50_ms", bestQuarter(p50, false), samples)
	if v := bestQuarter(p99, false); !math.IsInf(v, 1) {
		l.set("latency_p99_ms", v, samples)
	}
	l.set("setup_s", median(setups), len(setups))
	l.set("mem_peak_mb", mean(hwm), len(hwm))
	return l
}

// bestQuarter is the median of the best quarter (rounded up) of xs: the
// highest values when higher is better, else the lowest.
func bestQuarter(xs []float64, higherIsBetter bool) float64 {
	s := sorted(xs)
	if higherIsBetter {
		slices.Reverse(s)
	}
	return median(s[:(len(s)+3)/4])
}

// interval is a half-open [Start, End) stretch of one clock, in nanoseconds.
type interval struct{ Start, End int64 }

// unionLen is the length of the union of ivs: overlapping or nested
// intervals count once.
func unionLen(ivs []interval) int64 {
	s := append([]interval(nil), ivs...)
	sort.Slice(s, func(i, j int) bool { return s[i].Start < s[j].Start })
	var total int64
	var cur interval
	open := false
	for _, iv := range s {
		if iv.End <= iv.Start {
			continue
		}
		if open && iv.Start <= cur.End {
			cur.End = max(cur.End, iv.End)
			continue
		}
		if open {
			total += cur.End - cur.Start
		}
		cur, open = iv, true
	}
	if open {
		total += cur.End - cur.Start
	}
	return total
}

// selfTime is a span's duration minus the part its children cover, never
// below zero. Children recorded on another clock are passed as their covered
// length (their own unionLen), which is clock-independent.
func selfTime(dur int64, covered ...int64) int64 {
	for _, c := range covered {
		dur -= c
	}
	return max(dur, 0)
}

// seconds converts float seconds to a duration.
func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// ms, us convert a duration to float milliseconds / microseconds.
func ms(d time.Duration) float64 { return float64(d) / 1e6 }
func us(ns int64) float64        { return float64(ns) / 1e3 }
