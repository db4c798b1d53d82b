package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"strings"
)

// metricSpec is one end-to-end metric of BENCHMARK.json: which way is
// better, and the share by which a change may be worse before the gate
// refuses it.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "higher" or "lower"
	Bound  float64 `json:"bound"`
}

// benchDecl is what the driver reads of a BENCHMARK.json file: the run
// length every run uses, and the end-to-end metrics.
type benchDecl struct {
	RunSeconds float64      `json:"run_seconds"`
	EndToEnd   []metricSpec `json:"end_to_end"`
}

// readDecl reads and checks a BENCHMARK.json file.
func readDecl(path string) (benchDecl, error) {
	var d benchDecl
	b, err := os.ReadFile(path)
	if err != nil {
		return d, err
	}
	if err := json.Unmarshal(b, &d); err != nil {
		return d, fmt.Errorf("%s: %w", path, err)
	}
	if d.RunSeconds <= 0 {
		return d, fmt.Errorf("%s: run_seconds is %v, want > 0", path, d.RunSeconds)
	}
	if len(d.EndToEnd) == 0 {
		return d, fmt.Errorf("%s lists no end_to_end metrics", path)
	}
	for _, s := range d.EndToEnd {
		if s.Better != "higher" && s.Better != "lower" {
			return d, fmt.Errorf("%s: metric %s: better is %q, want higher or lower", path, s.Name, s.Better)
		}
	}
	return d, nil
}

// result is the last line a perfbench run prints.
type result struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// parseResult reads the result line (the last non-empty line) of a
// perfbench run's standard output, and refuses a run that was not correct
// or failed an operation.
func parseResult(out string) (result, error) {
	var r result
	lines := strings.Split(strings.TrimSpace(out), "\n")
	last := strings.TrimSpace(lines[len(lines)-1])
	if err := json.Unmarshal([]byte(last), &r); err != nil {
		return r, fmt.Errorf("no result line (last line %q): %w", last, err)
	}
	if !r.Correct || r.Failed != 0 {
		return r, fmt.Errorf("run not correct: correct=%v attempted=%d failed=%d", r.Correct, r.Attempted, r.Failed)
	}
	return r, nil
}

// summary is one metric over k pairs of runs: base (A) and change (B).
type summary struct {
	spec   metricSpec
	ratios []float64 // change / base, pair by pair
	wins   int       // pairs in which the change is better

	baseMedian, baseQ1, baseQ3 float64
	changeMedian               float64

	// gain is the change's median advantage in the metric's unit, positive
	// when it is better; exceedsIQR reports gain > baseQ3 - baseQ1.
	gain       float64
	exceedsIQR bool
	// withinBound reports that the change's median is not worse than the
	// base median by more than the metric's bound (a share of the base).
	withinBound bool
}

// summarize compares base[i] with change[i], pair by pair. A pair is a win
// when the change is strictly better. Quartiles are linear interpolations
// between order statistics (quantile).
func summarize(spec metricSpec, base, change []float64) summary {
	if len(base) != len(change) || len(base) == 0 {
		panic("ftbenchpair: summarize needs the same positive number of base and change runs")
	}
	s := summary{spec: spec}
	sign := 1.0
	if spec.Better == "lower" {
		sign = -1
	}
	for i := range base {
		s.ratios = append(s.ratios, change[i]/base[i])
		if sign*(change[i]-base[i]) > 0 {
			s.wins++
		}
	}
	sb, sc := slices.Clone(base), slices.Clone(change)
	slices.Sort(sb)
	slices.Sort(sc)
	s.baseMedian, s.baseQ1, s.baseQ3 = quantile(sb, 0.5), quantile(sb, 0.25), quantile(sb, 0.75)
	s.changeMedian = quantile(sc, 0.5)
	s.gain = sign * (s.changeMedian - s.baseMedian)
	s.exceedsIQR = s.gain > s.baseQ3-s.baseQ1
	s.withinBound = -s.gain <= spec.Bound*math.Abs(s.baseMedian)
	return s
}

// quantile returns the q-quantile of an ascending sample by linear
// interpolation between the order statistics at positions q·(len-1).
func quantile(sorted []float64, q float64) float64 {
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// writeSummary prints one block per metric: the pair ratios, the change's
// wins, the base median and quartiles, the change median, and the gain
// against the base's interquartile range.
func writeSummary(w io.Writer, sums []summary) error {
	for _, s := range sums {
		ratios := make([]string, len(s.ratios))
		for i, r := range s.ratios {
			ratios[i] = fmt.Sprintf("%.3f", r)
		}
		iqr := "gain <= base IQR"
		if s.exceedsIQR {
			iqr = "gain > base IQR"
		}
		bound := "within bound"
		if !s.withinBound {
			bound = fmt.Sprintf("WORSE than the %.0f%% bound", 100*s.spec.Bound)
		}
		if _, err := fmt.Fprintf(w,
			"%s (%s, %s is better)\n  ratios change/base: %s\n  change wins %d of %d pairs\n"+
				"  base median %.4g [q1 %.4g, q3 %.4g, IQR %.4g]; change median %.4g; gain %+.4g (%+.1f%%): %s, %s\n",
			s.spec.Name, s.spec.Unit, s.spec.Better, strings.Join(ratios, " "), s.wins, len(s.ratios),
			s.baseMedian, s.baseQ1, s.baseQ3, s.baseQ3-s.baseQ1, s.changeMedian,
			s.gain, 100*s.gain/math.Abs(s.baseMedian), iqr, bound); err != nil {
			return err
		}
	}
	return nil
}
