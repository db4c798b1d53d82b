package obsv

import (
	"bufio"
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fattree/internal/core"
)

// tracedObserver records one small synthetic cycle with tracing enabled.
func tracedObserver(t *testing.T) *Observer {
	t.Helper()
	tr := core.NewUniversal(8, 4)
	o := New(tr)
	o.EnableTrace(128)
	m := core.Message{Src: 0, Dst: 5}
	o.CycleStart(2)
	o.Inject(0, m, tr.Leaf(0), 0)
	o.Defer(1, core.Message{Src: 1, Dst: 4}, tr.Leaf(1))
	o.Advance(0, m, 2, 2, int(core.Up), 1)
	o.Block(0, m, 1)
	o.Deliver(0, m, 2)
	o.CycleEnd(1, 0, 1)
	return o
}

func TestWriteChromeTraceParses(t *testing.T) {
	o := tracedObserver(t)
	var buf bytes.Buffer
	if err := o.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string `json:"name"`
			Phase string `json:"ph"`
			PID   int    `json:"pid"`
		} `json:"traceEvents"`
		DisplayTimeUnit string `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	phases := map[string]int{}
	names := map[string]int{}
	for _, e := range doc.TraceEvents {
		if e.PID != 1 {
			t.Fatalf("event %q pid = %d", e.Name, e.PID)
		}
		phases[e.Phase]++
		names[e.Name]++
	}
	// Metadata, one complete cycle slice, the counter series, and instants.
	if phases["M"] == 0 || phases["X"] != 1 || phases["C"] != 1 || phases["i"] == 0 {
		t.Fatalf("phase histogram = %v", phases)
	}
	if names["cycle 0"] != 1 {
		t.Fatalf("missing cycle slice: %v", names)
	}
}

func TestWriteJSONLRoundTrips(t *testing.T) {
	o := tracedObserver(t)
	var buf bytes.Buffer
	if err := o.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	var kinds []string
	for sc.Scan() {
		var e jsonlEvent
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		kinds = append(kinds, e.Kind)
	}
	want := []string{"cycle-start", "inject", "defer", "advance", "block", "deliver", "cycle-end"}
	if len(kinds) != len(want) {
		t.Fatalf("kinds = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("kinds = %v, want %v", kinds, want)
		}
	}
}

func TestExportersRequireTracing(t *testing.T) {
	o := New(core.NewUniversal(4, 2))
	var buf bytes.Buffer
	if err := o.WriteChromeTrace(&buf); err == nil {
		t.Fatal("WriteChromeTrace without tracing succeeded")
	}
	if err := o.WriteJSONL(&buf); err == nil {
		t.Fatal("WriteJSONL without tracing succeeded")
	}
	// Do without a ring is a silent no-op.
	o.Do(func(Event) { t.Fatal("Do visited an event with tracing disabled") })
}

func TestStartProfiles(t *testing.T) {
	base := filepath.Join(t.TempDir(), "prof")
	stop, err := StartProfiles("cpu,mem", base)
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, suffix := range []string{".cpu.pprof", ".mem.pprof"} {
		if _, err := os.Stat(base + suffix); err != nil {
			t.Fatalf("profile file %s: %v", suffix, err)
		}
	}

	if _, err := StartProfiles("bogus", base); err == nil ||
		!strings.Contains(err.Error(), "unknown profile kind") {
		t.Fatalf("unknown kind error = %v", err)
	}

	stop, err = StartProfiles("", base)
	if err != nil || stop == nil {
		t.Fatalf("empty spec: stop nil=%v err=%v", stop == nil, err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

func TestLevelOf(t *testing.T) {
	binary := New(core.NewConstant(8, 1))
	cases := map[int32]int{0: 0, 1: 0, 2: 1, 3: 1, 4: 2, 7: 2, 8: 3, 15: 3}
	for v, want := range cases {
		if got := binary.eventLevel(v); got != want {
			t.Fatalf("binary eventLevel(%d) = %d, want %d", v, got, want)
		}
	}
	// A 3x4 k-ary tree numbers its 3 switches 2..4 and its leaves 5..16.
	kary := New(core.NewKary(core.KaryDesc{Down: []int{3, 4}, Up: []int{2, 1}, Parallel: []int{1, 1}}))
	cases = map[int32]int{0: 0, 1: 0, 2: 1, 4: 1, 5: 2, 8: 2, 16: 2}
	for v, want := range cases {
		if got := kary.eventLevel(v); got != want {
			t.Fatalf("k-ary eventLevel(%d) = %d, want %d", v, got, want)
		}
	}
}
