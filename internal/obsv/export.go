package obsv

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// This file exports the event ring to the two interchange formats the
// tooling ecosystem reads: the Chrome trace_event JSON format (load the file
// in chrome://tracing or ui.perfetto.dev) and a JSONL stream (one event per
// line, for jq/scripts).
//
// Chrome trace mapping: the trace clock is synthetic — delivery cycle c
// occupies the microsecond interval [c·1000, (c+1)·1000) — so zooming shows
// cycles as fixed-width slices. Each cycle is a complete ("X") slice on the
// "delivery cycles" track; flight events are instants ("i") on one track per
// tree level (the level of the switch that handled the flight); and the
// per-cycle delivered/dropped counts are counter ("C") series, which the
// viewer renders as a load graph.

// cycleSpan is the synthetic trace-clock width of one delivery cycle in
// microseconds.
const cycleSpan = 1000

// chromeEvent is one trace_event record. Only the fields the viewer needs
// are emitted.
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    int64          `json:"ts"`
	Dur   int64          `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// chromeTrace is the top-level trace_event JSON object.
type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// eventLevel returns the tree level of event node v (root = 0), folded
// through the observer's level geometry; injection and deferral events at
// leaves report the leaf level.
func (o *Observer) eventLevel(v int32) int {
	if v <= 0 {
		return 0
	}
	return o.lvl(int(v))
}

// WriteChromeTrace exports the observer's buffered events as Chrome
// trace_event JSON. The counters need not be complete — the ring may have
// overwritten early events — but cycle slices are emitted only for cycles
// whose start event survives.
func (o *Observer) WriteChromeTrace(w io.Writer) error {
	if o.ring == nil {
		return fmt.Errorf("obsv: tracing is not enabled (call EnableTrace before the run)")
	}
	events := []chromeEvent{
		{Name: "process_name", Phase: "M", PID: 1,
			Args: map[string]any{"name": "fat-tree delivery engine"}},
		{Name: "thread_name", Phase: "M", PID: 1, TID: 0,
			Args: map[string]any{"name": "delivery cycles"}},
	}
	for level := 0; level <= o.levels; level++ {
		events = append(events, chromeEvent{
			Name: "thread_name", Phase: "M", PID: 1, TID: level + 1,
			Args: map[string]any{"name": fmt.Sprintf("level %d switches", level)},
		})
	}

	// Pending cycle slice state: trace_event "X" slices need start + dur, so
	// a cycle opens at its EvCycleStart and closes at EvCycleEnd.
	openCycle := int64(-1)
	var openOffered int32
	seq := int64(0) // event index within the current cycle
	lastCycle := int64(-1)
	o.Do(func(e Event) {
		if e.Cycle != lastCycle {
			lastCycle = e.Cycle
			seq = 0
		}
		base := e.Cycle * cycleSpan
		// Instants inside a cycle spread over its span in ring order.
		ts := base + seq%cycleSpan
		seq++
		switch e.Kind {
		case EvCycleStart:
			openCycle, openOffered = e.Cycle, e.Count
		case EvCycleEnd:
			start := e.Cycle
			offered := openOffered
			if openCycle != e.Cycle { // start was overwritten; reconstruct
				offered = -1
			}
			events = append(events, chromeEvent{
				Name: fmt.Sprintf("cycle %d", e.Cycle), Phase: "X",
				TS: start * cycleSpan, Dur: cycleSpan, PID: 1, TID: 0,
				Args: map[string]any{"offered": offered, "delivered": e.Count},
			})
			events = append(events, chromeEvent{
				Name: "delivered", Phase: "C", TS: start * cycleSpan, PID: 1,
				Args: map[string]any{"messages": e.Count},
			})
			openCycle = -1
		default:
			events = append(events, chromeEvent{
				Name: fmt.Sprintf("%s %d->%d", e.Kind, e.Src, e.Dst), Phase: "i",
				TS: ts, PID: 1, TID: o.eventLevel(e.Node) + 1, Scope: "t",
				Args: map[string]any{
					"node": e.Node, "flight": e.Flight, "wire": e.Wire,
				},
			})
		}
	})
	enc := json.NewEncoder(w)
	return enc.Encode(chromeTrace{TraceEvents: events, DisplayTimeUnit: "ms"})
}

// Do iterates the buffered events oldest-first; it is a no-op when tracing
// is disabled.
func (o *Observer) Do(fn func(Event)) {
	if o.ring != nil {
		o.ring.Do(fn)
	}
}

// jsonlEvent is the JSONL wire form of one event.
type jsonlEvent struct {
	Kind   string `json:"kind"`
	Cycle  int64  `json:"cycle"`
	Node   int32  `json:"node,omitempty"`
	Level  int    `json:"level"`
	Flight int32  `json:"flight"`
	Src    int32  `json:"src"`
	Dst    int32  `json:"dst"`
	Wire   int32  `json:"wire"`
	Count  int32  `json:"count,omitempty"`
}

// WriteJSONL exports the buffered events as one JSON object per line,
// oldest-first.
func (o *Observer) WriteJSONL(w io.Writer) error {
	if o.ring == nil {
		return fmt.Errorf("obsv: tracing is not enabled (call EnableTrace before the run)")
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	var err error
	o.ring.Do(func(e Event) {
		if err != nil {
			return
		}
		err = enc.Encode(jsonlEvent{
			Kind: e.Kind.String(), Cycle: e.Cycle, Node: e.Node,
			Level: o.eventLevel(e.Node), Flight: e.Flight,
			Src: e.Src, Dst: e.Dst, Wire: e.Wire, Count: e.Count,
		})
	})
	if err != nil {
		return err
	}
	return bw.Flush()
}
