package main

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// routeWireJSON is the request struct routeWire.decode stands for, decoded
// by encoding/json: the oracle of FuzzRouteWire.
type routeWireJSON struct {
	Tenant   string    `json:"tenant"`
	Workload string    `json:"workload,omitempty"`
	K        int       `json:"k,omitempty"`
	Seed     int64     `json:"seed,omitempty"`
	Messages []wireMsg `json:"messages,omitempty"`
}

// wireEdgeBodies are decoder edge cases beyond the handler corpus: key case
// and escapes, unknown fields, null, overflow, floats, repeated keys,
// escapes and invalid UTF-8 in values, and syntax errors.
var wireEdgeBodies = []string{
	`{"TENANT":"alpha","WorkLoad":"perm","Seed":-9223372036854775808}`,
	"{\"\\u0074enant\":\"al\\u0070ha\",\"\u212a\":3,\"\u017feed\":1}",
	`{"tenant":"alpha","extra":{"a":[1,2.5e-3,{"b":null}],"c":"\ud800x"},"k":7}`,
	`{"tenant":null,"workload":null,"k":null,"seed":null,"messages":null}`,
	`null`,
	` {"tenant":"alpha"} `,
	`{"tenant":"alpha"} x`,
	`{"k":9223372036854775807}`,
	`{"k":9223372036854775808}`,
	`{"seed":-9223372036854775809}`,
	`{"k":1.0}`,
	`{"k":1e2}`,
	`{"k":-0}`,
	`{"k":01}`,
	`{"k":"3"}`,
	`{"k":true}`,
	`{"tenant":5}`,
	`{"messages":{}}`,
	`{"messages":[1]}`,
	`{"messages":[{"src":"1"}]}`,
	`{"messages":[{"src":1,"dst":2},{"src":3,"dst":4},{"dst":5}],"messages":[{"dst":7},null]}`,
	`{"messages":[{"src":1,"dst":2},{"src":3,"dst":4}],"messages":[{"dst":7}],"messages":[{"src":8},null,{}]}`,
	`{"messages":[{"src":1,"dst":2}],"messages":[],"messages":[null,{"dst":3}]}`,
	`{"messages":[{"src":1,"dst":2}],"messages":null,"messages":[null]}`,
	`{"messages":[{"SRC":4,"Dst":6,"src":5,"x":[]}]}`,
	"{\"tenant\":\"a\\\"b\\\\c\\/d\\b\\f\\n\\r\\t\\u00e9\\ud83d\\ude00\\udc00\\ud800\\u0041\"}",
	"{\"tenant\":\"bad \xff\xfe utf8 \xed\xa0\x80\"}",
	"{\"tenant\":\"ctl \x01\"}",
	`{"tenant":"esc \x"}`,
	`{"tenant":"short \u12"}`,
	`{"tenant":"open`,
	`{"tenant":"alpha",}`,
	`{"tenant" "alpha"}`,
	`{,}`,
	`{"a":tru}`,
	`{"a":nul}`,
	`{"a":-}`,
	`{"a":1.}`,
	`{"a":1e}`,
	`"alpha"`,
	`7`,
}

// FuzzRouteWire holds the hand-written request decoder to encoding/json:
// for every body both accept or both reject, and an accepted body decodes to
// the same fields. One routeWire is reused across inputs, as the pooled
// requests reuse theirs.
func FuzzRouteWire(f *testing.F) {
	for _, seed := range routeHandlerSeeds {
		f.Add([]byte(seed.body))
		for _, line := range strings.Split(seed.body, "\n") {
			f.Add([]byte(line))
		}
	}
	for _, body := range wireEdgeBodies {
		f.Add([]byte(body))
	}
	var wire routeWire
	f.Fuzz(func(t *testing.T, body []byte) { checkWire(t, &wire, body) })
}

// TestRouteWireDepth checks encoding/json's nesting limit: 10000 open
// objects and arrays decode, 10001 do not.
func TestRouteWireDepth(t *testing.T) {
	var wire routeWire
	for _, depth := range []int{maxWireDepth - 1, maxWireDepth} {
		body := `{"a":` + strings.Repeat("[", depth) + strings.Repeat("]", depth) + `}`
		checkWire(t, &wire, []byte(body))
	}
	if err := wire.decode([]byte(`{"a":` + strings.Repeat("[", maxWireDepth) + `]}`)); err == nil {
		t.Fatal("decoded a body nested past the limit")
	}
}

// checkWire decodes body with wire and with encoding/json and fails unless
// both accept with the same fields or both reject.
func checkWire(t *testing.T, wire *routeWire, body []byte) {
	t.Helper()
	var want routeWireJSON
	jsonErr := json.Unmarshal(body, &want)
	err := wire.decode(body)
	if (err == nil) != (jsonErr == nil) {
		t.Fatalf("body %.200q: decode error %v, encoding/json error %v", body, err, jsonErr)
	}
	if err != nil {
		return
	}
	if string(wire.tenant) != want.Tenant || string(wire.workload) != want.Workload ||
		wire.k != want.K || wire.seed != want.Seed {
		t.Fatalf("body %q: decoded tenant %q workload %q k %d seed %d, encoding/json %+v",
			body, wire.tenant, wire.workload, wire.k, wire.seed, want)
	}
	if len(wire.messages) != len(want.Messages) {
		t.Fatalf("body %q: %d messages, encoding/json %d", body, len(wire.messages), len(want.Messages))
	}
	for i, m := range want.Messages {
		if wire.messages[i] != m {
			t.Fatalf("body %q: message %d is %+v, encoding/json %+v", body, i, wire.messages[i], m)
		}
	}
}

// FuzzRouteRespEncode holds the response encoder to json.Encoder byte for
// byte, including HTML escaping and invalid UTF-8 in the user-supplied text
// (tenant names and error messages quote request bytes).
func FuzzRouteRespEncode(f *testing.F) {
	add := func(text string) {
		f.Add(uint64(0x2a), "alpha", 64, 63, 3, 0, 1, int64(2), int64(65), text, 0)
	}
	for _, seed := range routeHandlerSeeds {
		add(seed.body)
	}
	for _, body := range wireEdgeBodies {
		add(body)
	}
	for _, text := range []string{
		"", "<script>&amp;</script>", "line\u2028sep\u2029par", "\x00\x1f\x7f\b\f\n\r\t",
		"bad \xff utf8 \xed\xa0\x80 \xe2\x82", "\u00e9\U0001f600\ufffd",
	} {
		add(text)
	}
	f.Add(uint64(0), "", 0, 0, 0, 0, 0, int64(0), int64(0), "", 0)
	f.Add(uint64(math.MaxUint64), "x<y", -1, math.MaxInt, math.MinInt, 1, -1, int64(math.MinInt64), int64(math.MaxInt64), "tenant queue full", 1)
	f.Fuzz(func(t *testing.T, trace uint64, tenant string, messages, delivered, cycles, drops, deferrals int,
		wait, dur int64, errText string, retry int) {
		resp := routeResp{
			TraceID: traceID(trace), Tenant: tenant, Messages: messages, Delivered: delivered,
			Cycles: cycles, Drops: drops, Deferrals: deferrals, QueueWaitUS: wait, DurationUS: dur,
			Error: errText, RetryAfterS: retry,
		}
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(resp); err != nil {
			t.Fatal(err)
		}
		if got := appendRouteResp(nil, &resp); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("encoded %q, json.Encoder %q", got, want.Bytes())
		}
	})
}
