package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"testing"
)

// routeStatuses is the documented status set of POST /v1/route: 200 served
// (for an NDJSON batch, once the body is read), 400 malformed or invalid,
// 404 unknown tenant, 413 a named workload over the per-request message
// cap, 422 delivery stalled, 429 tenant queue full, 503 draining.
var routeStatuses = map[int]bool{200: true, 400: true, 404: true, 413: true, 422: true, 429: true, 503: true}

// FuzzRouteHandler drives the real /v1/route mux in-process with fuzzed JSON
// and NDJSON bodies. After every input nothing has panicked, the status is
// in the documented set, every response body decodes, a served request
// delivered all its messages (ideal switches), and every tenant's engine
// counters obey the conservation law offered = delivered + dropped +
// deferred.
func FuzzRouteHandler(f *testing.F) {
	for _, seed := range []struct {
		ndjson bool
		body   string
	}{
		{false, `{"tenant":"alpha","workload":"perm","seed":7}`},
		{false, `{"tenant":"beta","workload":"random","k":32,"seed":3}`},
		{false, `{"tenant":"gamma","messages":[{"src":0,"dst":5},{"src":3,"dst":9},{"dst":1}]}`},
		{false, `{"tenant":"alpha","workload":"random","k":900000}`},
		{false, `{"tenant":"alpha","workload":"random","k":-1}`},
		{false, `{"tenant":"alpha","messages":[{"src":0,"dst":0}]}`},
		{false, `{"tenant":"alpha","messages":[{"src":99,"dst":1}]}`},
		{false, `{"tenant":"delta","workload":"perm"}`},
		{false, `{"tenant":"alpha","workload":"alltoall"}`},
		{false, `{"tenant":"alpha"}`},
		{false, `{"tenant":"alpha","workload":"perm","messages":[{"src":0,"dst":1}]}`},
		{false, `{"tenant":`},
		{false, `[1,2,3]`},
		{false, ``},
		{true, "{\"tenant\":\"alpha\",\"workload\":\"perm\"}\n{\"tenant\":\"beta\",\"workload\":\"bitrev\"}\n"},
		{true, "{\"tenant\":\"alpha\",\"workload\":\"random\",\"k\":16}\nnot json\n\n{\"tenant\":\"gamma\",\"messages\":[{\"src\":1,\"dst\":2}]}"},
		{true, "{\"tenant\":\"beta\",\"workload\":\"random\",\"k\":900000}\n{\"tenant\""},
	} {
		f.Add(seed.ndjson, []byte(seed.body))
	}
	srv := tenantServer(f)
	f.Fuzz(func(t *testing.T, ndjson bool, body []byte) {
		contentType := "application/json"
		if ndjson {
			contentType = "application/x-ndjson"
		}
		rec := post(t, srv, string(body), contentType)
		if !routeStatuses[rec.Code] {
			t.Fatalf("status %d not in the documented set: %s", rec.Code, rec.Body.String())
		}
		lines := [][]byte{rec.Body.Bytes()}
		if ndjson && rec.Code == 200 {
			lines = lines[:0]
			sc := bufio.NewScanner(bytes.NewReader(rec.Body.Bytes()))
			for sc.Scan() {
				lines = append(lines, bytes.Clone(sc.Bytes()))
			}
		}
		for _, line := range lines {
			var resp routeResp
			if err := json.Unmarshal(line, &resp); err != nil {
				t.Fatalf("response %q does not decode: %v", line, err)
			}
			if resp.Error == "" && resp.Delivered != resp.Messages {
				t.Fatalf("served request delivered %d of %d messages", resp.Delivered, resp.Messages)
			}
		}
		for _, tn := range srv.tenants {
			c := tn.obs.Snapshot().Counters
			if c.Offered != c.Delivered+c.Dropped+c.Deferred {
				t.Fatalf("tenant %s: conservation broken: offered %d != delivered %d + dropped %d + deferred %d",
					tn.name, c.Offered, c.Delivered, c.Dropped, c.Deferred)
			}
		}
	})
}
