package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"strings"
	"syscall"
	"time"

	"fattree"
)

// server is one running ftserve process in tenant mode and the single
// keep-alive client connection the benchmark drives it through.
type server struct {
	cmd    *exec.Cmd
	base   string
	client *http.Client
	eof    chan struct{} // closed once the process's stdout is drained
}

// startServer launches bin with args plus an ephemeral -addr and returns
// once ftserve prints its listening line (it is ready the moment the
// listener is up).
func startServer(bin string, args ...string) (*server, error) {
	cmd := exec.Command(bin, append(args, "-addr", "127.0.0.1:0")...)
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", bin, err)
	}
	first := make(chan string, 1)
	eof := make(chan struct{})
	go func() {
		defer close(eof)
		sc := bufio.NewScanner(stdout)
		if sc.Scan() {
			first <- sc.Text()
		}
		close(first)
		for sc.Scan() {
		}
	}()
	s := &server{cmd: cmd, eof: eof, client: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true},
		Timeout:   60 * time.Second,
	}}
	select {
	case line, ok := <-first:
		_, rest, found := strings.Cut(line, "http://")
		addr, _, _ := strings.Cut(rest, " ")
		if ok && found && addr != "" {
			s.base = "http://" + addr
			return s, nil
		}
		s.stop()
		return nil, fmt.Errorf("ftserve did not report a listen address (got %q)", line)
	case <-time.After(60 * time.Second):
		s.stop()
		return nil, fmt.Errorf("ftserve did not start within 60s")
	}
}

// stop asks the server to drain and exit (SIGTERM), kills it if it has not
// exited within ten seconds, and waits for the process either way.
func (s *server) stop() {
	s.client.CloseIdleConnections()
	if err := s.cmd.Process.Signal(syscall.SIGTERM); err == nil {
		select {
		case <-s.eof:
		case <-time.After(10 * time.Second):
			_ = s.cmd.Process.Kill() // already exited, or about to be reaped below
		}
	} else {
		_ = s.cmd.Process.Kill() // the signal failed, so the process is gone or unsignalable
	}
	<-s.eof
	_ = s.cmd.Wait() // a SIGTERM or SIGKILL exit status is the expected outcome here
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// routeResp mirrors the fields of ftserve's /v1/route response that the
// benchmark checks.
type routeResp struct {
	TraceID   string `json:"trace_id"`
	Tenant    string `json:"tenant"`
	Messages  int    `json:"messages"`
	Delivered int    `json:"delivered"`
	Cycles    int    `json:"cycles"`
	Drops     int    `json:"drops"`
	Deferrals int    `json:"deferrals"`
	Error     string `json:"error"`
}

// stamps are one request's client-side timestamps, nanoseconds since the
// benchmark's epoch: sent, response body fully read, response decoded.
type stamps struct{ sent, read, done int64 }

// route posts one /v1/route body and decodes the response.
func (s *server) route(body []byte, clock func() int64) (routeResp, int, stamps, error) {
	var st stamps
	var rr routeResp
	st.sent = clock()
	resp, err := s.client.Post(s.base+"/v1/route", "application/json", bytes.NewReader(body))
	if err != nil {
		return rr, 0, st, err
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	st.read = clock()
	if err != nil {
		return rr, resp.StatusCode, st, err
	}
	err = json.Unmarshal(b, &rr)
	st.done = clock()
	return rr, resp.StatusCode, st, err
}

// get fetches one endpoint and returns its body; non-200 is an error.
func (s *server) get(path string) ([]byte, error) {
	resp, err := s.client.Get(s.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return b, nil
}

// scrapeCounters fetches /metrics, validates it with the repository's own
// exposition parser, and sums its samples.
func (s *server) scrapeCounters() (counters, int, error) {
	b, err := s.get("/metrics")
	if err != nil {
		return nil, 0, err
	}
	samples, err := fattree.ParsePromExposition(b)
	if err != nil {
		return nil, len(b), fmt.Errorf("/metrics rejected by ParsePromExposition: %w", err)
	}
	return sumCounters(samples), len(b), nil
}

// memStats fetches the server's runtime.MemStats via the pprof handler.
func (s *server) memStats() (map[string]float64, error) {
	b, err := s.get("/debug/pprof/allocs?debug=1")
	if err != nil {
		return nil, err
	}
	m := parseMemStats(string(b))
	if _, ok := m["Mallocs"]; !ok {
		return nil, fmt.Errorf("allocs profile carries no MemStats block")
	}
	return m, nil
}
