package main

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"os"
	"time"

	"weaksim/internal/serve"
)

// stack is the in-process serving stack: one replica and the load
// generator's client.
type stack struct {
	srv     *serve.Server
	base    string // the replica's base URL
	client  *http.Client
	jobsDir string
}

// serverConfig is the configuration weaksimd ships with: its default
// normalization and every other field at its default. The two worker caps
// default to GOMAXPROCS when the server is built, which is 1 while the
// benchmark runs (oneP); they are set to the process's own GOMAXPROCS, the
// value weaksimd resolves them to on the same host.
func serverConfig() serve.Config {
	return serve.Config{Addr: "127.0.0.1:0", Norm: norm, SimWorkers: procs, MaxSampleWorkers: procs}
}

// startStack boots the replica and, when jobs is set, a durable job store
// on a temporary directory.
func startStack(jobs bool) (*stack, error) {
	// One keep-alive connection carries the closed loop.
	s := &stack{client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}}
	cfg := serverConfig()
	if jobs {
		dir, err := os.MkdirTemp("", "weakbench-jobs-")
		if err != nil {
			return nil, err
		}
		s.jobsDir, cfg.JobsDir = dir, dir
	}
	srv := serve.New(cfg)
	if err := srv.Start(); err != nil {
		s.close()
		return nil, err
	}
	s.srv, s.base = srv, "http://"+srv.Addr()
	return s, nil
}

// close stops the replica and removes the job store.
func (s *stack) close() {
	if s == nil {
		return
	}
	if s.srv != nil {
		_ = s.srv.Close()
	}
	s.client.CloseIdleConnections()
	if s.jobsDir != "" {
		_ = os.RemoveAll(s.jobsDir)
	}
}

// exchange is one HTTP round trip, timed from send to the last byte of the
// response on the wall clock and on the process's CPU clock.
type exchange struct {
	status     int
	body       []byte
	start, end time.Time
	cpu        time.Duration
	err        error
}

// send performs one request against url (a full URL) and reads the whole
// response.
func (s *stack) send(method, url string, body []byte, header http.Header) exchange {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return exchange{err: err}
	}
	for k, v := range header {
		req.Header[k] = v
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	cpu := cpuTime()
	x := exchange{start: time.Now()}
	resp, err := s.client.Do(req)
	if err != nil {
		x.end, x.cpu, x.err = time.Now(), cpuTime()-cpu, err
		return x
	}
	x.body, x.err = io.ReadAll(resp.Body)
	resp.Body.Close()
	x.end, x.cpu = time.Now(), cpuTime()-cpu
	x.status = resp.StatusCode
	return x
}

// failure is the operation's error when the exchange did not end in want.
func (x exchange) failure(want int) error {
	if x.err != nil {
		return x.err
	}
	if x.status != want {
		return fmt.Errorf("HTTP %d: %.200s", x.status, x.body)
	}
	return nil
}

// warm sends every body to /v1/sample, one after another, so each circuit
// is simulated and cached before the window opens.
func (s *stack) warm(bodies [][]byte) error {
	for _, b := range bodies {
		if err := s.send(http.MethodPost, s.base+"/v1/sample", b, nil).failure(http.StatusOK); err != nil {
			return fmt.Errorf("prewarm: %w", err)
		}
	}
	return nil
}
