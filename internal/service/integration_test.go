package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/obs"
)

// testLog builds a wire-format log of the canonical test signal under
// an incremental LI-4 encoding small enough to solve in milliseconds.
func testLog(t testing.TB, m, b int, changes ...int) ([]byte, core.Signal) {
	t.Helper()
	enc, err := encoding.Incremental(m, b, 4)
	if err != nil {
		t.Fatal(err)
	}
	truth := core.SignalFromChanges(m, changes...)
	var wire bytes.Buffer
	if err := core.WriteLog(&wire, m, b, []core.LogEntry{core.Log(enc, truth)}); err != nil {
		t.Fatal(err)
	}
	return wire.Bytes(), truth
}

// startServer runs a Server on an ephemeral port and tears it down with
// the test.
func startServer(t testing.TB, cfg Config, solveDelay time.Duration) (*Server, string, *obs.Registry) {
	t.Helper()
	reg := cfg.Obs
	if reg == nil {
		reg = obs.NewRegistry()
		cfg.Obs = reg
	}
	srv := New(cfg)
	srv.solveDelay = solveDelay
	addr, err := srv.Start()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	})
	return srv, "http://" + addr.String(), reg
}

// TestStartRejectsInvalidOracle: a name the dispatcher does not know,
// and the cube-split portfolio the one-worker service would run as
// serial SAT, fail Start instead of every request.
func TestStartRejectsInvalidOracle(t *testing.T) {
	for _, name := range []string{"cvc5", "sat-par"} {
		srv := New(Config{Oracle: name})
		if addr, err := srv.Start(); err == nil {
			t.Errorf("Start with Oracle %q bound %v, want an error", name, addr)
			_ = srv.Shutdown(context.Background())
		}
	}
	for _, name := range []string{"", "auto", "sat", "sat-inc", "decode", "brute"} {
		if err := CheckOracle(name); err != nil {
			t.Errorf("CheckOracle(%q) = %v", name, err)
		}
	}
}

func postWire(base string, wire []byte, query string) (*http.Response, map[string]any, error) {
	resp, err := http.Post(base+"/v1/reconstruct?"+query, "application/octet-stream", bytes.NewReader(wire))
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var out map[string]any
	_ = json.Unmarshal(raw, &out)
	return resp, out, nil
}

// The acceptance property: N concurrent identical requests cost
// exactly one SAT solve — the leader solves, everyone else coalesces
// onto its flight or hits the cache it fills.
func TestConcurrentIdenticalRequestsSolveOnce(t *testing.T) {
	// The oracle is pinned to SAT so the sat.solve.calls assertion below
	// stays meaningful (auto-routing would answer this k=2 query with
	// the algebraic decoder, which has no solver underneath).
	wire, truth := testLog(t, 16, 9, 3, 7)
	_, base, reg := startServer(t, Config{Workers: 4, Oracle: "sat"}, 500*time.Millisecond)

	const n = 8
	type outcome struct {
		status    int
		cached    bool
		coalesced bool
		found     bool
	}
	outcomes := make(chan outcome, n)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			resp, body, err := postWire(base, wire, "scheme=incremental&depth=4&limit=-1")
			if err != nil {
				t.Error(err)
				return
			}
			o := outcome{status: resp.StatusCode}
			if results, ok := body["results"].([]any); ok && len(results) == 1 {
				r0 := results[0].(map[string]any)
				o.cached, _ = r0["cached"].(bool)
				o.coalesced, _ = r0["coalesced"].(bool)
				for _, c := range r0["candidates"].([]any) {
					if c.(string) == truth.String() {
						o.found = true
					}
				}
			}
			outcomes <- o
		}()
	}
	close(start)
	wg.Wait()
	close(outcomes)

	var leaders, shared int
	for o := range outcomes {
		if o.status != http.StatusOK {
			t.Fatalf("status %d", o.status)
		}
		if !o.found {
			t.Fatal("true signal missing from a response")
		}
		if o.cached || o.coalesced {
			shared++
		} else {
			leaders++
		}
	}
	if leaders != 1 || shared != n-1 {
		t.Fatalf("leaders=%d shared=%d, want 1 and %d", leaders, shared, n-1)
	}
	snap := reg.Snapshot()
	if got := snap.Counters[MetricSolves]; got != 1 {
		t.Fatalf("%s = %d for %d identical requests, want exactly 1", MetricSolves, got, n)
	}
	if got := snap.Counters[MetricCoalesced] + snap.Counters[MetricCacheHits]; got != n-1 {
		t.Fatalf("coalesced+hits = %d, want %d", got, n-1)
	}
	if snap.Counters["sat.solve.calls"] == 0 {
		t.Fatal("solver instrumentation did not flow through the service registry")
	}
}

// With one worker, one queue slot and a held solve, the third distinct
// request must shed with 429 and a Retry-After hint.
func TestQueueFullSheds429(t *testing.T) {
	wire, _ := testLog(t, 16, 9, 4)
	_, base, reg := startServer(t, Config{Workers: 1, QueueDepth: 1}, 600*time.Millisecond)

	// Distinct limits make distinct cache keys, so nothing coalesces.
	req := func(limit int) (*http.Response, map[string]any, error) {
		return postWire(base, wire, fmt.Sprintf("scheme=incremental&depth=4&limit=%d", limit))
	}
	type result struct {
		status int
		err    error
	}
	running := make(chan result, 1)
	queued := make(chan result, 1)
	go func() {
		resp, _, err := req(1)
		running <- result{statusOf(resp), err}
	}()
	waitCounter(t, reg, MetricSolves, 1) // first request holds the worker
	go func() {
		resp, _, err := req(2)
		queued <- result{statusOf(resp), err}
	}()
	waitGauge(t, reg, MetricQueueDepth, 1) // second request fills the queue

	resp, _, err := req(3)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow request: status %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Fatalf("Retry-After = %q, want \"1\"", got)
	}
	for name, ch := range map[string]chan result{"running": running, "queued": queued} {
		r := <-ch
		if r.err != nil || r.status != http.StatusOK {
			t.Fatalf("%s request: status %d err %v", name, r.status, r.err)
		}
	}
	if got := reg.Snapshot().Counters[MetricShed]; got != 1 {
		t.Fatalf("%s = %d, want 1", MetricShed, got)
	}
}

// A request whose deadline expires mid-solve maps to 504 and counts a
// timeout; the admission slot is released for the next request.
func TestDeadlineMapsTo504(t *testing.T) {
	wire, _ := testLog(t, 16, 9, 5)
	_, base, reg := startServer(t, Config{Workers: 1}, 2*time.Second)

	resp, body, err := postWire(base, wire, "scheme=incremental&depth=4&timeout_ms=100")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (body %v)", resp.StatusCode, body)
	}
	snap := reg.Snapshot()
	if snap.Counters[MetricTimeouts] != 1 {
		t.Fatalf("%s = %d, want 1", MetricTimeouts, snap.Counters[MetricTimeouts])
	}
	if b := snap.Gauges[MetricSolveBusy]; b.Value != 0 {
		t.Fatalf("busy gauge = %d after timeout, want 0 (slot leaked)", b.Value)
	}
}

// SIGTERM must drain: the in-flight solve finishes with 200 while the
// daemon loop (Run under signal.NotifyContext, exactly the timeprintd
// main shape) exits nil.
func TestDrainOnSIGTERM(t *testing.T) {
	wire, _ := testLog(t, 16, 9, 6)
	reg := obs.NewRegistry()
	srv := New(Config{Obs: reg, Workers: 2, DrainTimeout: 5 * time.Second})
	srv.solveDelay = 400 * time.Millisecond

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM)
	defer stop()
	runErr := make(chan error, 1)
	go func() { runErr <- srv.Run(ctx) }()
	<-srv.Ready()
	base := "http://" + srv.Addr().String()

	inflight := make(chan result2, 1)
	go func() {
		resp, body, err := postWire(base, wire, "scheme=incremental&depth=4")
		inflight <- result2{resp, body, err}
	}()
	waitCounter(t, reg, MetricSolves, 1) // the solve is in flight

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}

	r := <-inflight
	if r.err != nil {
		t.Fatalf("in-flight request failed during drain: %v", r.err)
	}
	if r.resp.StatusCode != http.StatusOK {
		t.Fatalf("in-flight request: status %d during drain, want 200", r.resp.StatusCode)
	}
	select {
	case err := <-runErr:
		if err != nil {
			t.Fatalf("Run returned %v, want nil (clean drain)", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run did not return after SIGTERM")
	}
	if !srv.Draining() {
		t.Fatal("server not marked draining after shutdown")
	}
	// The listener is gone: new connections must fail.
	if _, err := http.Get(base + "/healthz"); err == nil {
		t.Fatal("listener still accepting after drain")
	}
}

type result2 struct {
	resp *http.Response
	body map[string]any
	err  error
}

// The strict wire rules surface as 400s at the service boundary.
func TestServiceRejectsMalformedRequests(t *testing.T) {
	wire, _ := testLog(t, 16, 9, 2)
	_, base, _ := startServer(t, Config{}, 0)

	post := func(path, ct string, body []byte) (*http.Response, string) {
		resp, err := http.Post(base+path, ct, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		return resp, string(raw)
	}

	// Pad-bit corruption travels the whole stack: flip a pad bit in the
	// final byte and the strict reader rejects the log.
	corrupt := append([]byte(nil), wire...)
	corrupt[len(corrupt)-1] ^= 0x80
	resp, body := post("/v1/reconstruct?scheme=incremental", "application/octet-stream", corrupt)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body, "pad") {
		t.Fatalf("pad corruption: status %d body %s", resp.StatusCode, body)
	}

	for name, tc := range map[string]struct {
		path string
		ct   string
		body string
	}{
		"unknown scheme": {"/v1/reconstruct?scheme=warbler", "application/octet-stream", string(wire)},
		"tp and log": {"/v1/reconstruct", "application/json",
			`{"encoding":{"m":16,"b":9},"tp":"101010101","k":1,"log":"` + jsonB64(wire) + `"}`},
		"tp width mismatch": {"/v1/count", "application/json",
			`{"encoding":{"m":16,"b":9},"tp":"1010","k":1}`},
		"bad properties": {"/v1/reconstruct", "application/json",
			`{"encoding":{"m":16,"b":9},"tp":"101010101","k":1,"properties":"gibberish("}`,
		},
		"unknown json field": {"/v1/reconstruct", "application/json",
			`{"encoding":{"m":16,"b":9},"tp":"101010101","k":1,"frobnicate":true}`},
		"cycles on inline tp/k": {"/v1/reconstruct", "application/json",
			`{"encoding":{"m":16,"b":9},"tp":"101010101","k":1,"cycles":[0]}`},
		"more cycles than entries": {"/v1/reconstruct?cycles=0,0", "application/octet-stream", string(wire)},
		"geometry mismatch": {"/v1/compare", "application/json",
			`{"encoding":{"m":16,"b":9},"ref":"` + jsonB64(wire) + `","obs":"` + jsonB64(mustWire(t, 8, 9)) + `"}`},
	} {
		resp, body := post(tc.path, tc.ct, []byte(tc.body))
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d body %s, want 400", name, resp.StatusCode, body)
		}
	}
}

// /healthz and /metrics ride the service mux itself.
func TestServiceHealthAndMetricsEndpoints(t *testing.T) {
	wire, _ := testLog(t, 16, 9, 9)
	srv, base, _ := startServer(t, Config{}, 0)

	if resp, _, err := postWire(base, wire, "scheme=incremental&depth=4"); err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("reconstruct: %v %v", resp, err)
	}
	resp, err := http.Get(base + "/healthz")
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", resp, err)
	}
	resp.Body.Close()

	mresp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	snap, err := obs.ParseSnapshot(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Counters[MetricReqReconstruct] != 1 || snap.Counters[MetricSolves] != 1 {
		t.Fatalf("metrics endpoint: %v", snap.Counters)
	}
	_ = srv
}

// --- helpers ---

func statusOf(r *http.Response) int {
	if r == nil {
		return 0
	}
	return r.StatusCode
}

func mustWire(t testing.TB, m, b int) []byte {
	t.Helper()
	w, _ := testLog(t, m, b, 1)
	return w
}

func jsonB64(raw []byte) string {
	// encoding/json marshals []byte as base64; round through it so the
	// test string matches the decoder's expectation exactly.
	enc, _ := json.Marshal(raw)
	return strings.Trim(string(enc), `"`)
}

func waitCounter(t testing.TB, reg *obs.Registry, name string, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for reg.Snapshot().Counters[name] < want {
		if time.Now().After(deadline) {
			t.Fatalf("counter %s never reached %d (at %d)", name, want, reg.Snapshot().Counters[name])
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func waitGauge(t testing.TB, reg *obs.Registry, name string, want int64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for reg.Snapshot().Gauges[name].Value < want {
		if time.Now().After(deadline) {
			t.Fatalf("gauge %s never reached %d (at %d)", name, want, reg.Snapshot().Gauges[name].Value)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Two exact(...) queries with different change sets over one log must
// not share a cache entry: the second answer has to satisfy its own
// property. The log's signal changes at {3, 7}, so exact(3,7) finds it
// and exact(4,9) finds nothing.
func TestExactPropertiesDoNotShareCacheEntry(t *testing.T) {
	_, base, _ := startServer(t, Config{Workers: 2}, 0)
	wire, truth := testLog(t, 16, 9, 3, 7)
	for _, tc := range []struct {
		props string
		want  []string
	}{
		{"exact(3,7)", []string{truth.String()}},
		{"exact(4,9)", nil},
	} {
		resp, body, err := postWire(base, wire, "scheme=incremental&depth=4&limit=-1&properties="+tc.props)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d (%v)", tc.props, resp.StatusCode, body)
		}
		r0 := body["results"].([]any)[0].(map[string]any)
		var got []string
		if cands, ok := r0["candidates"].([]any); ok {
			for _, c := range cands {
				got = append(got, c.(string))
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(tc.want) || r0["exhausted"] != true {
			t.Fatalf("%s: candidates %v (exhausted %v), want %v", tc.props, got, r0["exhausted"], tc.want)
		}
	}
}
