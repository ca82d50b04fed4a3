// Command timeprintd is the streaming reconstruction daemon: it
// accepts timeprint logs — core.WriteLog wire format or JSON job specs
// — over HTTP and answers signal-reconstruction queries with the
// internal/reconstruct engine (see internal/service for the endpoint
// and serving semantics).
//
//	timeprintd -addr :8080 -httpobs :6060
//	timeprintd -addr :8080 -store-dir /var/lib/timeprintd
//	timeprintd -smoke          # self-contained end-to-end smoke test
//
// With -store-dir every ingested wire log — unary request bodies and
// streaming-ingest frames alike — is also appended to a durable
// segmented log store (internal/logstore) keyed by (device, signal,
// epoch), and two forensic endpoints open up: GET /v1/logs lists and
// ranges the stored streams, POST /v1/query replays stored frames
// through the same reconstruction pipeline as live requests. The
// store recovers crash-torn tails on open and enforces retention by
// dropping whole sealed segments (-store-max-segments).
//
// The daemon sheds load with 429 once its admission queue fills,
// enforces per-request deadlines by interrupting the SAT solver
// cooperatively, coalesces concurrent identical requests onto a single
// solve, and drains gracefully on SIGTERM/SIGINT: in-flight requests
// get -drain to finish before connections are closed hard.
//
// -httpobs additionally serves the live metrics registry, expvar and
// net/http/pprof on a second address via obs.Serve; the same /metrics
// and /metrics.txt snapshots are always available on the service
// address itself.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/logstore"
	"repro/internal/obs"
	"repro/internal/reconstruct"
	"repro/internal/service"
)

func main() {
	fs := flag.NewFlagSet("timeprintd", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8080", "service listen address")
	streamAddr := fs.String("stream", "", "streaming-ingest listen address (persistent TCP, empty disables)")
	obsAddr := fs.String("httpobs", "", "also serve expvar, pprof and live metrics on this address")
	queue := fs.Int("queue", 64, "admission queue depth before load is shed with 429")
	workers := fs.Int("workers", 0, "concurrent SAT solves (0 = GOMAXPROCS)")
	cacheSize := fs.Int("cache", 1024, "LRU result-cache capacity (entries)")
	timeout := fs.Duration("timeout", 10*time.Second, "default per-request solve deadline")
	maxTimeout := fs.Duration("max-timeout", 60*time.Second, "cap on client-requested deadlines")
	maxConflicts := fs.Int64("max-conflicts", 0, "server-side solver conflict budget per solve (0 = unlimited)")
	drain := fs.Duration("drain", 15*time.Second, "graceful-drain budget after SIGTERM")
	oracle := fs.String("oracle", "auto", "reconstruction backend: auto (cost-model routing), sat, sat-inc, decode or brute")
	storeDir := fs.String("store-dir", "", "durable log store directory: ingested wire logs are persisted here and served back via /v1/logs and /v1/query (empty disables)")
	storeSegBytes := fs.Int64("store-segment-bytes", 0, "log store segment size before rotation (0 = default)")
	storeMaxSegments := fs.Int("store-max-segments", 0, "retention: drop oldest sealed segments beyond this many (0 = keep everything)")
	smoke := fs.Bool("smoke", false, "run an end-to-end smoke test against an in-process server and exit")
	_ = fs.Parse(os.Args[1:])
	if err := service.CheckOracle(*oracle); err != nil {
		fmt.Fprintf(os.Stderr, "timeprintd: -oracle: %v\n", err)
		os.Exit(2)
	}

	reg := obs.NewRegistry()
	core.SetObserver(reg)
	defer core.SetObserver(nil)
	cfg := service.Config{
		Addr:           *addr,
		StreamAddr:     *streamAddr,
		QueueDepth:     *queue,
		Workers:        *workers,
		CacheSize:      *cacheSize,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		MaxConflicts:   *maxConflicts,
		DrainTimeout:   *drain,
		Oracle:         *oracle,
		Obs:            reg,
	}

	if *smoke {
		cfg.Addr = "127.0.0.1:0"
		if err := runSmoke(cfg, reg); err != nil {
			fmt.Fprintln(os.Stderr, "smoke: FAIL:", err)
			os.Exit(1)
		}
		fmt.Println("smoke: ok")
		return
	}

	if *storeDir != "" {
		st, rec, err := logstore.Open(*storeDir, logstore.Options{
			SegmentBytes: *storeSegBytes,
			MaxSegments:  *storeMaxSegments,
			Obs:          reg,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "timeprintd:", err)
			os.Exit(1)
		}
		defer st.Close()
		if rec.Corrupt() {
			fmt.Fprintf(os.Stderr, "timeprintd: store recovery salvaged %d record(s) across %d segment(s), dropped %d damaged byte(s)\n",
				rec.Records, rec.Segments, rec.TruncatedBytes)
			for _, e := range rec.Errs {
				fmt.Fprintf(os.Stderr, "timeprintd:   %v\n", e)
			}
		}
		fmt.Fprintf(os.Stderr, "timeprintd: log store at %s (%d record(s) across %d segment(s))\n",
			st.Dir(), rec.Records, rec.Segments)
		cfg.Store = st
	}

	srv := service.New(cfg)
	bound, err := srv.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "timeprintd:", err)
		os.Exit(1)
	}
	endpoints := "/v1/{reconstruct,count,compare,batch}"
	if cfg.Store != nil {
		endpoints = "/v1/{reconstruct,count,compare,batch,logs,query}"
	}
	fmt.Fprintf(os.Stderr, "timeprintd: serving %s on http://%s\n", endpoints, bound)
	if *streamAddr != "" {
		fmt.Fprintf(os.Stderr, "timeprintd: streaming ingest on %s\n", srv.StreamAddr())
	}
	if *obsAddr != "" {
		oa, err := obs.Serve(*obsAddr, reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "timeprintd:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "timeprintd: observability on http://%s (/debug/vars /debug/pprof /metrics)\n", oa)
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGTERM, os.Interrupt)
	defer stop()
	<-ctx.Done()
	fmt.Fprintf(os.Stderr, "timeprintd: signal received, draining (budget %s)\n", *drain)
	dctx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(dctx); err != nil {
		fmt.Fprintln(os.Stderr, "timeprintd:", err)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "timeprintd: drained cleanly")
}

// runSmoke exercises the daemon end to end, in-process but over real
// HTTP: it logs a known signal, POSTs the wire log twice, checks the
// reconstruction contains the true signal and that the repeat was a
// cache hit, runs a count and a compare, and validates the cache
// counters through the obs.Serve /metrics endpoint. This is what
// `make service-smoke` and the service-smoke CI job run.
func runSmoke(cfg service.Config, reg *obs.Registry) error {
	cfg.StreamAddr = "127.0.0.1:0"
	const m, b = 64, 13
	enc, err := encoding.Incremental(m, b, 4)
	if err != nil {
		return err
	}
	truth := core.SignalFromChanges(m, 5, 6, 20)
	entry := core.Log(enc, truth)
	var wire bytes.Buffer
	if err := core.WriteLog(&wire, m, b, []core.LogEntry{entry}); err != nil {
		return err
	}

	srv := service.New(cfg)
	bound, err := srv.Start()
	if err != nil {
		return err
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(ctx)
	}()
	base := "http://" + bound.String()

	// The observability side: the same registry through obs.Serve.
	obsBound, err := obs.Serve("127.0.0.1:0", reg)
	if err != nil {
		return err
	}

	post := func(url, contentType string, body []byte) (map[string]any, error) {
		resp, err := http.Post(url, contentType, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("%s: HTTP %d: %s", url, resp.StatusCode, raw)
		}
		var out map[string]any
		if err := json.Unmarshal(raw, &out); err != nil {
			return nil, fmt.Errorf("%s: bad JSON: %v", url, err)
		}
		return out, nil
	}

	// Reconstruct the wire log twice: the first solves, the second must
	// be answered from the LRU.
	target := base + "/v1/reconstruct?scheme=incremental&depth=4&limit=-1"
	first, err := post(target, "application/octet-stream", wire.Bytes())
	if err != nil {
		return err
	}
	results := first["results"].([]any)
	if len(results) != 1 {
		return fmt.Errorf("want 1 result, got %d", len(results))
	}
	r0 := results[0].(map[string]any)
	found := false
	for _, c := range r0["candidates"].([]any) {
		if c.(string) == truth.String() {
			found = true
		}
	}
	if !found {
		return fmt.Errorf("true signal %s not among candidates %v", truth, r0["candidates"])
	}
	if ex, _ := r0["exhausted"].(bool); !ex {
		return fmt.Errorf("enumeration not exhausted: %v", r0)
	}
	second, err := post(target, "application/octet-stream", wire.Bytes())
	if err != nil {
		return err
	}
	r0 = second["results"].([]any)[0].(map[string]any)
	if cached, _ := r0["cached"].(bool); !cached {
		return fmt.Errorf("repeat request was not served from cache: %v", r0)
	}

	// A property-bearing request that only the incremental SAT session
	// can take under auto-routing: k=5 is past the algebraic decoder,
	// and its brute walk would visit Σ C(51, ≤5) = 2.6 M coset points,
	// past the route's 2^16. So it also proves solver instrumentation
	// flows through the registry.
	propTruth := core.SignalFromChanges(m, 5, 6, 20, 25, 30)
	var propWire bytes.Buffer
	if err := core.WriteLog(&propWire, m, b, []core.LogEntry{core.Log(enc, propTruth)}); err != nil {
		return err
	}
	propTarget := target + "&properties=window(0,32)"
	withProp, err := post(propTarget, "application/octet-stream", propWire.Bytes())
	if err != nil {
		return err
	}
	r0 = withProp["results"].([]any)[0].(map[string]any)
	found = false
	for _, c := range r0["candidates"].([]any) {
		if c.(string) == propTruth.String() {
			found = true
		}
	}
	if !found {
		return fmt.Errorf("true signal %s not among property-constrained candidates %v", propTruth, r0["candidates"])
	}

	// Count through the JSON job-spec path.
	countJob, _ := json.Marshal(map[string]any{
		"encoding": map[string]any{"scheme": "incremental", "m": m, "b": b},
		"tp":       entry.TP.String(),
		"k":        entry.K,
		"limit":    -1,
	})
	count, err := post(base+"/v1/count", "application/json", countJob)
	if err != nil {
		return err
	}
	c0 := count["results"].([]any)[0].(map[string]any)
	if n, _ := c0["count"].(float64); n < 1 {
		return fmt.Errorf("count returned %v candidates", c0["count"])
	}

	// Compare the log against a corrupted sibling; the flipped
	// trace-cycle must be localized.
	bad := core.Log(enc, core.SignalFromChanges(m, 5, 6, 21))
	var badWire bytes.Buffer
	if err := core.WriteLog(&badWire, m, b, []core.LogEntry{bad}); err != nil {
		return err
	}
	compareJob, _ := json.Marshal(map[string]any{
		"encoding": map[string]any{"scheme": "incremental", "m": m, "b": b, "clock_hz": 5e6},
		"ref":      wire.Bytes(),
		"obs":      badWire.Bytes(),
	})
	cmp, err := post(base+"/v1/compare", "application/json", compareJob)
	if err != nil {
		return err
	}
	if fm, _ := cmp["first_mismatch"].(float64); fm != 0 {
		return fmt.Errorf("compare localized mismatch at %v, want 0", cmp["first_mismatch"])
	}

	// Counter contract, read back through the obs.Serve endpoint.
	resp, err := http.Get("http://" + obsBound.String() + "/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	snap, err := obs.ParseSnapshot(resp.Body)
	if err != nil {
		return err
	}
	for counter, want := range map[string]int64{
		service.MetricCacheHits:      1,
		service.MetricCacheMisses:    3, // reconstruct + property reconstruct + count
		service.MetricSolves:         3,
		service.MetricReqReconstruct: 3,
		service.MetricReqCount:       1,
		service.MetricReqCompare:     1,
	} {
		if got := snap.Counters[counter]; got != want {
			return fmt.Errorf("counter %s = %d, want %d (snapshot %v)", counter, got, want, snap.Counters)
		}
	}
	// Routing contract under the default auto oracle: the two k=3
	// queries go to the algebraic decoder, the windowed k=5 one to the
	// incremental session, and nothing mispredicts.
	if cfg.Oracle == "" || cfg.Oracle == "auto" {
		if got := snap.Counters[reconstruct.MetricDispatchChosenPrefix+"decode"]; got != 2 {
			return fmt.Errorf("dispatch chose decode %d times, want 2 (snapshot %v)", got, snap.Counters)
		}
		if got := snap.Counters[reconstruct.MetricDispatchChosenPrefix+"sat-inc"]; got != 1 {
			return fmt.Errorf("dispatch chose sat-inc %d times, want 1 (snapshot %v)", got, snap.Counters)
		}
		if got := snap.Counters[reconstruct.MetricDispatchFallback]; got != 0 {
			return fmt.Errorf("dispatch fallbacks = %d, want 0", got)
		}
	}
	if snap.Counters["sat.solve.calls"] == 0 {
		return fmt.Errorf("solver instrumentation missing from /metrics")
	}

	// Batch and stream phases run after the exact-counter snapshot above
	// and are asserted as deltas against it, so the unary contract stays
	// byte-for-byte intact.
	if err := smokeBatch(base, post); err != nil {
		return fmt.Errorf("batch: %w", err)
	}
	if err := smokeStream(srv.StreamAddr().String()); err != nil {
		return fmt.Errorf("stream: %w", err)
	}
	resp2, err := http.Get("http://" + obsBound.String() + "/metrics")
	if err != nil {
		return err
	}
	defer resp2.Body.Close()
	after, err := obs.ParseSnapshot(resp2.Body)
	if err != nil {
		return err
	}
	for counter, want := range map[string]int64{
		service.MetricReqBatch:      1,
		service.MetricBatchJobs:     3,
		service.MetricBatchShed:     0,
		service.MetricReqStream:     1,
		service.MetricStreamFrames:  2,
		service.MetricStreamEntries: 2,
		// The amortization witness: one build for the whole batch spec,
		// one for the whole stream spec.
		service.MetricEncodingBuilds: 2,
	} {
		if got := after.Counters[counter] - snap.Counters[counter]; got != want {
			return fmt.Errorf("counter %s moved by %d across batch+stream, want %d", counter, got, want)
		}
	}
	if err := smokeStore(cfg); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// smokeStore proves the durable-store acceptance path end to end: a
// server with -store-dir ingests one wire log over HTTP and one frame
// over the stream listener, both tee into the store, /v1/logs lists
// them and /v1/query replays the stored frames bit-identically to the
// request-body path — then the server AND store are torn down and
// reopened on the same directory, and the historical query still
// answers identically from disk.
func smokeStore(cfg service.Config) error {
	dir, err := os.MkdirTemp("", "timeprintd-smoke-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	const m, b = 32, 11
	enc, err := encoding.Incremental(m, b, 4)
	if err != nil {
		return err
	}
	truth := core.SignalFromChanges(m, 3, 9)
	var wire bytes.Buffer
	if err := core.WriteLog(&wire, m, b, []core.LogEntry{core.Log(enc, truth)}); err != nil {
		return err
	}
	var streamWire bytes.Buffer
	if err := core.WriteLog(&streamWire, m, b, []core.LogEntry{core.Log(enc, core.SignalFromChanges(m, 7))}); err != nil {
		return err
	}

	// One "server generation": open the store, serve, run fn, drain.
	withServer := func(fn func(base, streamAddr string) error) error {
		st, rec, err := logstore.Open(dir, logstore.Options{Obs: cfg.Obs})
		if err != nil {
			return err
		}
		defer st.Close()
		if rec.Corrupt() {
			return fmt.Errorf("smoke store dir corrupt on open: %v", rec.Errs)
		}
		gen := cfg
		gen.Addr = "127.0.0.1:0"
		gen.StreamAddr = "127.0.0.1:0"
		gen.Store = st
		srv := service.New(gen)
		bound, err := srv.Start()
		if err != nil {
			return err
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			_ = srv.Shutdown(ctx)
		}()
		return fn("http://"+bound.String(), srv.StreamAddr().String())
	}

	// The request-body answer the stored replay must match. The replay
	// legitimately hits the LRU the body path just filled, so the
	// cached/coalesced markers are volatile and excluded from the
	// equivalence.
	var bodyAnswer []any
	stripVolatile := func(results []any) []any {
		for _, r := range results {
			if m, ok := r.(map[string]any); ok {
				delete(m, "cached")
				delete(m, "coalesced")
			}
		}
		return results
	}
	queryStore := func(base string) ([]any, error) {
		req, _ := json.Marshal(map[string]any{
			"device": "smoke-dev", "signal": "bus",
			"encoding": map[string]any{"scheme": "incremental", "m": m, "b": b, "depth": 4},
			"limit":    -1,
		})
		resp, err := http.Post(base+"/v1/query", "application/json", bytes.NewReader(req))
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		raw, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			return nil, fmt.Errorf("/v1/query: HTTP %d: %s", resp.StatusCode, raw)
		}
		var out struct {
			Records []any `json:"records"`
		}
		if err := json.Unmarshal(raw, &out); err != nil {
			return nil, err
		}
		return out.Records, nil
	}

	err = withServer(func(base, streamAddr string) error {
		// Unary ingest with identity: tees into the store.
		resp, err := http.Post(base+"/v1/reconstruct?scheme=incremental&depth=4&limit=-1&device=smoke-dev&signal=bus&epoch_us=1000",
			"application/octet-stream", bytes.NewReader(wire.Bytes()))
		if err != nil {
			return err
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("ingest: HTTP %d: %s", resp.StatusCode, raw)
		}
		var body map[string]any
		if err := json.Unmarshal(raw, &body); err != nil {
			return err
		}
		bodyAnswer = stripVolatile(body["results"].([]any))

		// Stream ingest tees too, under the hello's identity.
		sc, err := service.DialStream(streamAddr, 5*time.Second)
		if err != nil {
			return err
		}
		defer sc.Close()
		if _, err := sc.Hello(service.StreamHello{
			Device: "smoke-dev", Signal: "net", Encoding: service.EncodingSpec{M: m, B: b}, CountOnly: true,
		}); err != nil {
			return err
		}
		if msg, err := sc.SendFrame(streamWire.Bytes()); err != nil || msg.Status != 0 {
			return fmt.Errorf("stream frame: %v (status %v)", err, msg)
		}
		if _, err := sc.End(); err != nil {
			return err
		}

		// Both streams visible in the range listing.
		lr, err := http.Get(base + "/v1/logs")
		if err != nil {
			return err
		}
		defer lr.Body.Close()
		var listing struct {
			Keys []struct {
				Device  string `json:"device"`
				Signal  string `json:"signal"`
				Records int    `json:"records"`
			} `json:"keys"`
		}
		if err := json.NewDecoder(lr.Body).Decode(&listing); err != nil {
			return err
		}
		if len(listing.Keys) != 2 {
			return fmt.Errorf("/v1/logs listed %d keys, want 2 (%+v)", len(listing.Keys), listing.Keys)
		}

		// Historical replay matches the live request-body answer.
		recs, err := queryStore(base)
		if err != nil {
			return err
		}
		if len(recs) != 1 {
			return fmt.Errorf("first-generation /v1/query returned %d records, want 1", len(recs))
		}
		got, _ := json.Marshal(stripVolatile(recs[0].(map[string]any)["results"].([]any)))
		want, _ := json.Marshal(bodyAnswer)
		if !bytes.Equal(got, want) {
			return fmt.Errorf("stored replay diverged from request-body answer:\n  body:  %s\n  store: %s", want, got)
		}
		return nil
	})
	if err != nil {
		return err
	}

	// Second generation: fresh server and store on the same directory —
	// the restart-persistence acceptance criterion.
	return withServer(func(base, _ string) error {
		recs, err := queryStore(base)
		if err != nil {
			return err
		}
		if len(recs) != 1 {
			return fmt.Errorf("post-restart /v1/query returned %d records, want 1", len(recs))
		}
		got, _ := json.Marshal(stripVolatile(recs[0].(map[string]any)["results"].([]any)))
		want, _ := json.Marshal(bodyAnswer)
		if !bytes.Equal(got, want) {
			return fmt.Errorf("post-restart replay diverged from request-body answer:\n  body:  %s\n  store: %s", want, got)
		}
		return nil
	})
}

// smokeBatch drives POST /v1/batch: three jobs (a wire log, a
// count-only twin, a malformed one) against one shared spec, asserting
// per-job statuses and that the malformed job fails alone.
func smokeBatch(base string, post func(url, contentType string, body []byte) (map[string]any, error)) error {
	const m, b = 32, 11
	enc, err := encoding.Incremental(m, b, 4)
	if err != nil {
		return err
	}
	truth := core.SignalFromChanges(m, 3, 9)
	entry := core.Log(enc, truth)
	var wire bytes.Buffer
	if err := core.WriteLog(&wire, m, b, []core.LogEntry{entry}); err != nil {
		return err
	}
	body, _ := json.Marshal(map[string]any{
		"jobs": []any{
			map[string]any{"log": wire.Bytes(), "limit": -1},
			map[string]any{"tp": entry.TP.String(), "k": entry.K, "count_only": true},
			map[string]any{"tp": "10", "k": 1},
		},
	})
	out, err := post(base+"/v1/batch", "application/json", body)
	if err != nil {
		return err
	}
	jobs := out["jobs"].([]any)
	if len(jobs) != 3 {
		return fmt.Errorf("want 3 job results, got %d", len(jobs))
	}
	for i, want := range []float64{200, 200, 400} {
		if got, _ := jobs[i].(map[string]any)["status"].(float64); got != want {
			return fmt.Errorf("job %d status %v, want %v", i, got, want)
		}
	}
	r0 := jobs[0].(map[string]any)["results"].([]any)[0].(map[string]any)
	found := false
	for _, c := range r0["candidates"].([]any) {
		if c.(string) == truth.String() {
			found = true
		}
	}
	if !found {
		return fmt.Errorf("true signal %s not among batch candidates %v", truth, r0["candidates"])
	}
	return nil
}

// smokeStream drives the streaming-ingest listener: hello, two frames
// advancing the trace-cycle position, a clean end.
func smokeStream(addr string) error {
	const m, b = 16, 9
	enc, err := encoding.Incremental(m, b, 4)
	if err != nil {
		return err
	}
	frames := make([][]byte, 2)
	truth := core.SignalFromChanges(m, 4, 11)
	for i, sig := range []core.Signal{truth, core.SignalFromChanges(m, 2)} {
		var wire bytes.Buffer
		if err := core.WriteLog(&wire, m, b, []core.LogEntry{core.Log(enc, sig)}); err != nil {
			return err
		}
		frames[i] = wire.Bytes()
	}

	sc, err := service.DialStream(addr, 5*time.Second)
	if err != nil {
		return err
	}
	defer sc.Close()
	ack, err := sc.Hello(service.StreamHello{
		Device: "smoke", Signal: "net", Encoding: service.EncodingSpec{M: m, B: b}, Limit: -1,
	})
	if err != nil {
		return err
	}
	if ack.NextTraceCycle != 0 {
		return fmt.Errorf("fresh stream starts at trace-cycle %d, want 0", ack.NextTraceCycle)
	}
	for i, frame := range frames {
		msg, err := sc.SendFrame(frame)
		if err != nil {
			return err
		}
		if msg.Status != 0 || msg.TraceCycleBase != i {
			return fmt.Errorf("frame %d: status %d base %d", i, msg.Status, msg.TraceCycleBase)
		}
		if i == 0 {
			found := false
			for _, c := range msg.Results[0].Candidates {
				if c == truth.String() {
					found = true
				}
			}
			if !found {
				return fmt.Errorf("true signal %s not among stream candidates", truth)
			}
		}
	}
	done, err := sc.End()
	if err != nil {
		return err
	}
	if done.Frames != 2 || done.Entries != 2 {
		return fmt.Errorf("done summary frames=%d entries=%d, want 2/2", done.Frames, done.Entries)
	}
	return nil
}
