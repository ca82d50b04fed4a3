package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/obs"
	"repro/internal/reconstruct"
)

// postBatch sends a JSON batch body and decodes the typed response.
func postBatch(t testing.TB, base, body string) (int, batchResponse) {
	t.Helper()
	resp, err := http.Post(base+"/v1/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	var out batchResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(raw, &out); err != nil {
			t.Fatalf("batch response: %v\n%s", err, raw)
		}
	}
	return resp.StatusCode, out
}

// tpFor renders the timeprint of a signal with the given change cycles
// under enc — a valid (TP, k) query payload.
func tpFor(t testing.TB, enc *encoding.Encoding, m int, changes ...int) (string, int) {
	t.Helper()
	e := core.Log(enc, core.SignalFromChanges(m, changes...))
	return e.TP.String(), e.K
}

// TestBatchMixedJobsAndPerJobErrors exercises the batch contract: one
// shared spec (borrowed from the wire-log job's header), heterogeneous
// jobs, per-job typed failures that do not disturb their siblings, and
// exactly one encoding build for the whole request.
func TestBatchMixedJobsAndPerJobErrors(t *testing.T) {
	wire, truth := testLog(t, 16, 9, 3, 7)
	enc, err := encoding.Incremental(16, 9, 4)
	if err != nil {
		t.Fatal(err)
	}
	tp, k := tpFor(t, enc, 16, 2, 5, 11)
	_, base, reg := startServer(t, Config{Workers: 2}, 0)

	body := fmt.Sprintf(`{"jobs":[
		{"log":%q,"limit":-1},
		{"tp":%q,"k":%d},
		{"tp":%q,"k":%d,"count_only":true},
		{"tp":"10","k":1},
		{"properties":"mingap(2)"},
		{"tp":%q,"k":%d,"cycles":[0]},
		{"log":%q,"cycles":[0,0]}
	]}`, jsonB64(wire), tp, k, tp, k, tp, k, jsonB64(wire))
	code, out := postBatch(t, base, body)
	if code != http.StatusOK {
		t.Fatalf("batch status %d", code)
	}
	if out.M != 16 || out.B != 9 {
		t.Fatalf("spec not borrowed from wire header: m=%d b=%d", out.M, out.B)
	}
	if len(out.Jobs) != 7 {
		t.Fatalf("got %d job results", len(out.Jobs))
	}
	for i, want := range []int{200, 200, 200, 400, 400, 400, 400} {
		if out.Jobs[i].Status != want {
			t.Fatalf("job %d status %d (%s), want %d", i, out.Jobs[i].Status, out.Jobs[i].Error, want)
		}
	}
	// The wire-log job must reconstruct the logged truth.
	found := false
	for _, c := range out.Jobs[0].Results[0].Candidates {
		if c == truth.String() {
			found = true
		}
	}
	if !found {
		t.Fatalf("job 0 candidates %v missing truth %s", out.Jobs[0].Results[0].Candidates, truth)
	}
	// Count-only results carry no materialized candidates.
	if out.Jobs[2].Results[0].Candidates != nil {
		t.Fatal("count_only job materialized candidates")
	}
	if got := reg.Snapshot().Counters[MetricEncodingBuilds]; got != 1 {
		t.Fatalf("%s = %d for one batch on one spec, want 1", MetricEncodingBuilds, got)
	}
}

// TestSessionOracleRaceReuseClone hammers one spec with concurrent
// unary and batch traffic under a pinned "sat-inc" oracle and asserts
// the session pool's accounting closes: every executed solve either
// ran on a pooled warm session or cloned a new session because the
// pool was empty — reuse + clone must sum to the solve count exactly,
// including the queries past the session's 16-wide ladder. The pool
// grows only when empty, and admission caps concurrent solves at
// Workers on the unary and batch paths alike, so at most Workers
// sessions are cloned, plus one per session retired for outgrowing
// the pool's ceiling (a k past the ladder adds a whole cardinality
// group). Run under -race this also shakes out data races between the
// session's lazy encoding build, the pool hand-off, and the batch
// worker pool.
func TestSessionOracleRaceReuseClone(t *testing.T) {
	const m, b = 32, 12
	enc, err := encoding.Incremental(m, b, 4)
	if err != nil {
		t.Fatal(err)
	}
	type query struct {
		tp string
		k  int
	}
	var qs []query
	for i := 0; i < 24; i++ {
		a := i % (m - 4)
		tp, k := tpFor(t, enc, m, a, a+1, a+3)
		qs = append(qs, query{tp, k})
	}
	// Queries past the session's initial ladder (k > 16), answered on
	// the session after it widens the ladder.
	for i := 0; i < 4; i++ {
		changes := make([]int, 20)
		for c := range changes {
			changes[c] = (c*3 + i) % m
		}
		sort.Ints(changes)
		tp, k := tpFor(t, enc, m, changes...)
		if k <= 16 {
			t.Fatalf("large-k query %d has k=%d, want > 16", i, k)
		}
		qs = append(qs, query{tp, k})
	}

	const workers = 8
	_, base, reg := startServer(t, Config{Workers: workers, QueueDepth: 2048, Oracle: "sat-inc"}, 0)
	specJSON := fmt.Sprintf(`{"m":%d,"b":%d}`, m, b)
	var wg sync.WaitGroup
	var bad atomic.Int64
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, q := range qs {
				body := fmt.Sprintf(`{"encoding":%s,"tp":%q,"k":%d}`, specJSON, q.tp, q.k)
				resp, err := http.Post(base+"/v1/reconstruct", "application/json", strings.NewReader(body))
				if err != nil {
					bad.Add(1)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					bad.Add(1)
				}
			}
			// One batch carrying the whole mix.
			jobs := make([]string, len(qs))
			for i, q := range qs {
				jobs[i] = fmt.Sprintf(`{"tp":%q,"k":%d}`, q.tp, q.k)
			}
			code, out := postBatch(t, base, fmt.Sprintf(`{"encoding":%s,"jobs":[%s]}`, specJSON, strings.Join(jobs, ",")))
			if code != http.StatusOK {
				bad.Add(1)
				return
			}
			for _, jr := range out.Jobs {
				if jr.Status != http.StatusOK {
					t.Errorf("goroutine %d: batch job %d: %d %s", g, jr.Index, jr.Status, jr.Error)
				}
			}
		}(g)
	}
	wg.Wait()
	if n := bad.Load(); n != 0 {
		t.Fatalf("%d requests failed", n)
	}
	snap := reg.Snapshot()
	solves := snap.Counters[MetricSolves]
	reuse := snap.Counters[MetricSessionReuse]
	clone := snap.Counters[MetricSessionClone]
	retired := snap.Counters[reconstruct.MetricOracleSessionRetired]
	if solves == 0 || reuse == 0 {
		t.Fatalf("degenerate run: solves=%d reuse=%d clone=%d", solves, reuse, clone)
	}
	if reuse+clone != solves {
		t.Fatalf("accounting leak: reuse(%d) + clone(%d) = %d, want solves=%d", reuse, clone, reuse+clone, solves)
	}
	if clone > workers+retired {
		t.Fatalf("clone = %d > Workers (%d) + retired (%d): the session pool outgrew admission's concurrency bound", clone, workers, retired)
	}
	if fb := snap.Counters[reconstruct.MetricDispatchFallback]; fb != 0 {
		t.Fatalf("fallbacks = %d, want 0", fb)
	}
}

// TestCacheKeyCanonicalization pins the documented cache-key contract:
// keys agree iff the engine would do identical work — property
// formatting is canonicalized away, while limit, count-mode, entry and
// spec differences keep keys distinct.
func TestCacheKeyCanonicalization(t *testing.T) {
	spec, err := EncodingSpec{M: 16, B: 9}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	entry := core.LogEntry{TP: bitvec.FromUint(0xA5, 9), K: 2}
	key := func(props string, e core.LogEntry, limit int, countOnly bool, sp EncodingSpec) string {
		t.Helper()
		_, pk, err := canonProps(props)
		if err != nil {
			t.Fatalf("props %q: %v", props, err)
		}
		return cacheKey(sp.key(), e, pk, limit, countOnly)
	}
	base := key("mingap(3); dk(32,3)", entry, 16, false, spec)

	same := []string{
		"mingap(3);dk(32,3)",
		"mingap(3) ;  dk(32,3)",
		"MINGAP(3); DK(32,3)",
	}
	for _, props := range same {
		if got := key(props, entry, 16, false, spec); got != base {
			t.Errorf("props %q keyed differently from the canonical spelling", props)
		}
	}
	// Every negative limit asks for the same exhaustive enumeration, so
	// the planner must hand them all one key.
	planned := func(limit int) string {
		t.Helper()
		p, err := planJob(spec, jobSpec{TP: entry.TP.String(), K: entry.K, Properties: "mingap(3); dk(32,3)", Limit: limit}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return cacheKey(spec.key(), p.items[0].entry, p.opts.propKey, p.opts.limit, p.opts.countOnly)
	}
	if planned(-7) != planned(-1) {
		t.Error("limits -7 and -1 keyed differently: both are exhaustive")
	}

	specRandom, err := EncodingSpec{Scheme: "random", M: 16, B: 9, Seed: 7}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	distinct := map[string]string{
		"different props": key("mingap(4); dk(32,3)", entry, 16, false, spec),
		"no props":        key("", entry, 16, false, spec),
		"different limit": key("mingap(3); dk(32,3)", entry, 17, false, spec),
		"count mode":      key("mingap(3); dk(32,3)", entry, 16, true, spec),
		"different k":     key("mingap(3); dk(32,3)", core.LogEntry{TP: entry.TP, K: 3}, 16, false, spec),
		"different spec":  key("mingap(3); dk(32,3)", entry, 16, false, specRandom),
		"exhaustive":      planned(-1),
	}
	seen := map[string]string{base: "base"}
	for name, k := range distinct {
		if prev, dup := seen[k]; dup {
			t.Errorf("%s collides with %s", name, prev)
		}
		seen[k] = name
	}
}

// TestBatchJobOrderSharesCache is the batch-level face of the same
// contract: two batches that differ only in job order produce the same
// per-entry cache keys, so the second batch is answered entirely from
// the cache.
func TestBatchJobOrderSharesCache(t *testing.T) {
	const m, b = 16, 9
	enc, err := encoding.Incremental(m, b, 4)
	if err != nil {
		t.Fatal(err)
	}
	_, base, reg := startServer(t, Config{Workers: 2}, 0)
	jobs := make([]string, 3)
	for i := range jobs {
		tp, k := tpFor(t, enc, m, i+1, i+5, i+9)
		jobs[i] = fmt.Sprintf(`{"tp":%q,"k":%d}`, tp, k)
	}
	spec := fmt.Sprintf(`{"m":%d,"b":%d}`, m, b)
	if code, _ := postBatch(t, base, fmt.Sprintf(`{"encoding":%s,"jobs":[%s,%s,%s]}`, spec, jobs[0], jobs[1], jobs[2])); code != 200 {
		t.Fatalf("first batch: %d", code)
	}
	code, out := postBatch(t, base, fmt.Sprintf(`{"encoding":%s,"jobs":[%s,%s,%s]}`, spec, jobs[2], jobs[0], jobs[1]))
	if code != 200 {
		t.Fatalf("reordered batch: %d", code)
	}
	for i, jr := range out.Jobs {
		if len(jr.Results) != 1 || !jr.Results[0].Cached {
			t.Fatalf("reordered job %d not served from cache: %+v", i, jr.Results)
		}
	}
	if solves := reg.Snapshot().Counters[MetricSolves]; solves != 3 {
		t.Fatalf("solves = %d across both batches, want 3 (order canonicalized away)", solves)
	}
}

// TestBatchPressureDoesNotEvictInFlightSession pins the eviction
// discipline: a session evicted from the table while a batch still
// holds it keeps serving that batch (no rebuild, no error); only a
// returning client pays the rebuild.
func TestBatchPressureDoesNotEvictInFlightSession(t *testing.T) {
	const m, b = 16, 9
	enc, err := encoding.Incremental(m, b, 4)
	if err != nil {
		t.Fatal(err)
	}
	tp, k := tpFor(t, enc, m, 3, 7)
	_, base, reg := startServer(t, Config{MaxSessions: 1, Workers: 2, QueueDepth: 16}, 150*time.Millisecond)
	spec := fmt.Sprintf(`{"m":%d,"b":%d}`, m, b)

	type result struct {
		code int
		out  batchResponse
	}
	done := make(chan result, 1)
	go func() {
		c, o := postBatch(t, base, fmt.Sprintf(`{"encoding":%s,"jobs":[{"tp":%q,"k":%d},{"tp":%q,"k":%d,"limit":8}]}`, spec, tp, k, tp, k))
		done <- result{c, o}
	}()
	waitGauge(t, reg, MetricSolveBusy, 1)

	// Two other specs (same geometry, different random codebooks)
	// stampede the size-1 session table, evicting the batch's entry
	// while its solves are still in flight (the session lookup happens
	// at request start, before admission queues).
	for seed := 1; seed <= 2; seed++ {
		evict := fmt.Sprintf(`{"encoding":{"scheme":"random","m":%d,"b":%d,"seed":%d},"tp":%q,"k":%d}`, m, b, seed, tp, k)
		resp, err := http.Post(base+"/v1/reconstruct", "application/json", strings.NewReader(evict))
		if err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("evicting request (seed %d): %v %v", seed, err, resp)
		}
		resp.Body.Close()
	}
	res := <-done
	if res.code != http.StatusOK {
		t.Fatalf("in-flight batch failed after eviction: %d", res.code)
	}
	for i, jr := range res.out.Jobs {
		if jr.Status != http.StatusOK {
			t.Fatalf("job %d: %d %s", i, jr.Status, jr.Error)
		}
	}
	builds := reg.Snapshot().Counters[MetricEncodingBuilds]
	if builds != 3 {
		t.Fatalf("builds = %d during the in-flight phase, want 3 (batch spec once + two evictors)", builds)
	}
	// The returning client pays exactly one rebuild.
	body := fmt.Sprintf(`{"encoding":%s,"tp":%q,"k":%d,"limit":4}`, spec, tp, k)
	resp, err := http.Post(base+"/v1/reconstruct", "application/json", strings.NewReader(body))
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("returning request: %v %v", err, resp)
	}
	resp.Body.Close()
	if got := reg.Snapshot().Counters[MetricEncodingBuilds]; got != builds+1 {
		t.Fatalf("builds = %d after return, want %d", got, builds+1)
	}
}

// TestBatchExceedingQueueRejectedAtomically pins atomic admission: a
// batch whose entry count cannot fit the queue is shed whole — 429,
// zero jobs admitted, zero solves run — and the failed reservation
// leaves no residue (a fitting batch right after succeeds).
func TestBatchExceedingQueueRejectedAtomically(t *testing.T) {
	const m, b = 16, 9
	enc, err := encoding.Incremental(m, b, 4)
	if err != nil {
		t.Fatal(err)
	}
	tp, k := tpFor(t, enc, m, 2, 9)
	_, base, reg := startServer(t, Config{QueueDepth: 4, Workers: 1}, 0)
	spec := fmt.Sprintf(`{"m":%d,"b":%d}`, m, b)
	job := fmt.Sprintf(`{"tp":%q,"k":%d}`, tp, k)

	big := fmt.Sprintf(`{"encoding":%s,"jobs":[%s,%s,%s,%s,%s]}`, spec, job, job, job, job, job)
	resp, err := http.Post(base+"/v1/batch", "application/json", strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("oversized batch: %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	snap := reg.Snapshot()
	if snap.Counters[MetricBatchJobs] != 0 || snap.Counters[MetricSolves] != 0 {
		t.Fatalf("partial admission: jobs=%d solves=%d, want 0/0",
			snap.Counters[MetricBatchJobs], snap.Counters[MetricSolves])
	}
	if snap.Counters[MetricBatchShed] != 1 || snap.Counters[MetricShed] != 1 {
		t.Fatalf("shed accounting: batch=%d total=%d, want 1/1",
			snap.Counters[MetricBatchShed], snap.Counters[MetricShed])
	}
	if snap.Gauges[MetricQueueDepth].Value != 0 {
		t.Fatalf("queue gauge %d after atomic rejection, want 0", snap.Gauges[MetricQueueDepth].Value)
	}

	code, out := postBatch(t, base, fmt.Sprintf(`{"encoding":%s,"jobs":[%s,%s,%s]}`, spec, job, job, job))
	if code != http.StatusOK {
		t.Fatalf("fitting batch after rejection: %d", code)
	}
	for _, jr := range out.Jobs {
		if jr.Status != http.StatusOK {
			t.Fatalf("job %d after rejection: %d %s", jr.Index, jr.Status, jr.Error)
		}
	}
}

// TestDrainCompletesInFlightBatch pins graceful shutdown: a batch
// whose solves are running when Shutdown begins completes with full
// results inside the drain budget.
func TestDrainCompletesInFlightBatch(t *testing.T) {
	const m, b = 16, 9
	enc, err := encoding.Incremental(m, b, 4)
	if err != nil {
		t.Fatal(err)
	}
	tp, k := tpFor(t, enc, m, 4, 10)
	srv, base, reg := startServer(t, Config{Workers: 2}, 200*time.Millisecond)
	spec := fmt.Sprintf(`{"m":%d,"b":%d}`, m, b)

	type result struct {
		code int
		out  batchResponse
	}
	done := make(chan result, 1)
	go func() {
		// Distinct limits keep the three jobs from coalescing, so all
		// three really occupy the solve path during the drain.
		c, o := postBatch(t, base, fmt.Sprintf(
			`{"encoding":%s,"jobs":[{"tp":%q,"k":%d},{"tp":%q,"k":%d,"limit":8},{"tp":%q,"k":%d,"limit":4}]}`,
			spec, tp, k, tp, k, tp, k))
		done <- result{c, o}
	}()
	waitGauge(t, reg, MetricSolveBusy, 1)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	res := <-done
	if res.code != http.StatusOK {
		t.Fatalf("in-flight batch during drain: %d", res.code)
	}
	for _, jr := range res.out.Jobs {
		if jr.Status != http.StatusOK {
			t.Fatalf("job %d during drain: %d %s", jr.Index, jr.Status, jr.Error)
		}
	}
}

// --- streaming ingest ---

func startStreamServer(t testing.TB, cfg Config) (*Server, string, *obs.Registry) {
	t.Helper()
	cfg.StreamAddr = "127.0.0.1:0"
	srv, _, reg := startServer(t, cfg, 0)
	return srv, srv.StreamAddr().String(), reg
}

// TestStreamIngestAndResume drives the full stream lifecycle: hello,
// frames advancing the trace-cycle position, a clean end, and a
// reconnect resuming exactly where the stream left off — all on one
// encoding build.
func TestStreamIngestAndResume(t *testing.T) {
	const m, b = 16, 9
	wire1, truth := testLog(t, m, b, 3, 7)
	wire2, _ := testLog(t, m, b, 2)
	_, streamAddr, reg := startStreamServer(t, Config{Workers: 2, Oracle: "sat-inc"})

	hello := StreamHello{Device: "dev0", Signal: "net.valid", Encoding: EncodingSpec{M: m, B: b}, Limit: -1}
	sc, err := DialStream(streamAddr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	ack, err := sc.Hello(hello)
	if err != nil {
		t.Fatal(err)
	}
	if ack.M != m || ack.B != b || ack.NextTraceCycle != 0 {
		t.Fatalf("ack %+v", ack)
	}
	for i, wire := range [][]byte{wire1, wire2} {
		msg, err := sc.SendFrame(wire)
		if err != nil || msg.Status != 0 {
			t.Fatalf("frame %d: %v %+v", i, err, msg)
		}
		if msg.TraceCycleBase != i {
			t.Fatalf("frame %d base %d, want %d", i, msg.TraceCycleBase, i)
		}
		if i == 0 {
			found := false
			for _, c := range msg.Results[0].Candidates {
				if c == truth.String() {
					found = true
				}
			}
			if !found {
				t.Fatalf("frame 0 candidates %v missing truth", msg.Results[0].Candidates)
			}
		}
	}
	doneMsg, err := sc.End()
	if err != nil || doneMsg.Frames != 2 || doneMsg.Entries != 2 {
		t.Fatalf("end: %v %+v", err, doneMsg)
	}
	sc.Close()

	// Reconnect: the stream position survives the connection.
	sc2 := mustHello(t, streamAddr, hello, 2)
	defer sc2.Close()
	// A second hello on a live connection is a protocol violation: the
	// server reads it as a garbage frame header and refuses it.
	if ack2, err := sc2.Hello(hello); err == nil {
		t.Fatalf("double hello on one connection accepted: %+v", ack2)
	}
	snap := reg.Snapshot()
	if snap.Counters[MetricEncodingBuilds] != 1 {
		t.Fatalf("builds = %d across the whole stream, want 1", snap.Counters[MetricEncodingBuilds])
	}
	if snap.Counters[MetricStreamFrames] != 2 || snap.Counters[MetricStreamEntries] != 2 {
		t.Fatalf("frames/entries = %d/%d, want 2/2",
			snap.Counters[MetricStreamFrames], snap.Counters[MetricStreamEntries])
	}
}

// mustHello dials and handshakes, retrying briefly while the previous
// connection's busy claim is being released, and asserts the resume
// position.
func mustHello(t testing.TB, addr string, hello StreamHello, wantNext int) *StreamClient {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		sc, err := DialStream(addr, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		ack, herr := sc.Hello(hello)
		if herr == nil {
			if ack.NextTraceCycle != wantNext {
				t.Fatalf("resume position %d, want %d", ack.NextTraceCycle, wantNext)
			}
			return sc
		}
		sc.Close()
		if time.Now().After(deadline) {
			t.Fatalf("hello never accepted: %v", herr)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestStreamFailureDiscipline pins the failure split: a busy stream
// refuses a second connection, a corrupt frame answers 400 and closes
// without advancing the position, and a reconnect under a different
// spec is refused.
func TestStreamFailureDiscipline(t *testing.T) {
	const m, b = 16, 9
	wire, _ := testLog(t, m, b, 3)
	badGeometry, _ := testLog(t, 32, 11, 2)
	_, streamAddr, reg := startStreamServer(t, Config{Workers: 2})
	hello := StreamHello{Device: "dev1", Signal: "sig", Encoding: EncodingSpec{M: m, B: b}}

	sc, err := DialStream(streamAddr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc.Hello(hello); err != nil {
		t.Fatal(err)
	}
	// Busy: a second live connection for the same (device, signal).
	sc2, err := DialStream(streamAddr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc2.Hello(hello); err == nil || !strings.Contains(err.Error(), "live connection") {
		t.Fatalf("busy stream accepted a second connection: %v", err)
	}
	sc2.Close()

	// One good frame advances the position...
	if msg, err := sc.SendFrame(wire); err != nil || msg.Status != 0 {
		t.Fatalf("good frame: %v %+v", err, msg)
	}
	// ...then a frame with the wrong geometry answers 400 and closes.
	msg, err := sc.SendFrame(badGeometry)
	if err != nil || msg.Status != http.StatusBadRequest {
		t.Fatalf("bad-geometry frame: %v %+v", err, msg)
	}
	if _, err := sc.SendFrame(wire); err == nil {
		t.Fatal("connection survived a corrupt frame")
	}
	sc.Close()
	if got := reg.Snapshot().Counters[MetricStreamFrameErrors]; got != 1 {
		t.Fatalf("frame errors = %d, want 1", got)
	}

	// Reconnect resumes past the good frame only; a different spec for
	// the same stream is refused.
	sc3 := mustHello(t, streamAddr, hello, 1)
	sc3.Close()
	other := hello
	other.Encoding = EncodingSpec{Scheme: "random", M: m, B: b, Seed: 3}
	deadline := time.Now().Add(5 * time.Second)
	for {
		sc4, err := DialStream(streamAddr, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		_, herr := sc4.Hello(other)
		sc4.Close()
		if herr != nil && strings.Contains(herr.Error(), "different encoding spec") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("spec mismatch never refused: %v", herr)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// A hello without a device/signal identity is rejected outright.
	sc5, err := DialStream(streamAddr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sc5.Hello(StreamHello{}); err == nil {
		t.Fatal("empty hello accepted")
	}
	sc5.Close()
}

// TestStreamDrain pins shutdown behavior: a connection idle between
// frames is woken and told the server is draining, and Shutdown
// returns cleanly.
func TestStreamDrain(t *testing.T) {
	const m, b = 16, 9
	wire, _ := testLog(t, m, b, 3)
	srv, streamAddr, _ := startStreamServer(t, Config{Workers: 2})
	sc, err := DialStream(streamAddr, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	if _, err := sc.Hello(StreamHello{Device: "d", Signal: "s", Encoding: EncodingSpec{M: m, B: b}}); err != nil {
		t.Fatal(err)
	}
	if msg, err := sc.SendFrame(wire); err != nil || msg.Status != 0 {
		t.Fatalf("frame: %v %+v", err, msg)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown with an idle stream connection: %v", err)
	}
	msg, err := sc.readMsg()
	if err != nil || msg.State != "draining" {
		t.Fatalf("draining goodbye: %v %+v", err, msg)
	}
}

// claimWithin runs one claim on a goroutine and fails the test if it
// does not return in time: a table that spins under its lock would
// otherwise hang the test binary.
func claimWithin(t *testing.T, tbl *streamTable, device string) (*streamState, error) {
	t.Helper()
	type result struct {
		st  *streamState
		err error
	}
	done := make(chan result, 1)
	go func() {
		st, err := tbl.claim(device, "sig", "spec")
		done <- result{st, err}
	}()
	select {
	case r := <-done:
		return r.st, r.err
	case <-time.After(5 * time.Second):
		t.Fatalf("claim(%s) did not return", device)
		return nil, nil
	}
}

// TestStreamTableFullRefuses pins the table's bound: with every stream
// busy a new claim is refused with errStreamTableFull instead of
// spinning under the table lock, and once a stream is released its
// slot goes to the next new stream (the idle stream is evicted).
func TestStreamTableFullRefuses(t *testing.T) {
	tbl := newStreamTable(2)
	for _, dev := range []string{"a", "b"} {
		if _, err := claimWithin(t, tbl, dev); err != nil {
			t.Fatalf("claim %s: %v", dev, err)
		}
	}
	if _, err := claimWithin(t, tbl, "c"); !errors.Is(err, errStreamTableFull) {
		t.Fatalf("third claim on a full busy table: %v, want errStreamTableFull", err)
	}
	tbl.release("a", "sig")
	if _, err := claimWithin(t, tbl, "c"); err != nil {
		t.Fatalf("claim after a release: %v", err)
	}
	if _, ok := tbl.items["a\x00sig"]; ok || tbl.ll.Len() != 2 {
		t.Fatalf("idle stream a not evicted: %d streams", tbl.ll.Len())
	}
	if _, err := claimWithin(t, tbl, "d"); !errors.Is(err, errStreamTableFull) {
		t.Fatalf("claim on a full table again: %v", err)
	}
}

// TestStreamTableFullOverWire drives the bound with real connections
// (run it under -race): with MaxStreams 2 and two live streams, a third
// hello is answered 503 "stream table full" while the live streams keep
// serving frames; after one stream ends, a new stream is accepted.
func TestStreamTableFullOverWire(t *testing.T) {
	const m, b = 16, 9
	wire, _ := testLog(t, m, b, 3)
	_, streamAddr, _ := startStreamServer(t, Config{Workers: 2, MaxStreams: 2})
	hello := func(dev string) StreamHello {
		return StreamHello{Device: dev, Signal: "sig", Encoding: EncodingSpec{M: m, B: b}}
	}
	live := make([]*StreamClient, 2)
	for i := range live {
		live[i] = mustHello(t, streamAddr, hello(fmt.Sprintf("dev%d", i)), 0)
		defer live[i].Close()
	}

	var wg sync.WaitGroup
	for i, sc := range live {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for f := 0; f < 20; f++ {
				if msg, err := sc.SendFrame(wire); err != nil || msg.Status != 0 {
					t.Errorf("stream %d frame %d: %v %+v", i, f, err, msg)
					return
				}
			}
		}()
	}
	for i := 0; i < 4; i++ {
		sc, err := DialStream(streamAddr, 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		msg, err := sc.Hello(hello("extra"))
		sc.Close()
		if err == nil || msg.Status != http.StatusServiceUnavailable || msg.Error != "stream table full" {
			t.Fatalf("hello beyond MaxStreams: %v %+v, want 503 stream table full", err, msg)
		}
	}
	wg.Wait()

	if _, err := live[0].End(); err != nil {
		t.Fatal(err)
	}
	live[0].Close()
	sc := mustHello(t, streamAddr, hello("extra"), 0)
	defer sc.Close()
	if msg, err := sc.SendFrame(wire); err != nil || msg.Status != 0 {
		t.Fatalf("frame on the new stream: %v %+v", err, msg)
	}
}
