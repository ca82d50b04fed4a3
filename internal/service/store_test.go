package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/logstore"
	"repro/internal/obs"
)

// openTestStore opens a logstore in dir with test-friendly options.
func openTestStore(t testing.TB, dir string) *logstore.Store {
	t.Helper()
	st, rec, err := logstore.Open(dir, logstore.Options{NoSync: true, SegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if rec.Corrupt() {
		t.Fatalf("store recovery reported damage: %v", rec.Errs)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func postJSON(t testing.TB, url string, body any) (*http.Response, []byte) {
	t.Helper()
	data, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	return resp, raw
}

// TestStoreTeeAndLogsEndpoint: unary wire-log jobs are teed into the
// store under their (device, signal, epoch) identity and GET /v1/logs
// serves both the stream listing and range listings over them.
func TestStoreTeeAndLogsEndpoint(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir)
	_, base, reg := startServer(t, Config{Store: st}, 0)

	wire, _ := testLog(t, 16, 8, 3, 9)
	for i := 0; i < 3; i++ {
		resp, raw := postJSON(t, base+"/v1/reconstruct", map[string]any{
			"encoding": map[string]any{"m": 16, "b": 8},
			"log":      wire,
			"device":   "ecu-7",
			"signal":   "brake_req",
			"epoch_us": 1000 + int64(i),
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("reconstruct %d: %d: %s", i, resp.StatusCode, raw)
		}
	}
	// An inline TP/K job must NOT tee (there is no wire body to store).
	resp, raw := postJSON(t, base+"/v1/count", map[string]any{
		"encoding": map[string]any{"m": 16, "b": 8},
		"tp":       "00000000", "k": 0,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("inline count: %d: %s", resp.StatusCode, raw)
	}

	if got := reg.Snapshot().Counters[MetricStoreTees]; got != 3 {
		t.Fatalf("%s = %d, want 3", MetricStoreTees, got)
	}

	// Keyless listing.
	httpResp, err := http.Get(base + "/v1/logs")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(httpResp.Body)
	httpResp.Body.Close()
	var listing logsResponse
	if err := json.Unmarshal(raw, &listing); err != nil {
		t.Fatalf("logs listing: %v: %s", err, raw)
	}
	if len(listing.Keys) != 1 || listing.Keys[0].Device != "ecu-7" || listing.Keys[0].Records != 3 {
		t.Fatalf("listing = %+v, want one ecu-7 stream with 3 records", listing.Keys)
	}
	if listing.Keys[0].MinEpochUS != 1000 || listing.Keys[0].MaxEpochUS != 1002 {
		t.Fatalf("epoch bounds [%d, %d], want [1000, 1002]", listing.Keys[0].MinEpochUS, listing.Keys[0].MaxEpochUS)
	}

	// Range listing with bodies: byte-identical to what was posted.
	httpResp, err = http.Get(base + "/v1/logs?device=ecu-7&signal=brake_req&from_epoch_us=1001&to_epoch_us=1002&include_bodies=1")
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = io.ReadAll(httpResp.Body)
	httpResp.Body.Close()
	var ranged logsResponse
	if err := json.Unmarshal(raw, &ranged); err != nil {
		t.Fatalf("logs range: %v: %s", err, raw)
	}
	if len(ranged.Records) != 2 {
		t.Fatalf("range returned %d records, want 2", len(ranged.Records))
	}
	for i, rec := range ranged.Records {
		if rec.M != 16 || rec.B != 8 || rec.Entries != 1 {
			t.Fatalf("record %d header (m=%d b=%d n=%d), want (16, 8, 1)", i, rec.M, rec.B, rec.Entries)
		}
		if !bytes.Equal(rec.Body, wire) {
			t.Fatalf("record %d body not byte-identical to the posted log", i)
		}
	}

	// Missing-signal selection is a 400, and /v1/logs without a store
	// is 404 (the mux never registered it).
	httpResp, err = http.Get(base + "/v1/logs?device=ecu-7")
	if err != nil {
		t.Fatal(err)
	}
	httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusBadRequest {
		t.Fatalf("device-only listing: %d, want 400", httpResp.StatusCode)
	}
	_, bare, _ := startServer(t, Config{}, 0)
	httpResp, err = http.Get(bare + "/v1/logs")
	if err != nil {
		t.Fatal(err)
	}
	httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusNotFound {
		t.Fatalf("storeless /v1/logs: %d, want 404", httpResp.StatusCode)
	}
}

// TestStreamTee: streaming-ingest frames are teed under the hello's
// (device, signal) with their stream position, and a re-sent frame
// after a transient error stores exactly once.
func TestStreamTee(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir)
	srv, _, reg := startServer(t, Config{Store: st, StreamAddr: "127.0.0.1:0"}, 0)

	wire, _ := testLog(t, 16, 8, 5)
	sc, err := DialStream(srv.StreamAddr().String(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer sc.Close()
	if _, err := sc.Hello(StreamHello{
		Device: "ecu-9", Signal: "clk",
		Encoding: EncodingSpec{M: 16, B: 8},
	}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		msg, err := sc.SendFrame(wire)
		if err != nil {
			t.Fatal(err)
		}
		if msg.Status != 0 {
			t.Fatalf("frame %d: status %d: %s", i, msg.Status, msg.Error)
		}
	}
	if _, err := sc.End(); err != nil {
		t.Fatal(err)
	}

	recs, err := st.Query(logstore.AllTime("ecu-9", "clk"))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("stored %d stream frames, want 2", len(recs))
	}
	for i, rec := range recs {
		if !bytes.Equal(rec.Body, wire) {
			t.Fatalf("frame %d body not byte-identical", i)
		}
		if rec.TraceCycleBase != int64(i) { // one entry per frame
			t.Fatalf("frame %d trace_cycle_base = %d, want %d", i, rec.TraceCycleBase, i)
		}
	}
	if got := reg.Snapshot().Counters[MetricStoreTees]; got != 2 {
		t.Fatalf("%s = %d, want 2", MetricStoreTees, got)
	}
}

// equivCase is one store-vs-body equivalence corpus entry.
type equivCase struct {
	m, b    int
	changes []int
	props   string
	limit   int
	count   bool
}

// equivCorpus is the seeded diffcheck-style corpus: geometry, change
// patterns, properties, limits and count-only all vary.
func equivCorpus() []equivCase {
	return []equivCase{
		{m: 8, b: 6, changes: []int{2}, limit: 8},
		{m: 8, b: 6, changes: []int{2}, limit: 8, count: true},
		{m: 8, b: 6, changes: []int{1, 5}, limit: -1},
		{m: 16, b: 8, changes: []int{3, 9}, limit: 16},
		{m: 16, b: 8, changes: []int{3, 9}, props: "mingap(2)", limit: 16},
		{m: 16, b: 8, changes: []int{}, limit: 4},
		{m: 16, b: 8, changes: []int{0, 7, 12}, limit: -1, count: true},
		{m: 12, b: 8, changes: []int{4, 8}, props: "mingap(3)", limit: 8},
		{m: 12, b: 8, changes: []int{11}, limit: 8},
		{m: 24, b: 10, changes: []int{6, 17}, limit: 8},
		{m: 24, b: 10, changes: []int{6, 17}, limit: 8, count: true},
		{m: 24, b: 10, changes: []int{1, 2, 3}, props: "dk(24,3)", limit: 8},
	}
}

// stripVolatile zeroes the per-request transport flags that may
// legitimately differ between the two paths (cache/coalesce state
// depends on request order, not on the reconstruction).
func stripVolatile(results []entryResponse) []entryResponse {
	out := make([]entryResponse, len(results))
	for i, r := range results {
		r.Cached, r.Coalesced = false, false
		out[i] = r
	}
	return out
}

// TestStoreBodyEquivalence is the store-vs-body satellite: the seeded
// corpus goes through the request-body path once, is teed into the
// store, and POST /v1/query must return bit-identical reconstruction
// results — including across a full server AND store restart on the
// same directory (the -store-dir persistence acceptance criterion).
func TestStoreBodyEquivalence(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir)
	_, base, _ := startServer(t, Config{Store: st}, 0)

	corpus := equivCorpus()
	bodyResults := make([][]entryResponse, len(corpus))
	for i, c := range corpus {
		wire, _ := testLog(t, c.m, c.b, c.changes...)
		endpoint := "/v1/reconstruct"
		if c.count {
			endpoint = "/v1/count"
		}
		resp, raw := postJSON(t, base+endpoint, map[string]any{
			"encoding":   map[string]any{"m": c.m, "b": c.b},
			"log":        wire,
			"properties": c.props,
			"limit":      c.limit,
			"device":     "ecu-equiv",
			"signal":     fmt.Sprintf("case-%02d", i),
			"epoch_us":   int64(10_000 + i),
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("case %d body path: %d: %s", i, resp.StatusCode, raw)
		}
		var jr jobResponse
		if err := json.Unmarshal(raw, &jr); err != nil {
			t.Fatal(err)
		}
		bodyResults[i] = stripVolatile(jr.Results)
	}

	queryOnce := func(t *testing.T, base string, when string) {
		for i, c := range corpus {
			endpoint := "/v1/query"
			resp, raw := postJSON(t, base+endpoint, map[string]any{
				"device":     "ecu-equiv",
				"signal":     fmt.Sprintf("case-%02d", i),
				"encoding":   map[string]any{"m": c.m, "b": c.b},
				"properties": c.props,
				"limit":      c.limit,
				"count_only": c.count,
			})
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("%s case %d query path: %d: %s", when, i, resp.StatusCode, raw)
			}
			var qr queryResponse
			if err := json.Unmarshal(raw, &qr); err != nil {
				t.Fatal(err)
			}
			if len(qr.Records) != 1 {
				t.Fatalf("%s case %d: query returned %d records, want 1", when, i, len(qr.Records))
			}
			if qr.Records[0].EpochUS != int64(10_000+i) {
				t.Fatalf("%s case %d: epoch %d, want %d", when, i, qr.Records[0].EpochUS, 10_000+i)
			}
			got := stripVolatile(qr.Records[0].Results)
			if !reflect.DeepEqual(got, bodyResults[i]) {
				t.Fatalf("%s case %d: store path diverges from body path:\nstore: %+v\nbody:  %+v",
					when, i, got, bodyResults[i])
			}
		}
	}
	queryOnce(t, base, "warm")

	// Restart: a fresh store on the same directory behind a fresh
	// server (cold caches, cold sessions) must reproduce the exact
	// same results from disk.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2 := openTestStore(t, dir)
	_, base2, _ := startServer(t, Config{Store: st2}, 0)
	queryOnce(t, base2, "restarted")
}

// TestStoreQueryValidation covers /v1/query's failure surface.
func TestStoreQueryValidation(t *testing.T) {
	st := openTestStore(t, t.TempDir())
	_, base, _ := startServer(t, Config{Store: st}, 0)

	resp, _ := postJSON(t, base+"/v1/query", map[string]any{"signal": "s"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("missing device: %d, want 400", resp.StatusCode)
	}
	// Unknown stream: empty result set, not an error.
	resp, raw := postJSON(t, base+"/v1/query", map[string]any{"device": "nope", "signal": "s"})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("unknown stream: %d: %s", resp.StatusCode, raw)
	}
	var qr queryResponse
	if err := json.Unmarshal(raw, &qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.Records) != 0 {
		t.Fatalf("unknown stream returned %d records", len(qr.Records))
	}
	// Geometry contradiction between request and stored frames: 400.
	wire, _ := testLog(t, 16, 8, 3)
	resp, raw = postJSON(t, base+"/v1/reconstruct", map[string]any{
		"encoding": map[string]any{"m": 16, "b": 8},
		"log":      wire, "device": "d", "signal": "s",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("seed job: %d: %s", resp.StatusCode, raw)
	}
	resp, _ = postJSON(t, base+"/v1/query", map[string]any{
		"device": "d", "signal": "s",
		"encoding": map[string]any{"m": 8, "b": 6},
	})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("geometry mismatch: %d, want 400", resp.StatusCode)
	}
}

// TestStoreLogsBadParams: malformed /v1/logs selections are 400s that
// name the offending parameter. The parameters are parsed in a fixed
// order, so a request with several bad values always reports the same
// one; each row is sent several times to show it.
func TestStoreLogsBadParams(t *testing.T) {
	st := openTestStore(t, t.TempDir())
	_, base, _ := startServer(t, Config{Store: st}, 0)
	for _, tc := range []struct {
		query string
		want  string // substring of the error message
	}{
		{"device=d", "need both device and signal"},
		{"device=d&signal=s&from_epoch_us=x", "from_epoch_us"},
		{"device=d&signal=s&to_epoch_us=y", "to_epoch_us"},
		{"device=d&signal=s&to_epoch_us=y&from_epoch_us=x", `from_epoch_us="x"`},
		{"device=d&signal=s&limit=0", "limit"},
	} {
		for i := 0; i < 8; i++ {
			httpResp, err := http.Get(base + "/v1/logs?" + tc.query)
			if err != nil {
				t.Fatal(err)
			}
			raw, _ := io.ReadAll(httpResp.Body)
			httpResp.Body.Close()
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(raw, &e); err != nil {
				t.Fatalf("%s: %v: %s", tc.query, err, raw)
			}
			if httpResp.StatusCode != http.StatusBadRequest || !strings.Contains(e.Error, tc.want) {
				t.Fatalf("%s: %d %q, want 400 naming %s", tc.query, httpResp.StatusCode, e.Error, tc.want)
			}
		}
	}
}

// TestStoreLimitPushdown: both read endpoints bound how many stored
// records a request returns or replays, flagging truncation — backed
// by logstore.Query.Limit, so an unbounded epoch range never
// materializes the whole stream server-side.
func TestStoreLimitPushdown(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir)
	_, base, _ := startServer(t, Config{Store: st}, 0)

	wire, _ := testLog(t, 16, 8, 2)
	for i := 0; i < 5; i++ {
		resp, raw := postJSON(t, base+"/v1/reconstruct", map[string]any{
			"encoding": map[string]any{"m": 16, "b": 8},
			"log":      wire, "device": "ecu-lim", "signal": "sig",
			"epoch_us": 100 + int64(i),
		})
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("seed %d: %d: %s", i, resp.StatusCode, raw)
		}
	}

	getLogs := func(limit string) logsResponse {
		t.Helper()
		httpResp, err := http.Get(base + "/v1/logs?device=ecu-lim&signal=sig&limit=" + limit)
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(httpResp.Body)
		httpResp.Body.Close()
		if httpResp.StatusCode != http.StatusOK {
			t.Fatalf("logs limit=%s: %d: %s", limit, httpResp.StatusCode, raw)
		}
		var lr logsResponse
		if err := json.Unmarshal(raw, &lr); err != nil {
			t.Fatalf("logs limit=%s: %v: %s", limit, err, raw)
		}
		return lr
	}
	if lr := getLogs("2"); len(lr.Records) != 2 || !lr.Truncated {
		t.Fatalf("limit=2 returned %d records (truncated=%v), want 2 truncated", len(lr.Records), lr.Truncated)
	}
	if lr := getLogs("5"); len(lr.Records) != 5 || lr.Truncated {
		t.Fatalf("limit=5 returned %d records (truncated=%v), want all 5 untruncated", len(lr.Records), lr.Truncated)
	}

	resp, raw := postJSON(t, base+"/v1/query", map[string]any{
		"device": "ecu-lim", "signal": "sig",
		"encoding":    map[string]any{"m": 16, "b": 8},
		"max_records": 3,
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query max_records=3: %d: %s", resp.StatusCode, raw)
	}
	var qr queryResponse
	if err := json.Unmarshal(raw, &qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.Records) != 3 || !qr.Truncated {
		t.Fatalf("max_records=3 replayed %d records (truncated=%v), want 3 truncated", len(qr.Records), qr.Truncated)
	}
	for i, rec := range qr.Records {
		if rec.EpochUS != 100+int64(i) {
			t.Fatalf("record %d has epoch %d; bounded replay must keep append order", i, rec.EpochUS)
		}
	}
}

// TestStoreTeeErrorDoesNotFailRequest: a closed store makes tees fail,
// which is counted but the serving request still succeeds.
func TestStoreTeeErrorDoesNotFailRequest(t *testing.T) {
	dir := t.TempDir()
	st, _, err := logstore.Open(dir, logstore.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	_, base, _ := startServer(t, Config{Store: st, Obs: reg}, 0)
	st.Close() // every tee now fails with ErrClosed

	wire, _ := testLog(t, 16, 8, 3)
	resp, raw := postJSON(t, base+"/v1/reconstruct", map[string]any{
		"encoding": map[string]any{"m": 16, "b": 8},
		"log":      wire, "device": "d", "signal": "s",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("request failed because the tee failed: %d: %s", resp.StatusCode, raw)
	}
	snap := reg.Snapshot()
	if snap.Counters[MetricStoreTeeErrors] != 1 || snap.Counters[MetricStoreTees] != 0 {
		t.Fatalf("tee errors/tees = %d/%d, want 1/0",
			snap.Counters[MetricStoreTeeErrors], snap.Counters[MetricStoreTees])
	}
	// Reads over the closed store fail closed with 503.
	httpResp, err := http.Get(base + "/v1/logs?device=d&signal=s")
	if err != nil {
		t.Fatal(err)
	}
	httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("closed-store listing: %d, want 503", httpResp.StatusCode)
	}
}
