package service

import (
	"context"
	"net/http"
	"slices"
	"sort"
	"testing"

	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/reconstruct"
	"repro/internal/sat"
)

// Sequential distinct queries against one encoding session pinned to
// the incremental backend must all be answered by the one warm pooled
// session (no clones), with zero fallbacks to one-shot instances. (The oracle is
// pinned because auto-routing would send these small instances to the
// cheaper brute/decode backends.)
func TestIncrementalSessionCounters(t *testing.T) {
	_, base, reg := startServer(t, Config{Workers: 2, Oracle: "sat-inc"}, 0)
	queries := [][]int{{3, 7}, {2, 11}, {5, 9}}
	for i, changes := range queries {
		wire, _ := testLog(t, 16, 9, changes...)
		q := "scheme=incremental&depth=4&limit=-1"
		if i == 2 {
			q += "&properties=mingap(2)"
		}
		resp, body, err := postWire(base, wire, q)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("query %d: status %d (%v)", i, resp.StatusCode, body)
		}
		results := body["results"].([]any)
		r0 := results[0].(map[string]any)
		if r0["exhausted"] != true || r0["count"].(float64) < 1 {
			t.Fatalf("query %d: result %v", i, r0)
		}
	}
	snap := reg.Snapshot()
	reuse, clone := snap.Counters[MetricSessionReuse], snap.Counters[MetricSessionClone]
	if reuse != int64(len(queries)) || clone != 0 {
		t.Fatalf("reuse=%d clone=%d, want %d/0", reuse, clone, len(queries))
	}
	if fb := snap.Counters[reconstruct.MetricDispatchFallback]; fb != 0 {
		t.Fatalf("fallbacks = %d, want 0", fb)
	}
	if snap.Counters[sat.MetricAssumptionSolves] == 0 {
		t.Fatal("no assumption solves recorded")
	}
}

// A change count beyond the session's initial 16-wide ladder is
// answered on the session itself, which widens its ladder, with no fallback
// and exactly serial SAT's candidates. At m = 18 there are only
// C(18, 17) = 18 weight-17 signals, so the exhaustive enumeration
// stays cheap.
func TestIncrementalSessionServesLargeK(t *testing.T) {
	_, base, reg := startServer(t, Config{Oracle: "sat-inc"}, 0)
	changes := make([]int, 17)
	for i := range changes {
		changes[i] = i
	}
	wire, truth := testLog(t, 18, 9, changes...) // k = 17 > the ladder's 16
	resp, body, err := postWire(base, wire, "scheme=incremental&depth=4&limit=-1")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("status %d (%v)", resp.StatusCode, body)
	}
	r0 := body["results"].([]any)[0].(map[string]any)
	if r0["exhausted"] != true {
		t.Fatalf("result %v", r0)
	}
	enc, err := encoding.Incremental(18, 9, 4)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := reconstruct.NewDispatcher(enc, reconstruct.DispatchOptions{Force: reconstruct.RouteSAT})
	if err != nil {
		t.Fatal(err)
	}
	want, _, err := ref.Enumerate(context.Background(), core.Log(enc, truth), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var got, wantKeys []string
	for _, c := range r0["candidates"].([]any) {
		got = append(got, c.(string))
	}
	for _, s := range want {
		wantKeys = append(wantKeys, s.String())
	}
	sort.Strings(got)
	sort.Strings(wantKeys)
	if !slices.Equal(got, wantKeys) {
		t.Fatalf("session candidates %v, serial SAT %v", got, wantKeys)
	}
	snap := reg.Snapshot()
	if fb := snap.Counters[reconstruct.MetricDispatchFallback]; fb != 0 {
		t.Fatalf("fallbacks = %d, want 0", fb)
	}
	if n := snap.Counters[MetricSessionReuse] + snap.Counters[MetricSessionClone]; n != 1 {
		t.Fatalf("incremental solves = %d, want 1", n)
	}
}

// A property that does not fit the encoding is the request's fault at
// every k: 400 whether k would route to decode (k = 3) or to the
// session (k = 5), and never a fallback.
func TestOutOfRangePropertyIs400(t *testing.T) {
	_, base, reg := startServer(t, Config{}, 0)
	for _, changes := range [][]int{{3, 20, 41}, {3, 20, 41, 50, 60}} {
		wire, _ := testLog(t, 64, 13, changes...)
		resp, body, err := postWire(base, wire, "scheme=incremental&depth=4&properties=window(0,200)")
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("k=%d: status %d (%v), want 400", len(changes), resp.StatusCode, body)
		}
	}
	if fb := reg.Snapshot().Counters[reconstruct.MetricDispatchFallback]; fb != 0 {
		t.Fatalf("fallbacks = %d, want 0", fb)
	}
}
