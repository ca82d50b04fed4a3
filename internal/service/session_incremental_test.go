package service

import (
	"testing"

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
	if fb := snap.Counters[MetricSessionFallback]; fb != 0 {
		t.Fatalf("fallbacks = %d, want 0", fb)
	}
	if snap.Counters[sat.MetricAssumptionSolves] == 0 {
		t.Fatal("no assumption solves recorded")
	}
}

// A change count beyond the session ladder falls back to the one-shot
// path and still answers correctly.
func TestIncrementalFallbackOnLargeK(t *testing.T) {
	_, base, reg := startServer(t, Config{SessionMaxK: 2, Oracle: "sat-inc"}, 0)
	wire, _ := testLog(t, 16, 9, 2, 5, 9) // k = 3 > SessionMaxK
	resp, body, err := postWire(base, wire, "scheme=incremental&depth=4&limit=-1")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != 200 {
		t.Fatalf("status %d (%v)", resp.StatusCode, body)
	}
	r0 := body["results"].([]any)[0].(map[string]any)
	if r0["exhausted"] != true || r0["count"].(float64) < 1 {
		t.Fatalf("result %v", r0)
	}
	snap := reg.Snapshot()
	if fb := snap.Counters[MetricSessionFallback]; fb != 1 {
		t.Fatalf("fallbacks = %d, want 1", fb)
	}
	if n := snap.Counters[MetricSessionReuse] + snap.Counters[MetricSessionClone]; n != 0 {
		t.Fatalf("incremental solves = %d, want 0", n)
	}
}
