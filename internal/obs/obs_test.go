package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	if c := r.Counter("x"); c != nil {
		t.Fatal("nil registry handed out a counter")
	}
	r.Counter("x").Add(5)
	r.Counter("x").Inc()
	r.Gauge("g").Set(3)
	r.Gauge("g").Add(-1)
	r.Histogram("h").Observe(7)
	r.Histogram("h").ObserveDuration(time.Millisecond)
	sp := r.StartSpan("s")
	sp.End()
	if got := r.Counter("x").Value(); got != 0 {
		t.Fatalf("nil counter value = %d", got)
	}
	s := r.Snapshot()
	if len(s.Counters) != 0 || len(s.Gauges) != 0 || len(s.Histograms) != 0 {
		t.Fatalf("nil registry snapshot not empty: %+v", s)
	}
	// JSON shape must be invariant: maps present even when empty.
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"counters"`, `"gauges"`, `"histograms"`} {
		if !strings.Contains(buf.String(), key) {
			t.Errorf("snapshot JSON missing %s: %s", key, buf.String())
		}
	}
}

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a.b")
	c.Add(3)
	c.Inc()
	if c.Value() != 4 {
		t.Fatalf("counter = %d, want 4", c.Value())
	}
	if r.Counter("a.b") != c {
		t.Fatal("counter identity not stable")
	}
	g := r.Gauge("q")
	g.Set(10)
	g.Add(-4)
	g.Add(2)
	if g.Value() != 8 || g.Max() != 10 {
		t.Fatalf("gauge = %d max %d, want 8 max 10", g.Value(), g.Max())
	}
}

func TestHistogramBucketsAndQuantiles(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat")
	for _, v := range []int64{0, 1, 2, 3, 100, 1000, 1_000_000} {
		h.Observe(v)
	}
	if h.Count() != 7 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Sum() != 1_001_106 {
		t.Fatalf("sum = %d", h.Sum())
	}
	hs := r.Snapshot().Histograms["lat"]
	if hs.Min != 0 || hs.Max != 1_000_000 {
		t.Fatalf("min/max = %d/%d", hs.Min, hs.Max)
	}
	var total int64
	for _, b := range hs.Buckets {
		total += b.Count
	}
	if total != hs.Count {
		t.Fatalf("bucket counts sum to %d, count is %d", total, hs.Count)
	}
	// Buckets must be sorted ascending by upper bound.
	for i := 1; i < len(hs.Buckets); i++ {
		if hs.Buckets[i].Le <= hs.Buckets[i-1].Le {
			t.Fatalf("buckets not ascending: %+v", hs.Buckets)
		}
	}
	// The median of {0,1,2,3,100,1000,1e6} is 3; bucket resolution may
	// round up to the bucket bound 3.
	if q := hs.Quantile(0.5); q < 3 || q > 3 {
		t.Fatalf("p50 = %d, want 3", q)
	}
	if q := hs.Quantile(1.0); q < 1_000_000 {
		t.Fatalf("p100 = %d", q)
	}
	if q := hs.Quantile(0); q > 1 {
		t.Fatalf("p0 = %d", q)
	}
}

func TestSpanRecords(t *testing.T) {
	r := NewRegistry()
	sp := r.StartSpan("solve")
	time.Sleep(time.Millisecond)
	sp.End()
	s := r.Snapshot()
	if s.Counters["solve.calls"] != 1 {
		t.Fatalf("calls = %d", s.Counters["solve.calls"])
	}
	h := s.Histograms["solve.ns"]
	if h.Count != 1 || h.Sum < int64(time.Millisecond) {
		t.Fatalf("span histogram %+v", h)
	}
}

// TestStartSpanAllocs pins the span hot path: after a name's first
// call, which resolves its instruments, StartSpan(...).End() allocates
// nothing.
func TestStartSpanAllocs(t *testing.T) {
	r := NewRegistry()
	r.StartSpan("service.solve").End()
	if got := testing.AllocsPerRun(100, func() { r.StartSpan("service.solve").End() }); got != 0 {
		t.Fatalf("StartSpan(...).End(): %.0f allocs, want 0", got)
	}
	if c := r.Snapshot().Counters["service.solve.calls"]; c != 102 {
		t.Fatalf("service.solve.calls = %d, want 102", c)
	}
}

func TestSnapshotRoundTripAndText(t *testing.T) {
	r := NewRegistry()
	r.Counter("sat.decisions").Add(42)
	r.Gauge("pool.depth").Set(3)
	r.Histogram("solve.ns").Observe(1500)
	var buf bytes.Buffer
	if err := r.DumpJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ParseSnapshot(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Counters["sat.decisions"] != 42 {
		t.Fatalf("round-trip counters: %+v", got.Counters)
	}
	if got.Gauges["pool.depth"].Value != 3 {
		t.Fatalf("round-trip gauges: %+v", got.Gauges)
	}
	if got.Histograms["solve.ns"].Count != 1 {
		t.Fatalf("round-trip histograms: %+v", got.Histograms)
	}
	txt := got.Text()
	for _, want := range []string{"counter", "sat.decisions", "gauge", "pool.depth", "histogram", "solve.ns"} {
		if !strings.Contains(txt, want) {
			t.Errorf("text form missing %q:\n%s", want, txt)
		}
	}
	// Unknown fields must be rejected: the -metrics JSON is a contract.
	if _, err := ParseSnapshot(strings.NewReader(`{"counters":{},"bogus":1}`)); err == nil {
		t.Error("unknown top-level field accepted")
	}
}

// TestRegistryConcurrent hammers one registry from many goroutines —
// the -race lock-in for concurrent Registry use (parallel solver
// workers all flush into the same instruments).
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	const goroutines = 16
	const iters = 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				// Mix of shared and per-goroutine names exercises both
				// the read-lock fast path and map growth.
				r.Counter("shared").Inc()
				r.Counter(fmt.Sprintf("per.%d", g%4)).Add(2)
				r.Gauge("depth").Add(1)
				r.Gauge("depth").Add(-1)
				r.Histogram("h").Observe(int64(i))
				sp := r.StartSpan("span")
				sp.End()
				if i%100 == 0 {
					_ = r.Snapshot() // concurrent snapshotting must be safe
				}
			}
		}()
	}
	wg.Wait()
	s := r.Snapshot()
	if s.Counters["shared"] != goroutines*iters {
		t.Fatalf("shared = %d, want %d", s.Counters["shared"], goroutines*iters)
	}
	if s.Histograms["h"].Count != goroutines*iters {
		t.Fatalf("histogram count = %d", s.Histograms["h"].Count)
	}
	if s.Counters["span.calls"] != goroutines*iters {
		t.Fatalf("span calls = %d", s.Counters["span.calls"])
	}
	if s.Gauges["depth"].Value != 0 {
		t.Fatalf("depth settled at %d", s.Gauges["depth"].Value)
	}
}

// TestDeterministicSnapshotJSON asserts two identical workloads produce
// byte-identical counter JSON — the property the cross-oracle counter
// invariant builds on.
func TestDeterministicSnapshotJSON(t *testing.T) {
	run := func() []byte {
		r := NewRegistry()
		for i := 0; i < 100; i++ {
			r.Counter("a").Inc()
			r.Counter("b").Add(3)
			r.Histogram("h").Observe(int64(i * i))
		}
		b, err := json.Marshal(r.Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if a, b := run(), run(); !bytes.Equal(a, b) {
		t.Fatalf("snapshots differ:\n%s\n%s", a, b)
	}
}

func TestServeEndpoints(t *testing.T) {
	r := NewRegistry()
	r.Counter("sat.decisions").Add(7)
	addr, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	get := func(path string) string {
		resp, err := http.Get("http://" + addr.String() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		return buf.String()
	}
	if body := get("/metrics"); !strings.Contains(body, "sat.decisions") {
		t.Errorf("/metrics missing counter: %s", body)
	}
	if body := get("/metrics.txt"); !strings.Contains(body, "sat.decisions") {
		t.Errorf("/metrics.txt missing counter: %s", body)
	}
	if body := get("/debug/vars"); !strings.Contains(body, "timeprints") {
		t.Errorf("/debug/vars missing published registry")
	}
	if body := get("/debug/pprof/cmdline"); len(body) == 0 {
		t.Error("pprof endpoint empty")
	}
}
