// Package obs is the observability core of the repository: a
// dependency-free, allocation-conscious metrics layer — atomic
// counters, gauges, bounded log2-bucket latency histograms and named
// span timers — collected in a Registry that snapshots to a stable
// JSON/text form.
//
// The paper's whole evaluation is about where reconstruction time
// goes; obs makes the engine's internals (solver counters, presolve
// outcomes, per-trace-cycle solve latencies, pool utilization)
// first-class measurements instead of wall-clock inferences.
//
// Every method is nil-safe: a nil *Registry hands out nil instruments,
// and every instrument method on a nil receiver is a no-op. The hot
// layers therefore carry an optional *Registry and pay nothing — not
// even a map lookup — on the default (nil) path. Instruments are
// cheap enough to record into from concurrent goroutines: all state is
// atomic, and Registry lookups take a read lock only.
//
// Two conventions keep snapshots stable and comparable:
//
//   - Counters hold deterministic quantities wherever possible
//     (decisions, conflicts, propagations, models, entries, bytes), so
//     repeated runs of a seeded workload produce identical counter
//     maps — an invariant the test suite asserts on.
//   - Histograms hold the nondeterministic quantities (latencies,
//     sizes with scheduling-dependent order); their bucket counts are
//     still deterministic when the observed values are.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter. The zero value
// is ready to use; a nil *Counter is a no-op.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by d.
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	c.v.Add(d)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value reads the current count (0 on a nil receiver).
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic instantaneous value. The zero value is ready to
// use; a nil *Gauge is a no-op.
type Gauge struct {
	v   atomic.Int64
	max atomic.Int64
}

// Set stores the gauge value, tracking the high-water mark.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v.Store(v)
	g.bumpMax(v)
}

// Add shifts the gauge by d (d may be negative), tracking the
// high-water mark.
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.bumpMax(g.v.Add(d))
}

func (g *Gauge) bumpMax(v int64) {
	for {
		cur := g.max.Load()
		if v <= cur || g.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Value reads the current gauge value (0 on a nil receiver).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Max reads the high-water mark (0 on a nil receiver).
func (g *Gauge) Max() int64 {
	if g == nil {
		return 0
	}
	return g.max.Load()
}

// histBuckets is the fixed bucket count of a Histogram: bucket i
// collects values v with bits.Len64(v) == i, i.e. 2^(i-1) <= v < 2^i,
// with bucket 0 collecting v <= 0. 64 buckets cover the whole int64
// range, so a histogram is bounded by construction.
const histBuckets = 65

// Histogram is a bounded log2-bucket histogram of int64 observations
// (typically nanoseconds or sizes). Construct via Registry.Histogram;
// a nil *Histogram is a no-op. Observations cost a handful of atomic
// adds and min/max updates — no allocation, ever.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	min     atomic.Int64 // seeded to MaxInt64 so the CAS loop is race-free
	max     atomic.Int64 // seeded to MinInt64
	buckets [histBuckets]atomic.Int64
}

func newHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(int64(^uint64(0) >> 1))    // MaxInt64
	h.max.Store(-int64(^uint64(0)>>1) - 1) // MinInt64
	return h
}

// Observe records one value.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	h.buckets[bucketIdx(v)].Add(1)
}

func bucketIdx(v int64) int {
	if v <= 0 {
		return 0
	}
	return bits.Len64(uint64(v))
}

// bucketHi returns the inclusive upper bound of bucket i.
func bucketHi(i int) int64 {
	if i == 0 {
		return 0
	}
	if i >= 63 {
		return int64(1)<<62 - 1 + int64(1)<<62 // MaxInt64
	}
	return int64(1)<<i - 1
}

// ObserveDuration records a duration in nanoseconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(int64(d)) }

// Count reads the number of observations (0 on a nil receiver).
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum reads the sum of observations (0 on a nil receiver).
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Span is a started named timer. End records the elapsed time into the
// histogram "<name>.ns" and increments the counter "<name>.calls". The
// zero Span (from a nil Registry) is a no-op.
type Span struct {
	h     *Histogram
	c     *Counter
	start time.Time
}

// End stops the span and records it. Safe to call on the zero Span.
func (s Span) End() {
	if s.h == nil && s.c == nil {
		return
	}
	s.c.Inc()
	s.h.ObserveDuration(time.Since(s.start))
}

// Registry is a named collection of instruments. The zero value is not
// usable; construct with NewRegistry. A nil *Registry hands out nil
// instruments and snapshots empty, so instrumented code never needs a
// nil check of its own. All methods are safe for concurrent use.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	// spans maps a span name to its resolved instruments (start unset),
	// so StartSpan builds the "<name>.ns" and "<name>.calls" names once.
	spans map[string]Span
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Histogram{},
		spans:    map[string]Span{},
	}
}

// Counter returns the named counter, creating it on first use. Returns
// nil (a valid no-op instrument) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[name]; ok {
		return c
	}
	c = &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the named gauge, creating it on first use. Returns nil
// on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[name]; ok {
		return g
	}
	g = &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns the named histogram, creating it on first use.
// Returns nil on a nil registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.hists[name]; ok {
		return h
	}
	h = newHistogram()
	r.hists[name] = h
	return h
}

// StartSpan starts a named span timer. It allocates only on a name's
// first call. On a nil registry the returned zero Span is a no-op.
func (r *Registry) StartSpan(name string) Span {
	if r == nil {
		return Span{}
	}
	r.mu.RLock()
	sp, ok := r.spans[name]
	r.mu.RUnlock()
	if !ok {
		sp = Span{h: r.Histogram(name + ".ns"), c: r.Counter(name + ".calls")}
		r.mu.Lock()
		r.spans[name] = sp
		r.mu.Unlock()
	}
	sp.start = time.Now()
	return sp
}

// Bucket is one populated histogram bucket in a snapshot: Count
// observations with value <= Le (and greater than the previous
// bucket's Le).
type Bucket struct {
	Le    int64 `json:"le"`
	Count int64 `json:"count"`
}

// HistogramSnapshot is the stable serialized form of a histogram.
type HistogramSnapshot struct {
	Count   int64    `json:"count"`
	Sum     int64    `json:"sum"`
	Min     int64    `json:"min"`
	Max     int64    `json:"max"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Quantile approximates the q-quantile (0 <= q <= 1) from the bucket
// upper bounds. The answer is exact up to the 2x bucket resolution.
func (hs HistogramSnapshot) Quantile(q float64) int64 {
	if hs.Count == 0 {
		return 0
	}
	rank := int64(q*float64(hs.Count-1)) + 1
	var seen int64
	for _, b := range hs.Buckets {
		seen += b.Count
		if seen >= rank {
			return b.Le
		}
	}
	return hs.Max
}

// Snapshot is a stable point-in-time copy of a registry, the JSON
// contract of `timeprint stats`, -metrics dumps and the expvar
// endpoint. Map iteration order does not leak: JSON object keys are
// marshaled sorted by encoding/json, and Text sorts explicitly.
type Snapshot struct {
	Counters   map[string]int64             `json:"counters"`
	Gauges     map[string]GaugeSnapshot     `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// GaugeSnapshot carries a gauge's current value and high-water mark.
type GaugeSnapshot struct {
	Value int64 `json:"value"`
	Max   int64 `json:"max"`
}

// Snapshot captures the registry. A nil registry snapshots empty (but
// non-nil maps, so the JSON shape is invariant).
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]int64{},
		Gauges:     map[string]GaugeSnapshot{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for n, c := range r.counters {
		s.Counters[n] = c.Value()
	}
	for n, g := range r.gauges {
		s.Gauges[n] = GaugeSnapshot{Value: g.Value(), Max: g.Max()}
	}
	for n, h := range r.hists {
		hs := HistogramSnapshot{Count: h.count.Load(), Sum: h.sum.Load()}
		if hs.Count > 0 {
			hs.Min, hs.Max = h.min.Load(), h.max.Load()
		}
		for i := range h.buckets {
			if c := h.buckets[i].Load(); c > 0 {
				hs.Buckets = append(hs.Buckets, Bucket{Le: bucketHi(i), Count: c})
			}
		}
		s.Histograms[n] = hs
	}
	return s
}

// WriteJSON writes the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// Text renders the snapshot in a stable, human-readable text form —
// one instrument per line, sorted by name.
func (s Snapshot) Text() string {
	var b strings.Builder
	names := make([]string, 0, len(s.Counters))
	for n := range s.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "counter   %-40s %d\n", n, s.Counters[n])
	}
	names = names[:0]
	for n := range s.Gauges {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		g := s.Gauges[n]
		fmt.Fprintf(&b, "gauge     %-40s %d (max %d)\n", n, g.Value, g.Max)
	}
	names = names[:0]
	for n := range s.Histograms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := s.Histograms[n]
		if h.Count == 0 {
			fmt.Fprintf(&b, "histogram %-40s empty\n", n)
			continue
		}
		fmt.Fprintf(&b, "histogram %-40s count=%d sum=%d min=%d p50<=%d p90<=%d p99<=%d max=%d\n",
			n, h.Count, h.Sum, h.Min, h.Quantile(0.50), h.Quantile(0.90), h.Quantile(0.99), h.Max)
	}
	return b.String()
}

// ParseSnapshot decodes a snapshot previously produced by WriteJSON —
// the read side of `timeprint stats -in` and cmd/metricscheck.
func ParseSnapshot(r io.Reader) (Snapshot, error) {
	var s Snapshot
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return Snapshot{}, fmt.Errorf("obs: invalid metrics snapshot: %w", err)
	}
	return s, nil
}

// DumpJSON snapshots the registry and writes it as indented JSON —
// the implementation behind every CLI -metrics flag.
func (r *Registry) DumpJSON(w io.Writer) error {
	return r.Snapshot().WriteJSON(w)
}
