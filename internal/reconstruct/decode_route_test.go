package reconstruct

import (
	"context"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/decode"
	"repro/internal/encoding"
	"repro/internal/properties"
)

// streamEntries draws n log entries with the benchmark's stream-ingest
// geometry and change-count mix: m=128, b=16 incremental LI-4, and
// k = 0/1/2/3 with weights .1/.4/.3/.2.
func streamEntries(tb testing.TB, n int) (*encoding.Encoding, []core.LogEntry) {
	tb.Helper()
	enc := mustEnc(tb, 128, 16, 4)
	r := rand.New(rand.NewSource(1))
	entries := make([]core.LogEntry, n)
	for i := range entries {
		k := 3
		switch u := r.Float64(); {
		case u < 0.1:
			k = 0
		case u < 0.5:
			k = 1
		case u < 0.8:
			k = 2
		}
		entries[i] = core.Log(enc, core.SignalFromChanges(enc.M(), r.Perm(enc.M())[:k]...))
	}
	return enc, entries
}

// windowedEntries draws n requests with the benchmark's
// forensic-witness shape at k = 4: on the m=128, b=16 incremental LI-4
// encoding, a 4-change burst inside a random 48-cycle window, asked
// with that window as its constraint.
func windowedEntries(tb testing.TB, n int) (*encoding.Encoding, []core.LogEntry, [][]Constraint) {
	tb.Helper()
	const window = 48
	enc := mustEnc(tb, 128, 16, 4)
	r := rand.New(rand.NewSource(1))
	entries := make([]core.LogEntry, n)
	cons := make([][]Constraint, n)
	for i := range entries {
		lo := r.Intn(enc.M() - window + 1)
		changes := r.Perm(window)[:4]
		for j := range changes {
			changes[j] += lo
		}
		entries[i] = core.Log(enc, core.SignalFromChanges(enc.M(), changes...))
		cons[i] = []Constraint{properties.Window{Lo: lo, Hi: lo + window}}
	}
	return enc, entries, cons
}

// streamDispatcher builds a dispatcher with timeprintd's options.
func streamDispatcher(tb testing.TB, enc *encoding.Encoding) *Dispatcher {
	tb.Helper()
	disp, err := NewDispatcher(enc, DispatchOptions{Workers: 1, SessionMaxK: 16})
	if err != nil {
		tb.Fatal(err)
	}
	return disp
}

// BenchmarkFeatures measures the dispatcher's per-request feature
// extraction, one GF(2) elimination of [A | TP], on the stream-ingest
// geometry. Its allocation count is pinned by TestDecodeRouteAllocs;
// -benchmem shows it.
func BenchmarkFeatures(b *testing.B) {
	enc, entries := streamEntries(b, 64)
	disp := streamDispatcher(b, enc)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := disp.Features(entries[i%len(entries)], nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDecodeRouteWindowed measures one routed forensic-witness
// request at k = 4: feature extraction, the decode route's full k = 4
// walk and its Holds filter under the request's 48-cycle window, for
// one witness. Its allocation count is pinned by TestDecodeRouteAllocs.
func BenchmarkDecodeRouteWindowed(b *testing.B) {
	enc, entries, cons := windowedEntries(b, 64)
	disp := streamDispatcher(b, enc)
	ctx := context.Background()
	for i, e := range entries { // builds the decoder and its pair index
		if _, _, dec, err := disp.EnumerateRouted(ctx, e, cons[i], 1); err != nil || dec.Route != RouteDecode {
			b.Fatalf("request %d: route %q, err %v; want %s", i, dec.Route, err, RouteDecode)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i % len(entries)
		if _, _, _, err := disp.EnumerateRouted(ctx, entries[j], cons[j], 1); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDecodeRouteAllocs pins allocation ceilings, the measured count
// plus a little headroom, for feature extraction and for routed decode
// requests at k = 1, 2 and 3 on the stream-ingest geometry, and at
// k = 4 under a window on the forensic-witness one. Allocation
// counts are deterministic, so the ceilings guard the cost where wall
// clock is too noisy to. Before the encoding shared one parity matrix
// and the decoder probed byte-keyed indexes, Features took 186
// allocations and a routed request about 430.
func TestDecodeRouteAllocs(t *testing.T) {
	enc, entries := streamEntries(t, 64)
	disp := streamDispatcher(t, enc)
	ctx := context.Background()
	byK := map[int]core.LogEntry{}
	for _, e := range entries {
		// This also builds the decoder and its pair index.
		_, _, dec, err := disp.EnumerateRouted(ctx, e, nil, 0)
		if err != nil || dec.Route != RouteDecode {
			t.Fatalf("k=%d: route %q, err %v; want %s", e.K, dec.Route, err, RouteDecode)
		}
		byK[e.K] = e
	}
	// Measured: Features 5; routed k=1, 2, 3 requests 9, 9 and 13.
	if got := testing.AllocsPerRun(100, func() { _, _ = disp.Features(byK[2], nil) }); got > 8 {
		t.Errorf("Features: %.0f allocs, ceiling 8", got)
	}
	for _, c := range []struct {
		k       int
		ceiling float64
	}{{1, 12}, {2, 12}, {3, 16}} {
		e := byK[c.k]
		got := testing.AllocsPerRun(100, func() { _, _, _, _ = disp.EnumerateRouted(ctx, e, nil, 0) })
		if got > c.ceiling {
			t.Errorf("routed k=%d request: %.0f allocs, ceiling %.0f", c.k, got, c.ceiling)
		}
	}

	// A windowed k = 4 request materializes and tests every candidate
	// of the k = 4 walk, about two allocations each; the mean over
	// BenchmarkDecodeRouteWindowed's requests measured 552.3.
	enc, entries, cons := windowedEntries(t, 64)
	disp = streamDispatcher(t, enc)
	for i, e := range entries {
		if _, _, dec, err := disp.EnumerateRouted(ctx, e, cons[i], 1); err != nil || dec.Route != RouteDecode {
			t.Fatalf("windowed request %d: route %q, err %v; want %s", i, dec.Route, err, RouteDecode)
		}
	}
	got := testing.AllocsPerRun(5, func() {
		for i, e := range entries {
			_, _, _, _ = disp.EnumerateRouted(ctx, e, cons[i], 1)
		}
	}) / float64(len(entries))
	if got > 600 {
		t.Errorf("windowed k=4 request: %.1f allocs, ceiling 600", got)
	}
}

// TestDispatchDecodeConcurrent hammers one shared auto Dispatcher, the
// service's path, and one fresh shared decode.Decoder from eight
// goroutines. Each starts on a k >= 3 entry, so the first calls race to
// build the pair indexes; under -race this shows the decoder needs no
// lock. Every request must take the decode route and every answer must
// equal a serial decode.
func TestDispatchDecodeConcurrent(t *testing.T) {
	enc := mustEnc(t, 48, 12, 4)
	r := rand.New(rand.NewSource(23))
	var entries []core.LogEntry
	for k := 1; k <= decode.MaxK; k++ {
		for i := 0; i < 3; i++ {
			entries = append(entries, core.Log(enc, core.SignalFromChanges(enc.M(), r.Perm(enc.M())[:k]...)))
		}
	}
	ref := decode.New(enc)
	want := make([][]core.Signal, len(entries))
	for i, e := range entries {
		sigs, err := ref.Decode(e)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = sigs
	}

	disp, err := NewDispatcher(enc, DispatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	dec := decode.New(enc)
	ctx := context.Background()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := range entries {
				i := (6 + g%6 + n) % len(entries) // entries 6.. have k = 3, 4
				e := entries[i]
				got, exhausted, d, err := disp.EnumerateRouted(ctx, e, nil, 0)
				if err != nil || !exhausted || d.Route != RouteDecode || !sameSignals(got, want[i]) {
					t.Errorf("goroutine %d, k=%d: %d signals via %s (exhausted %v, err %v), want %d via %s",
						g, e.K, len(got), d.Route, exhausted, err, len(want[i]), RouteDecode)
					return
				}
				cnt, err := dec.Count(e)
				if err != nil || cnt != len(want[i]) {
					t.Errorf("goroutine %d, k=%d: Count = %d (err %v), want %d",
						g, e.K, cnt, err, len(want[i]))
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// sameSignals reports whether a and b hold equal signals in equal order.
func sameSignals(a, b []core.Signal) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			return false
		}
	}
	return true
}
