package reconstruct

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/decode"
	"repro/internal/encoding"
	"repro/internal/gf2"
	"repro/internal/obs"
	"repro/internal/properties"
	"repro/internal/sat"
)

// TestRouteTable pins the cost-model routing function: every edit to
// the table must update a case here deliberately.
func TestRouteTable(t *testing.T) {
	base := Features{
		M: 64, B: 13, K: 8,
		Rank: 13, Nullity: 51,
		Consistent: true, KFeasible: true,
	}
	cases := []struct {
		name string
		mut  func(f *Features)
		want string
	}{
		{"inconsistent TP refutes", func(f *Features) { f.Consistent = false }, RouteRefuted},
		{"infeasible k refutes", func(f *Features) { f.KFeasible = false }, RouteRefuted},
		{"refuted beats pinned", func(f *Features) { f.Consistent = false; f.Nullity = 0 }, RouteRefuted},
		{"nullity 0 is pinned", func(f *Features) { f.Nullity = 0; f.Rank = 64 }, RoutePinned},
		{"small k with evaluable props decodes", func(f *Features) { f.K = 4 }, RouteDecode},
		{"small nullity goes brute", func(f *Features) { f.Nullity = 12 }, RouteBrute},
		{"nullity 16 walks at every k", func(f *Features) { f.Nullity = 16; f.K = 64 }, RouteBrute},
		{"nullity 17 at k 8 walks half its coset", func(f *Features) { f.Nullity = 17 }, RouteBrute},
		{"nullity 21 at k 5 is within 2^16 visits", func(f *Features) { f.Nullity = 21; f.K = 5 }, RouteBrute},
		{"nullity 21 at k 6 is past 2^16 visits", func(f *Features) { f.Nullity = 21; f.K = 6 }, RouteSession},
		{"benchmark geometry at k 5 takes the session", func(f *Features) {
			f.M, f.B, f.K, f.Rank, f.Nullity = 128, 16, 5, 16, 112
		}, RouteSession},
		{"past decode and brute reuses the warm session", func(*Features) {}, RouteSession},
		{"k past the session ladder stays on the session", func(f *Features) { f.K = 17 }, RouteSession},
		{"k 3 past the pair index leaves decode", func(f *Features) {
			f.M, f.B, f.K, f.Rank, f.Nullity = decode.MaxPairM+1, 17, 3, 17, decode.MaxPairM+1-17
		}, RouteSession},
		{"k 2 past the pair index still decodes", func(f *Features) {
			f.M, f.B, f.K, f.Rank, f.Nullity = decode.MaxPairM+1, 17, 2, 17, decode.MaxPairM+1-17
		}, RouteDecode},
	}
	for _, tc := range cases {
		f := base
		tc.mut(&f)
		if got := Route(f); got != tc.want {
			t.Errorf("%s: Route = %s, want %s (features %+v)", tc.name, got, tc.want, f)
		}
	}
	// A walk of the whole coset visits 2^nullity points, so every
	// nullity up to 16 takes the brute route at every k past decode.
	for n := 1; n <= 16; n++ {
		for k := 5; k <= 64; k++ {
			f := base
			f.Nullity, f.Rank, f.K = n, 64-n, k
			if got := Route(f); got != RouteBrute {
				t.Fatalf("nullity %d, k %d: Route = %s, want %s", n, k, got, RouteBrute)
			}
		}
	}
}

func TestKnownOracle(t *testing.T) {
	for _, name := range []string{"", "auto", "sat", "sat-par", "sat-inc", "decode", "brute"} {
		if !KnownOracle(name) {
			t.Errorf("KnownOracle(%q) = false", name)
		}
	}
	for _, name := range []string{"pinned", "refuted", "dispatch", "exhaustive", "cvc5"} {
		if KnownOracle(name) {
			t.Errorf("KnownOracle(%q) = true", name)
		}
	}
	if _, err := NewDispatcher(encoding.OneHot(8), DispatchOptions{Force: "cvc5"}); err == nil {
		t.Error("unknown Force accepted")
	}
}

// forcedTo returns a dispatcher pinned to one route: with RouteSAT it is
// the serial one-shot SAT reference the other routes are checked
// against.
func forcedTo(tb testing.TB, enc *encoding.Encoding, route string) *Dispatcher {
	tb.Helper()
	d, err := NewDispatcher(enc, DispatchOptions{Force: route})
	if err != nil {
		tb.Fatal(err)
	}
	return d
}

func sigKeys(sigs []core.Signal) []string {
	keys := make([]string, len(sigs))
	for i, s := range sigs {
		keys[i] = s.String()
	}
	sort.Strings(keys)
	return keys
}

// TestDispatchMatchesSerialSAT is the dispatcher soundness property:
// whatever backend the cost model picks, the answer is bit-exact with
// the serial SAT oracle — across geometries that exercise every route
// (pinned, decode, brute, session, sat) and property-bearing requests.
// A limit=1 leg then asks for one witness: it must be a member of the
// full set, and exhausted may claim it is the only one only when it
// is. The decode route, which sees every candidate, makes that claim
// exactly when at most one candidate holds.
func TestDispatchMatchesSerialSAT(t *testing.T) {
	type geometry struct {
		name string
		enc  func(t *testing.T) *encoding.Encoding
	}
	geoms := []geometry{
		{"inc-16x9", func(t *testing.T) *encoding.Encoding {
			enc, err := encoding.Incremental(16, 9, 4)
			if err != nil {
				t.Fatal(err)
			}
			return enc
		}},
		{"onehot-20", func(*testing.T) *encoding.Encoding { return encoding.OneHot(20) }},
		{"inc-64x13", func(t *testing.T) *encoding.Encoding {
			enc, err := encoding.Incremental(64, 13, 4)
			if err != nil {
				t.Fatal(err)
			}
			return enc
		}},
	}
	conSets := [][]Constraint{
		nil,
		{properties.MinGap{Gap: 2}},
		{properties.Dk{D: 10, K: 1}},
		{properties.Window{Lo: 1, Hi: 13}},
	}
	// decodeLegs counts decode-routed limit=1 legs by whether the full
	// set had at most one candidate; the corpus must reach both.
	decodeLegs := map[bool]int{}
	for _, g := range geoms {
		enc := g.enc(t)
		m := enc.M()
		disp, err := NewDispatcher(enc, DispatchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ref := forcedTo(t, enc, RouteSAT)
		truths := []core.Signal{
			core.SignalFromChanges(m, 2, 5),
			core.SignalFromChanges(m, 1, 4, 9, 12),
		}
		if m <= 24 {
			// Larger change counts stay affordable only while the
			// candidate space is small (solution counts grow like
			// C(m,k)/2^b and every model is one solve).
			truths = append(truths, core.SignalFromChanges(m, 0, 3, 7, 8, 11, 14))
		}
		for _, truth := range truths {
			entry := core.Log(enc, truth)
			for _, cons := range conSets {
				got, gotEx, err := disp.Enumerate(context.Background(), entry, cons, 0)
				if err != nil {
					t.Fatalf("%s truth=%s cons=%v: dispatch: %v", g.name, truth, cons, err)
				}
				want, wantEx, err := ref.Enumerate(context.Background(), entry, cons, 0)
				if err != nil {
					t.Fatalf("%s truth=%s cons=%v: sat: %v", g.name, truth, cons, err)
				}
				if gotEx != wantEx {
					t.Fatalf("%s truth=%s cons=%v: exhausted %v vs %v", g.name, truth, cons, gotEx, wantEx)
				}
				gk, wk := sigKeys(got), sigKeys(want)
				if len(gk) != len(wk) {
					t.Fatalf("%s truth=%s cons=%v: %d candidates vs %d", g.name, truth, cons, len(gk), len(wk))
				}
				for i := range gk {
					if gk[i] != wk[i] {
						t.Fatalf("%s truth=%s cons=%v: candidate sets diverge at %d: %s vs %s", g.name, truth, cons, i, gk[i], wk[i])
					}
				}
				if checkWitness(t, enc, disp, entry, cons, want) == RouteDecode {
					decodeLegs[len(want) <= 1]++
				}
			}
		}
	}
	if decodeLegs[true] == 0 || decodeLegs[false] == 0 {
		t.Fatalf("decode-routed limit=1 legs: %d with at most one candidate, %d with more; want both", decodeLegs[true], decodeLegs[false])
	}
	t.Logf("decode-routed limit=1 legs: %d with at most one candidate, %d with more", decodeLegs[true], decodeLegs[false])

	// Past the session's 16-wide ladder: the cost model and a dispatcher
	// forced onto the session both match serial SAT exhaustively, with
	// and without a window, and neither falls back.
	for _, g := range []struct{ m, b int }{{18, 9}, {24, 10}} {
		enc := mustEnc(t, g.m, g.b, 4)
		reg := obs.NewRegistry()
		auto, err := NewDispatcher(enc, DispatchOptions{Obs: reg})
		if err != nil {
			t.Fatal(err)
		}
		forced, err := NewDispatcher(enc, DispatchOptions{Force: RouteSession, Obs: reg})
		if err != nil {
			t.Fatal(err)
		}
		ref := forcedTo(t, enc, RouteSAT)
		for k := 17; k <= 20 && k < g.m; k += 3 {
			changes := make([]int, k)
			for i := range changes {
				changes[i] = i
			}
			entry := core.Log(enc, core.SignalFromChanges(g.m, changes...))
			for _, cons := range [][]Constraint{nil, {properties.Window{Lo: 0, Hi: g.m - 1}}} {
				want, _, err := ref.Enumerate(context.Background(), entry, cons, 0)
				if err != nil {
					t.Fatal(err)
				}
				for _, d := range []*Dispatcher{auto, forced} {
					got, exhausted, dec, err := d.EnumerateRouted(context.Background(), entry, cons, 0)
					if err != nil || !exhausted {
						t.Fatalf("m=%d k=%d cons=%v via %s: exhausted=%v err=%v", g.m, k, cons, dec.Route, exhausted, err)
					}
					if gk, wk := sigKeys(got), sigKeys(want); !slices.Equal(gk, wk) {
						t.Fatalf("m=%d k=%d cons=%v via %s: %d candidates, serial SAT %d", g.m, k, cons, dec.Route, len(gk), len(wk))
					}
					if d == forced && dec.Route != RouteSession {
						t.Fatalf("m=%d k=%d: forced session answered on %s", g.m, k, dec.Route)
					}
				}
			}
		}
		if n := reg.Snapshot().Counters[MetricDispatchFallback]; n != 0 {
			t.Fatalf("m=%d: %d fallbacks past the ladder, want 0", g.m, n)
		}
	}
}

// checkWitness runs the limit=1 leg of TestDispatchMatchesSerialSAT
// against want, the full candidate set under cons, and returns the
// route that answered.
func checkWitness(t *testing.T, enc *encoding.Encoding, disp *Dispatcher, entry core.LogEntry, cons []Constraint, want []core.Signal) string {
	t.Helper()
	got, exhausted, dec, err := disp.EnumerateRouted(context.Background(), entry, cons, 1)
	if err != nil {
		t.Fatalf("k=%d cons=%v limit=1: %v", entry.K, cons, err)
	}
	if len(got) != min(len(want), 1) {
		t.Fatalf("k=%d cons=%v limit=1: %d witnesses, full set has %d", entry.K, cons, len(got), len(want))
	}
	if len(got) == 1 {
		w := got[0]
		if w.K() != entry.K || !core.Log(enc, w).Equal(entry) || !holdsAll(cons, w) {
			t.Fatalf("k=%d cons=%v limit=1: witness %s does not solve the request", entry.K, cons, w)
		}
	}
	if exhausted && len(want) > 1 {
		t.Fatalf("k=%d cons=%v limit=1 via %s: exhausted with %d candidates", entry.K, cons, dec.Route, len(want))
	}
	if dec.Route == RouteDecode && exhausted != (len(want) <= 1) {
		t.Fatalf("k=%d cons=%v limit=1 via decode: exhausted %v with %d candidates", entry.K, cons, exhausted, len(want))
	}
	return dec.Route
}

// A rank-pinned system (one-hot encoding: nullity 0) must be answered
// by linear algebra alone — the SAT solver is never constructed, let
// alone called.
func TestDispatchRankPinnedNeverSAT(t *testing.T) {
	enc := encoding.OneHot(24)
	reg := obs.NewRegistry()
	disp, err := NewDispatcher(enc, DispatchOptions{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	truth := core.SignalFromChanges(24, 3, 8, 19)
	sigs, exhausted, dec, err := disp.EnumerateRouted(context.Background(), core.Log(enc, truth), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !exhausted || len(sigs) != 1 || !sigs[0].Equal(truth) {
		t.Fatalf("pinned system: got %v (exhausted=%v), want exactly the truth", sigs, exhausted)
	}
	if dec.Chosen != RoutePinned || dec.FellBack {
		t.Fatalf("decision %+v, want pinned without fallback", dec)
	}
	snap := reg.Snapshot()
	if n := snap.Counters[sat.MetricSolveCalls]; n != 0 {
		t.Fatalf("%s = %d on a rank-pinned system, want 0", sat.MetricSolveCalls, n)
	}
	if n := snap.Counters[MetricDispatchChosenPrefix+RoutePinned]; n != 1 {
		t.Fatalf("chosen.pinned = %d, want 1", n)
	}
}

// TestBruteRouteAllocs checks that the brute route allocates nothing
// per visited point: a request with no weight-k answer allocates the
// same at nullity 8 as at nullity 14, where its walk visits 16 times
// as many points. Every timestamp ends in a 1, so the last bit of A·x
// is the parity of |x|, and an even-weight timeprint has no answer of
// odd weight. A walk that cloned each point it visited would allocate
// 16 times as much at nullity 14.
func TestBruteRouteAllocs(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	ctx := context.Background()
	allocs := map[int]float64{}
	for _, g := range []struct{ m, b int }{{16, 8}, {24, 10}} {
		seen := map[string]bool{}
		var ts []bitvec.Vector
		for len(ts) < g.m {
			v := bitvec.FromUint(r.Uint64(), g.b)
			v.Set(g.b-1, true)
			if !seen[v.Key()] {
				seen[v.Key()] = true
				ts = append(ts, v)
			}
		}
		enc, err := encoding.FromTimestamps(ts, "parity")
		if err != nil {
			t.Fatal(err)
		}
		disp, err := NewDispatcher(enc, DispatchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		entry := core.Log(enc, core.SignalFromChanges(g.m, 1, 4, 6, 11))
		entry.K = 5
		sigs, exhausted, dec, err := disp.EnumerateRouted(ctx, entry, nil, 0)
		if err != nil || !exhausted || len(sigs) != 0 || dec.Route != RouteBrute {
			t.Fatalf("m=%d: %d answers via %s (exhausted=%v, err=%v), want none via %s", g.m, len(sigs), dec.Route, exhausted, err, RouteBrute)
		}
		allocs[dec.Features.Nullity] = testing.AllocsPerRun(20, func() { _, _, _, _ = disp.EnumerateRouted(ctx, entry, nil, 0) })
	}
	if len(allocs) != 2 || allocs[8] != allocs[14] {
		t.Fatalf("allocations by nullity %v, want nullity 8 and 14 equal", allocs)
	}
	t.Logf("brute request with no answer: %.0f allocations at nullity 8 and 14", allocs[8])
}

// BenchmarkBruteWalk measures one exhaustive request on the brute
// route through the Dispatcher: m = 32, b = 12, k = 5 on the
// incremental LI-4 encoding, nullity 20, so the walk visits
// Σ C(20, ≤5) = 21,700 coset points. Five random entries (seed 7)
// take turns.
func BenchmarkBruteWalk(b *testing.B) {
	enc := mustEnc(b, 32, 12, 4)
	r := rand.New(rand.NewSource(7))
	entries := make([]core.LogEntry, 5)
	for i := range entries {
		entries[i] = core.Log(enc, core.SignalFromChanges(32, r.Perm(32)[:5]...))
	}
	disp, err := NewDispatcher(enc, DispatchOptions{})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for i, e := range entries {
		if _, ex, dec, err := disp.EnumerateRouted(ctx, e, nil, 0); err != nil || !ex || dec.Route != RouteBrute {
			b.Fatalf("request %d: route %q, exhausted %v, err %v; want %s", i, dec.Route, ex, err, RouteBrute)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := disp.Enumerate(ctx, entries[i%len(entries)], nil, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// A timeprint outside the column space of A is refuted during feature
// extraction: the answer is an exhausted empty set with no backend run.
func TestDispatchRefutedInline(t *testing.T) {
	// Four timestamps of width 8 span a 4-dimensional subspace: most
	// timeprints are inconsistent.
	enc, err := encoding.FromTimestamps([]bitvec.Vector{
		bitvec.FromOnes(8, 0),
		bitvec.FromOnes(8, 1),
		bitvec.FromOnes(8, 2),
		bitvec.FromOnes(8, 3),
	}, "explicit")
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	disp, err := NewDispatcher(enc, DispatchOptions{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	entry := core.LogEntry{TP: bitvec.FromOnes(8, 7), K: 1} // bit 7 unreachable
	sigs, exhausted, dec, err := disp.EnumerateRouted(context.Background(), entry, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(sigs) != 0 || !exhausted {
		t.Fatalf("got %v (exhausted=%v), want an exhausted empty set", sigs, exhausted)
	}
	if dec.Chosen != RouteRefuted || dec.Features.Consistent {
		t.Fatalf("decision %+v, want an inline refutation", dec)
	}
	if n := reg.Snapshot().Counters[sat.MetricSolveCalls]; n != 0 {
		t.Fatalf("%s = %d on a refuted request, want 0", sat.MetricSolveCalls, n)
	}
}

// A forced backend that cannot express the request falls back to
// serial SAT, counts the mispredict, and still answers exactly.
func TestDispatchForcedFallback(t *testing.T) {
	enc, err := encoding.Incremental(16, 9, 4)
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	disp, err := NewDispatcher(enc, DispatchOptions{Force: "decode", Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	truth := core.SignalFromChanges(16, 1, 3, 6, 9, 12, 14) // k=6 > decode.MaxK
	sigs, exhausted, dec, err := disp.EnumerateRouted(context.Background(), core.Log(enc, truth), nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !exhausted {
		t.Fatal("fallback enumeration not exhausted")
	}
	found := false
	for _, s := range sigs {
		if s.Equal(truth) {
			found = true
		}
	}
	if !found {
		t.Fatalf("truth missing from fallback candidates %v", sigs)
	}
	if dec.Chosen != RouteDecode || !dec.FellBack || dec.Route != RouteSAT {
		t.Fatalf("decision %+v, want decode falling back to sat", dec)
	}
	if n := reg.Snapshot().Counters[MetricDispatchFallback]; n != 1 {
		t.Fatalf("fallback counter = %d, want 1", n)
	}
}

// TestDispatchForcedRoutesAgree forces every route in turn and checks
// it against the cost model's answer over requests that reach decode,
// brute and the session, with and without a window. Only a forced
// decode past decode.MaxK may fall back, and then onto serial SAT.
func TestDispatchForcedRoutesAgree(t *testing.T) {
	enc := mustEnc(t, 16, 9, 4)
	auto := forcedTo(t, enc, "")
	r := rand.New(rand.NewSource(71))
	ctx := context.Background()
	for _, k := range []int{2, 3, 5, 7} {
		entry := core.Log(enc, core.SignalFromChanges(16, r.Perm(16)[:k]...))
		for _, cons := range [][]Constraint{nil, {properties.Window{Lo: 2, Hi: 15}}} {
			want, ex, err := auto.Enumerate(ctx, entry, cons, 0)
			if err != nil || !ex {
				t.Fatalf("k=%d cons=%v auto: exhausted=%v err=%v", k, cons, ex, err)
			}
			for _, route := range []string{RouteSAT, RouteParallel, RouteSession, RouteDecode, RouteBrute} {
				d, err := NewDispatcher(enc, DispatchOptions{Force: route, Workers: 2})
				if err != nil {
					t.Fatal(err)
				}
				got, ex, dec, err := d.EnumerateRouted(ctx, entry, cons, 0)
				if err != nil || !ex {
					t.Fatalf("k=%d cons=%v forced %s: exhausted=%v err=%v", k, cons, route, ex, err)
				}
				if gk, wk := sigKeys(got), sigKeys(want); !slices.Equal(gk, wk) {
					t.Fatalf("k=%d cons=%v forced %s: %v, auto %v", k, cons, route, gk, wk)
				}
				wantRoute := route
				if route == RouteDecode && k > decode.MaxK {
					wantRoute = RouteSAT
				}
				if dec.Chosen != route || dec.Route != wantRoute || dec.FellBack != (wantRoute != route) {
					t.Fatalf("k=%d forced %s: decision %+v, want an answer on %s", k, route, dec, wantRoute)
				}
			}
		}
	}
}

// TestBruteVisitedCounter checks that the coset walk publishes its
// effort once per walk: an exhaustive brute request adds exactly
// gf2.WalkVisits(nullity, k), and a pinned one the single point of
// its coset.
func TestBruteVisitedCounter(t *testing.T) {
	reg := obs.NewRegistry()
	visited := func() int64 { return reg.Snapshot().Counters[MetricBruteVisited] }
	ctx := context.Background()

	enc := mustEnc(t, 32, 12, 4)
	disp, err := NewDispatcher(enc, DispatchOptions{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(7))
	var total int64
	for i := 0; i < 3; i++ {
		entry := core.Log(enc, core.SignalFromChanges(32, r.Perm(32)[:5]...))
		_, ex, dec, err := disp.EnumerateRouted(ctx, entry, nil, 0)
		if err != nil || !ex || dec.Route != RouteBrute {
			t.Fatalf("request %d: route %s, exhausted %v, err %v; want %s", i, dec.Route, ex, err, RouteBrute)
		}
		total += int64(gf2.WalkVisits(dec.Features.Nullity, 5))
		if got := visited(); got != total {
			t.Fatalf("request %d at nullity %d: %s = %d, want %d", i, dec.Features.Nullity, MetricBruteVisited, got, total)
		}
	}

	onehot := encoding.OneHot(12)
	disp, err = NewDispatcher(onehot, DispatchOptions{Obs: reg})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, dec, err := disp.EnumerateRouted(ctx, core.Log(onehot, core.SignalFromChanges(12, 1, 5)), nil, 0); err != nil || dec.Route != RoutePinned {
		t.Fatalf("one-hot request: route %s, err %v; want %s", dec.Route, err, RoutePinned)
	}
	if got := visited(); got != total+1 {
		t.Fatalf("after a pinned request: %s = %d, want %d", MetricBruteVisited, got, total+1)
	}
}

// TestDecodeRoutePastPairIndex: with m one past decode.MaxPairM the decoder
// has no pair index, so decodeFiltered refuses k = 3 with
// ErrUnsupported (a forced decode then falls back to SAT) and still
// answers k = 2.
func TestDecodeRoutePastPairIndex(t *testing.T) {
	const m, b = decode.MaxPairM + 1, 17
	ts := make([]bitvec.Vector, m)
	for i := range ts {
		ts[i] = bitvec.FromUint(uint64(i+1), b)
	}
	enc, err := encoding.FromTimestamps(ts, "explicit")
	if err != nil {
		t.Fatal(err)
	}
	dec := decode.New(enc)
	entry := core.Log(enc, core.SignalFromChanges(m, 3, 7, 40000))
	if _, _, err := decodeFiltered(dec, m, entry, nil, 0); !errors.Is(err, ErrUnsupported) {
		t.Fatalf("k=3 at m=%d: err %v, want ErrUnsupported", m, err)
	}
	truth := core.SignalFromChanges(m, 1, 46000)
	sigs, ex, err := decodeFiltered(dec, m, core.Log(enc, truth), nil, 0)
	if err != nil || !ex || !slices.ContainsFunc(sigs, truth.Equal) {
		t.Fatalf("k=2 at m=%d: %d signals (exhausted %v, err %v), want the truth among them", m, len(sigs), ex, err)
	}
}

// Malformed requests keep their typed errors through the dispatcher —
// no fallback masks them.
func TestDispatchShapeErrors(t *testing.T) {
	enc, err := encoding.Incremental(16, 9, 4)
	if err != nil {
		t.Fatal(err)
	}
	disp, err := NewDispatcher(enc, DispatchOptions{})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if _, _, _, err := disp.EnumerateRouted(ctx, core.LogEntry{TP: bitvec.FromOnes(5, 0), K: 1}, nil, 0); !errors.Is(err, core.ErrWidth) {
		t.Fatalf("wrong-width entry: %v, want core.ErrWidth", err)
	}
	if _, _, _, err := disp.EnumerateRouted(ctx, core.LogEntry{TP: bitvec.FromOnes(9, 0), K: 99}, nil, 0); !errors.Is(err, core.ErrKRange) {
		t.Fatalf("out-of-range k: %v, want core.ErrKRange", err)
	}
}
