package reconstruct

import (
	"context"
	"errors"
	"sort"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/encoding"
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
		Evaluable: true,
	}
	cases := []struct {
		name string
		mut  func(f *Features)
		opts DispatchOptions
		want string
	}{
		{"inconsistent TP refutes", func(f *Features) { f.Consistent = false }, DispatchOptions{}, RouteRefuted},
		{"infeasible k refutes", func(f *Features) { f.KFeasible = false }, DispatchOptions{}, RouteRefuted},
		{"refuted beats pinned", func(f *Features) { f.Consistent = false; f.Nullity = 0 }, DispatchOptions{}, RouteRefuted},
		{"nullity 0 is pinned", func(f *Features) { f.Nullity = 0; f.Rank = 64 }, DispatchOptions{}, RoutePinned},
		{"small k no props decodes", func(f *Features) { f.K = 4 }, DispatchOptions{}, RouteDecode},
		{"small k with props skips decode", func(f *Features) { f.K = 4; f.Props = 1; f.SessionOK = true }, DispatchOptions{}, RouteSession},
		{"small nullity goes brute", func(f *Features) { f.Nullity = 12 }, DispatchOptions{}, RouteBrute},
		{"brute needs evaluable props", func(f *Features) { f.Nullity = 12; f.Props = 1; f.Evaluable = false; f.SessionOK = true }, DispatchOptions{}, RouteSession},
		{"nullity budget is tunable", func(f *Features) { f.Nullity = 12 }, DispatchOptions{MaxNullity: 8}, RouteSAT},
		{"session-eligible reuses the warm solver", func(f *Features) { f.SessionOK = true }, DispatchOptions{}, RouteSession},
		{"workers split cubes", func(f *Features) { f.Workers = 4 }, DispatchOptions{}, RouteParallel},
		{"residual is serial SAT", func(*Features) {}, DispatchOptions{}, RouteSAT},
	}
	for _, tc := range cases {
		f := base
		tc.mut(&f)
		if got := Route(f, tc.opts); got != tc.want {
			t.Errorf("%s: Route = %s, want %s (features %+v)", tc.name, got, tc.want, f)
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
	}
	for _, g := range geoms {
		enc := g.enc(t)
		m := enc.M()
		disp, err := NewDispatcher(enc, DispatchOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ref := NewSATOracle(enc, Options{})
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
			}
		}
	}
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
