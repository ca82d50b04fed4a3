// Package decode_test is an external test package: it cross-checks the
// algebraic decoder against the reconstruct oracles, and reconstruct
// itself imports decode (the dispatcher's decode route), so an internal
// test package would form an import cycle.
package decode_test

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/decode"
	"repro/internal/encoding"
	"repro/internal/reconstruct"
)

func mustEnc(t testing.TB, m, b, d int) *encoding.Encoding {
	t.Helper()
	e, err := encoding.Incremental(m, b, d)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestDecodeMatchesSATAllK(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	enc := mustEnc(t, 48, 12, 4)
	dec := decode.New(enc)
	for k := 0; k <= decode.MaxK; k++ {
		for trial := 0; trial < 10; trial++ {
			// Random weight-k signal.
			perm := r.Perm(48)[:k]
			truth := core.SignalFromChanges(48, perm...)
			entry := core.Log(enc, truth)

			alg, err := dec.Decode(entry)
			if err != nil {
				t.Fatal(err)
			}
			rec, err := reconstruct.New(enc, entry, nil, reconstruct.Options{})
			if err != nil {
				t.Fatal(err)
			}
			satSigs, exhausted, err := rec.EnumerateStrict(0)
			if err != nil {
				t.Fatal(err)
			}
			if !exhausted {
				t.Fatal("SAT not exhausted")
			}
			if len(alg) != len(satSigs) {
				t.Fatalf("k=%d: algebraic %d vs SAT %d", k, len(alg), len(satSigs))
			}
			found := false
			satSet := map[string]bool{}
			for _, s := range satSigs {
				satSet[s.Vector().Key()] = true
			}
			for _, s := range alg {
				if !satSet[s.Vector().Key()] {
					t.Fatalf("k=%d: algebraic solution not found by SAT", k)
				}
				if s.Equal(truth) {
					found = true
				}
			}
			if !found {
				t.Fatalf("k=%d: truth not decoded", k)
			}
		}
	}
}

func TestDecodeZeroK(t *testing.T) {
	enc := mustEnc(t, 16, 8, 4)
	dec := decode.New(enc)
	// Quiet trace-cycle: exactly the empty signal.
	sigs, err := dec.Decode(core.Log(enc, core.NewSignal(16)))
	if err != nil || len(sigs) != 1 || sigs[0].K() != 0 {
		t.Fatalf("quiet decode: %v %v", sigs, err)
	}
	// Nonzero TP with k=0: impossible.
	sigs, err = dec.Decode(core.LogEntry{TP: bitvec.FromOnes(8, 0), K: 0})
	if err != nil || len(sigs) != 0 {
		t.Fatalf("nonzero TP k=0: %v %v", sigs, err)
	}
}

func TestDecodeRejectsLargeK(t *testing.T) {
	enc := mustEnc(t, 16, 8, 4)
	dec := decode.New(enc)
	if _, err := dec.Decode(core.LogEntry{TP: bitvec.New(8), K: 5}); err == nil {
		t.Error("k=5 accepted")
	}
	if _, err := dec.Decode(core.LogEntry{TP: bitvec.New(9), K: 1}); err == nil {
		t.Error("wrong width accepted")
	}
}

func TestLI4GivesUniqueUpToK2(t *testing.T) {
	// With LI-4 timestamps, any weight <= 2 signal reconstructs
	// uniquely: two distinct subsets of size <= 2 XORing equal would
	// form a dependent set of size <= 4.
	enc := mustEnc(t, 64, 13, 4)
	dec := decode.New(enc)
	for i := 0; i < 64; i++ {
		for j := i + 1; j < 64; j += 7 {
			entry := core.Log(enc, core.SignalFromChanges(64, i, j))
			s, unique, err := dec.Unique(entry)
			if err != nil {
				t.Fatal(err)
			}
			if !unique {
				t.Fatalf("(%d,%d) ambiguous under LI-4", i, j)
			}
			if !s.Equal(core.SignalFromChanges(64, i, j)) {
				t.Fatalf("(%d,%d) decoded wrongly", i, j)
			}
		}
	}
}

func TestBinaryEncodingAmbiguous(t *testing.T) {
	// The plain binary encoding is only LI-2: weight-2 signals often
	// collide with other weight-2 signals (1^2 = 3 etc.).
	enc := encoding.Binary(16)
	dec := decode.New(enc)
	entry := core.Log(enc, core.SignalFromChanges(16, 0, 1)) // TS 1^2 = 3
	sigs, err := dec.Decode(entry)
	if err != nil {
		t.Fatal(err)
	}
	if len(sigs) < 2 {
		t.Fatalf("binary encoding should be ambiguous, got %d candidates", len(sigs))
	}
}

func TestProfile(t *testing.T) {
	enc := mustEnc(t, 32, 11, 4)
	dec := decode.New(enc)
	r := rand.New(rand.NewSource(3))
	var sigs []core.Signal
	for i := 0; i < 50; i++ {
		k := 1 + r.Intn(4)
		sigs = append(sigs, core.SignalFromChanges(32, r.Perm(32)[:k]...))
	}
	p, err := dec.Profile(sigs)
	if err != nil {
		t.Fatal(err)
	}
	if p.Total != 50 || p.Unique == 0 || p.MeanCands < 1 {
		t.Fatalf("profile %+v", p)
	}
	// One-hot: everything unique.
	oh := decode.New(encoding.OneHot(16))
	var ohSigs []core.Signal
	for i := 0; i < 10; i++ {
		ohSigs = append(ohSigs, core.SignalFromChanges(16, r.Perm(16)[:3]...))
	}
	pOH, err := oh.Profile(ohSigs)
	if err != nil {
		t.Fatal(err)
	}
	if pOH.Unique != pOH.Total || pOH.MaxCands != 1 {
		t.Fatalf("one-hot profile %+v", pOH)
	}
}

// TestWeakEncodingsHighKMatchBruteForce pits the k=3 and k=4 canonical
// enumeration against exhaustive oracles on encodings that are NOT
// LI-4, where the pairwise-XOR index has multi-pair collisions (many
// (i,j) with equal TS(i)^TS(j)) — exactly the regime where a
// double-counting or missed-decomposition bug in the meet-in-the-middle
// would surface. Every decoded set must match GF(2) brute force and
// full 2^m concretization, and Count must agree with len(Decode).
func TestWeakEncodingsHighKMatchBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	encs := []struct {
		name string
		enc  *encoding.Encoding
	}{
		{"binary-12", encoding.Binary(12)}, // LI-2 only: maximal pair collisions
		{"binary-16", encoding.Binary(16)},
		{"inc-16-9-2", mustEnc(t, 16, 9, 2)}, // depth-2 incremental: not LI-4
	}
	for _, tc := range encs {
		enc := tc.enc
		m := enc.M()
		dec := decode.New(enc)
		// Confirm the encoding is genuinely weak: some pairwise XOR must
		// collide, otherwise this test is not exercising the multi-pair
		// paths.
		if !dec.HasPairCollisions() {
			t.Fatalf("%s: no pairwise collisions — test encoding too strong", tc.name)
		}
		for k := 3; k <= 4; k++ {
			for trial := 0; trial < 6; trial++ {
				truth := core.SignalFromChanges(m, r.Perm(m)[:k]...)
				entry := core.Log(enc, truth)
				alg, err := dec.Decode(entry)
				if err != nil {
					t.Fatal(err)
				}
				n, err := dec.Count(entry)
				if err != nil {
					t.Fatal(err)
				}
				if n != len(alg) {
					t.Fatalf("%s k=%d: Count %d != len(Decode) %d", tc.name, k, n, len(alg))
				}
				want := map[string]bool{}
				bf, err := reconstruct.BruteForce(enc, entry, 0)
				if err != nil {
					t.Fatal(err)
				}
				for _, s := range bf {
					want[s.Vector().Key()] = true
				}
				exSet := map[string]bool{}
				for _, s := range core.Concretize(enc, entry) {
					exSet[s.Vector().Key()] = true
				}
				if len(exSet) != len(want) {
					t.Fatalf("%s k=%d: brute force %d vs exhaustive %d", tc.name, k, len(want), len(exSet))
				}
				got := map[string]bool{}
				for _, s := range alg {
					if got[s.Vector().Key()] {
						t.Fatalf("%s k=%d: duplicate in Decode output", tc.name, k)
					}
					got[s.Vector().Key()] = true
					if !want[s.Vector().Key()] {
						t.Fatalf("%s k=%d: decoded set not in brute force", tc.name, k)
					}
				}
				for key := range want {
					if !got[key] {
						t.Fatalf("%s k=%d: brute-force solution missed by decode (%d vs %d)",
							tc.name, k, len(got), len(want))
					}
				}
				if !got[truth.Vector().Key()] {
					t.Fatalf("%s k=%d: truth not decoded", tc.name, k)
				}
			}
		}
	}
}

func TestCountMatchesDecodeLen(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, enc := range []*encoding.Encoding{
		encoding.Binary(14),
		mustEnc(t, 32, 11, 4),
		mustEnc(t, 48, 12, 4),
	} {
		dec := decode.New(enc)
		for k := 0; k <= decode.MaxK; k++ {
			for trial := 0; trial < 8; trial++ {
				entry := core.Log(enc, core.SignalFromChanges(enc.M(), r.Perm(enc.M())[:k]...))
				sigs, err := dec.Decode(entry)
				if err != nil {
					t.Fatal(err)
				}
				n, err := dec.Count(entry)
				if err != nil {
					t.Fatal(err)
				}
				if n != len(sigs) {
					t.Fatalf("m=%d k=%d: Count %d != len(Decode) %d", enc.M(), k, n, len(sigs))
				}
			}
		}
	}
}

func TestDecodeTypedErrors(t *testing.T) {
	dec := decode.New(mustEnc(t, 16, 8, 4))
	if _, err := dec.Decode(core.LogEntry{TP: bitvec.New(9), K: 1}); !errors.Is(err, core.ErrWidth) {
		t.Errorf("decode width: %v", err)
	}
	if _, err := dec.Decode(core.LogEntry{TP: bitvec.New(8), K: decode.MaxK + 1}); !errors.Is(err, core.ErrKRange) {
		t.Errorf("decode k: %v", err)
	}
	if _, err := dec.Count(core.LogEntry{TP: bitvec.New(9), K: 1}); !errors.Is(err, core.ErrWidth) {
		t.Errorf("count width: %v", err)
	}
	if _, err := dec.Count(core.LogEntry{TP: bitvec.New(8), K: -1}); !errors.Is(err, core.ErrKRange) {
		t.Errorf("count negative k: %v", err)
	}
}

// BenchmarkCount vs BenchmarkDecodeForCount: the satellite fix makes
// Count enumerate index sets without materializing signals, string keys
// or sorting. Run with -bench 'Count|DecodeForCount' to compare.
func benchEntry(b *testing.B) (*decode.Decoder, core.LogEntry) {
	b.Helper()
	enc := encoding.Binary(24) // weak: thousands of k=4 candidates
	r := rand.New(rand.NewSource(17))
	return decode.New(enc), core.Log(enc, core.SignalFromChanges(24, r.Perm(24)[:4]...))
}

func BenchmarkCount(b *testing.B) {
	dec, entry := benchEntry(b)
	if _, err := dec.Count(entry); err != nil { // warm the pair index
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dec.Count(entry); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDecodeForCount(b *testing.B) {
	dec, entry := benchEntry(b)
	if _, err := dec.Decode(entry); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sigs, err := dec.Decode(entry)
		if err != nil {
			b.Fatal(err)
		}
		_ = len(sigs)
	}
}

// BenchmarkDecodeRoute measures one routed decode request, feature
// extraction plus the decode backend, on the benchmark's stream-ingest
// geometry and change-count mix: m=128, b=16 incremental LI-4, and
// k = 0/1/2/3 with weights .1/.4/.3/.2. Its allocation count is pinned
// by TestDecodeRouteAllocs in internal/reconstruct; -benchmem shows it.
func BenchmarkDecodeRoute(b *testing.B) {
	enc := mustEnc(b, 128, 16, 4)
	r := rand.New(rand.NewSource(1))
	entries := make([]core.LogEntry, 64)
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
	disp, err := reconstruct.NewDispatcher(enc, reconstruct.DispatchOptions{Workers: 1, SessionMaxK: 16})
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	for _, e := range entries { // builds the decoder and its pair index
		if _, _, dec, err := disp.EnumerateRouted(ctx, e, nil, 0); err != nil || dec.Route != reconstruct.RouteDecode {
			b.Fatalf("k=%d: route %q, err %v; want %s", e.K, dec.Route, err, reconstruct.RouteDecode)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, err := disp.EnumerateRouted(ctx, entries[i%len(entries)], nil, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// TestDecodeOutputContract pins the decoder's output contract on weak
// encodings, whose pair index has multi-pair collisions: Decode returns
// no duplicate and sorts by Vector().Key(), and Count equals
// len(Decode). timeprintd's candidate lists, and so its replies and
// cache contents, follow this order.
func TestDecodeOutputContract(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	for m := 12; m <= 24; m++ {
		enc := encoding.Binary(m)
		dec := decode.New(enc)
		for k := 2; k <= decode.MaxK; k++ {
			for trial := 0; trial < 2; trial++ {
				entry := core.Log(enc, core.SignalFromChanges(m, r.Perm(m)[:k]...))
				sigs, err := dec.Decode(entry)
				if err != nil {
					t.Fatal(err)
				}
				for i := 1; i < len(sigs); i++ {
					prev, cur := sigs[i-1].Vector().Key(), sigs[i].Vector().Key()
					if prev == cur {
						t.Fatalf("binary-%d k=%d: duplicate candidate %s", m, k, sigs[i])
					}
					if prev > cur {
						t.Fatalf("binary-%d k=%d: candidates %d and %d out of Key order", m, k, i-1, i)
					}
				}
				n, err := dec.Count(entry)
				if err != nil {
					t.Fatal(err)
				}
				if n != len(sigs) {
					t.Fatalf("binary-%d k=%d: Count %d != len(Decode) %d", m, k, n, len(sigs))
				}
			}
		}
	}
}

func TestDecodeDeterministicOrder(t *testing.T) {
	enc := encoding.Binary(12)
	dec := decode.New(enc)
	entry := core.Log(enc, core.SignalFromChanges(12, 0, 1))
	a, _ := dec.Decode(entry)
	b, _ := dec.Decode(entry)
	if len(a) != len(b) {
		t.Fatal("nondeterministic count")
	}
	for i := range a {
		if !a[i].Equal(b[i]) {
			t.Fatal("nondeterministic order")
		}
	}
}

// refDecode is a reference decoder over plain Go maps, the way the
// decoder indexed timestamps before its word tables: it returns the
// Vector().Key() of every weight-k signal whose timestamps XOR to tp,
// sorted.
func refDecode(enc *encoding.Encoding, entry core.LogEntry) []string {
	m := enc.M()
	single := map[string]int{}
	pairs := map[string][][2]int{}
	for i := 0; i < m; i++ {
		single[enc.Timestamp(i).Key()] = i
		for j := i + 1; j < m; j++ {
			key := enc.Timestamp(i).Xor(enc.Timestamp(j)).Key()
			pairs[key] = append(pairs[key], [2]int{i, j})
		}
	}
	var out []string
	emit := func(cs ...int) { out = append(out, core.SignalFromChanges(m, cs...).Vector().Key()) }
	tp := entry.TP
	switch entry.K {
	case 0:
		if tp.IsZero() {
			emit()
		}
	case 1:
		if i, ok := single[tp.Key()]; ok {
			emit(i)
		}
	case 2:
		for i := 0; i < m; i++ {
			if j, ok := single[tp.Xor(enc.Timestamp(i)).Key()]; ok && j > i {
				emit(i, j)
			}
		}
	case 3:
		for i := 0; i < m; i++ {
			for _, p := range pairs[tp.Xor(enc.Timestamp(i)).Key()] {
				if p[0] > i {
					emit(i, p[0], p[1])
				}
			}
		}
	case 4:
		for i := 0; i < m; i++ {
			for j := i + 1; j < m; j++ {
				for _, p := range pairs[tp.Xor(enc.Timestamp(i)).Xor(enc.Timestamp(j)).Key()] {
					if p[0] > j {
						emit(i, j, p[0], p[1])
					}
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

// TestDecodeMatchesMapReference checks the word-table indexes against
// refDecode on weak binary encodings (m = 12..24), whose pair index
// has many pairs per key, and on an LI-4 one. Decode must return the
// reference's signals in its order and Count its length, for targets
// built from real signals and for random timeprints.
func TestDecodeMatchesMapReference(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	encs := []*encoding.Encoding{mustEnc(t, 40, 12, 4)}
	for m := 12; m <= 24; m++ {
		encs = append(encs, encoding.Binary(m))
	}
	for _, enc := range encs {
		m := enc.M()
		dec := decode.New(enc)
		for k := 0; k <= decode.MaxK; k++ {
			for trial := 0; trial < 3; trial++ {
				entry := core.Log(enc, core.SignalFromChanges(m, r.Perm(m)[:k]...))
				if trial == 2 {
					entry.TP = bitvec.FromUint(r.Uint64(), enc.B())
				}
				want := refDecode(enc, entry)
				sigs, err := dec.Decode(entry)
				if err != nil {
					t.Fatal(err)
				}
				n, err := dec.Count(entry)
				if err != nil {
					t.Fatal(err)
				}
				if len(sigs) != len(want) || n != len(want) {
					t.Fatalf("m=%d b=%d k=%d: Decode %d, Count %d, reference %d", m, enc.B(), k, len(sigs), n, len(want))
				}
				for i, s := range sigs {
					if s.Vector().Key() != want[i] {
						t.Fatalf("m=%d b=%d k=%d: candidate %d differs from the reference", m, enc.B(), k, i)
					}
				}
			}
		}
	}
}

// TestIndexHoldsNoPointers checks by reflection that the decoder's
// indexes keep their contents in pointer-free backing arrays: each
// index is a flat slice or a struct of ints and flat slices, so the
// garbage collector scans a few slice headers per decoder and never the
// m²/2 pair entries behind them.
func TestIndexHoldsNoPointers(t *testing.T) {
	var pointerFree func(reflect.Type) bool
	pointerFree = func(t reflect.Type) bool {
		switch t.Kind() {
		case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
			reflect.Float32, reflect.Float64:
			return true
		case reflect.Array:
			return pointerFree(t.Elem())
		case reflect.Struct:
			for i := 0; i < t.NumField(); i++ {
				if !pointerFree(t.Field(i).Type) {
					return false
				}
			}
			return true
		}
		return false
	}
	var flat func(reflect.Type) bool // ints, and slices of pointer-free elements
	flat = func(t reflect.Type) bool {
		switch t.Kind() {
		case reflect.Slice:
			return pointerFree(t.Elem())
		case reflect.Struct:
			for i := 0; i < t.NumField(); i++ {
				if !flat(t.Field(i).Type) {
					return false
				}
			}
			return true
		}
		return pointerFree(t)
	}
	types := decode.IndexTypes()
	if len(types) != 3 {
		t.Fatalf("index fields %v, want stamps, single and pairs", types)
	}
	for name, typ := range types {
		if !flat(typ) {
			t.Errorf("index %s (%v) holds pointers", name, typ)
		}
	}
}
