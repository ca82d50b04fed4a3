package reconstruct

import (
	"math/rand"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/sat"
)

func mustEnc(t testing.TB, m, b, d int) *encoding.Encoding {
	t.Helper()
	e, err := encoding.Incremental(m, b, d)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func sigKeySet(sigs []core.Signal) map[string]bool {
	out := map[string]bool{}
	for _, s := range sigs {
		out[s.Vector().Key()] = true
	}
	return out
}

func TestSATMatchesBruteForceAndExhaustive(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	for trial := 0; trial < 25; trial++ {
		m := 10 + r.Intn(7) // m in [10,16]: exhaustive 2^m is fine
		enc := mustEnc(t, m, 9+r.Intn(3), 4)
		// Random true signal.
		v := bitvec.New(m)
		for i := 0; i < m; i++ {
			if r.Intn(3) == 0 {
				v.Set(i, true)
			}
		}
		truth := core.SignalFromVector(v)
		entry := core.Log(enc, truth)

		rec, err := New(enc, entry, nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		satSigs, exhausted, err := rec.EnumerateStrict(0)
		if err != nil {
			t.Fatal(err)
		}
		if !exhausted {
			t.Fatal("SAT enumeration not exhausted")
		}
		bfSigs, err := BruteForce(enc, entry, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		exSigs := core.Concretize(enc, entry)

		sk, bk, ek := sigKeySet(satSigs), sigKeySet(bfSigs), sigKeySet(exSigs)
		if len(sk) != len(satSigs) {
			t.Fatal("SAT enumeration returned duplicates")
		}
		if len(sk) != len(bk) || len(sk) != len(ek) {
			t.Fatalf("trial %d: |SAT|=%d |BF|=%d |EX|=%d", trial, len(sk), len(bk), len(ek))
		}
		for k := range sk {
			if !bk[k] || !ek[k] {
				t.Fatalf("trial %d: solution sets differ", trial)
			}
		}
		if !sk[truth.Vector().Key()] {
			t.Fatalf("trial %d: true signal not reconstructed", trial)
		}
	}
}

func TestFirstAndCheck(t *testing.T) {
	enc := mustEnc(t, 16, 8, 4)
	truth := core.SignalFromChanges(16, 2, 3, 9, 10)
	entry := core.Log(enc, truth)

	rec, err := New(enc, entry, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s, st, err := rec.First()
	if err != nil || st != sat.Sat {
		t.Fatalf("First: %v %v", st, err)
	}
	if got := core.Log(enc, s); !got.Equal(entry) {
		t.Fatal("First returned a non-candidate")
	}

	// An impossible entry: TP of odd weight 1 with k=0.
	bad := core.LogEntry{TP: bitvec.FromOnes(8, 0), K: 0}
	rec2, err := New(enc, bad, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st := rec2.Check(); st != sat.Unsat {
		t.Fatalf("impossible entry: %v", st)
	}
}

func TestInputValidation(t *testing.T) {
	enc := mustEnc(t, 16, 8, 4)
	if _, err := New(enc, core.LogEntry{TP: bitvec.New(9), K: 1}, nil, Options{}); err == nil {
		t.Error("wrong TP width accepted")
	}
	if _, err := New(enc, core.LogEntry{TP: bitvec.New(8), K: 17}, nil, Options{}); err == nil {
		t.Error("k > m accepted")
	}
	if _, err := New(enc, core.LogEntry{TP: bitvec.New(8), K: -1}, nil, Options{}); err == nil {
		t.Error("negative k accepted")
	}
}

func TestBruteForceNullityGuard(t *testing.T) {
	enc := mustEnc(t, 40, 12, 4) // nullity 28 over limit 20
	entry := core.Log(enc, core.SignalFromChanges(40, 1, 2))
	if _, err := BruteForce(enc, entry, 0, 20); err == nil {
		t.Error("expected nullity refusal")
	}
}

func TestBruteForceInconsistentTP(t *testing.T) {
	// One-hot encoding spans only weight-compatible TPs; craft a TP
	// outside the column space: impossible for one-hot (full rank b=m),
	// so use a rank-deficient custom encoding instead.
	ts := []bitvec.Vector{bitvec.FromOnes(4, 0), bitvec.FromOnes(4, 0, 1)}
	enc, err := encoding.FromTimestamps(ts, "custom")
	if err != nil {
		t.Fatal(err)
	}
	// Column space = span{e0, e0^e1}; e2 is outside.
	out, err := BruteForce(enc, core.LogEntry{TP: bitvec.FromOnes(4, 2), K: 1}, 0, 0)
	if err != nil || out != nil {
		t.Fatalf("expected empty result, got %v %v", out, err)
	}
}

func TestEnumerateLimit(t *testing.T) {
	enc := mustEnc(t, 12, 9, 4)
	truth := core.SignalFromChanges(12, 0, 5, 6)
	entry := core.Log(enc, truth)
	all, _ := BruteForce(enc, entry, 0, 0)
	if len(all) < 2 {
		t.Skip("instance not ambiguous; nothing to limit")
	}
	rec, _ := New(enc, entry, nil, Options{})
	sigs, exhausted, err := rec.EnumerateStrict(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(sigs) != 1 || exhausted {
		t.Fatalf("limit: %d exhausted=%v", len(sigs), exhausted)
	}
}

func TestCountCandidates(t *testing.T) {
	enc := mustEnc(t, 12, 9, 4)
	entry := core.Log(enc, core.SignalFromChanges(12, 3, 4))
	n, exhausted, err := CountCandidates(enc, entry, 0)
	if err != nil || !exhausted {
		t.Fatal(err)
	}
	bf, _ := BruteForce(enc, entry, 0, 0)
	if n != len(bf) {
		t.Fatalf("count %d, brute force %d", n, len(bf))
	}
}

func TestOneHotIsUnambiguous(t *testing.T) {
	// Section 4.3: linearly independent timestamps (one-hot) always
	// yield a unique reconstruction.
	enc := encoding.OneHot(12)
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		v := bitvec.New(12)
		for i := 0; i < 12; i++ {
			if r.Intn(3) == 0 {
				v.Set(i, true)
			}
		}
		truth := core.SignalFromVector(v)
		entry := core.Log(enc, truth)
		rec, _ := New(enc, entry, nil, Options{})
		sigs, exhausted, err := rec.EnumerateStrict(0)
		if err != nil {
			t.Fatal(err)
		}
		if !exhausted || len(sigs) != 1 || !sigs[0].Equal(truth) {
			t.Fatalf("one-hot ambiguity: %d signals", len(sigs))
		}
	}
}

func TestBinaryMoreAmbiguousThanLI4(t *testing.T) {
	// Section 4.3's trade-off: compressed timestamps raise ambiguity.
	// Compare candidate counts under binary vs LI-4 encodings for the
	// same signal.
	m := 14
	bin := encoding.Binary(m)
	li4 := mustEnc(t, m, 10, 4)
	truth := core.SignalFromChanges(m, 2, 3, 8, 9)

	nBin, _, err := CountCandidates(bin, core.Log(bin, truth), 0)
	if err != nil {
		t.Fatal(err)
	}
	nLI4, _, err := CountCandidates(li4, core.Log(li4, truth), 0)
	if err != nil {
		t.Fatal(err)
	}
	if nBin < nLI4 {
		t.Errorf("binary (%d) should be at least as ambiguous as LI-4 (%d)", nBin, nLI4)
	}
	if nLI4 < 1 {
		t.Error("LI-4 lost the true signal")
	}
}
