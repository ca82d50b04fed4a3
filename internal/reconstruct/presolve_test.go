package reconstruct

import (
	"math/rand"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/sat"
)

// rankDeficientEnc builds an encoding whose matrix has deliberately
// redundant rows: row b-1 duplicates row 0 (every timestamp carries
// bit 0 and bit b-1 equal). Rank < b, so timeprints with those bits
// unequal are outside the column space of A.
func rankDeficientEnc(t *testing.T, m, b int) *encoding.Encoding {
	t.Helper()
	base := mustEnc(t, m, b-1, 4)
	ts := make([]bitvec.Vector, m)
	for i := 0; i < m; i++ {
		v := bitvec.New(b)
		src := base.Timestamp(i)
		for j := 0; j < b-1; j++ {
			v.Set(j, src.Get(j))
		}
		v.Set(b-1, src.Get(0)) // duplicate row 0 as row b-1
		ts[i] = v
	}
	enc, err := encoding.FromTimestamps(ts, "test-rank-deficient")
	if err != nil {
		t.Fatal(err)
	}
	return enc
}

func TestPresolveInconsistentTP(t *testing.T) {
	m, b := 16, 10
	enc := rankDeficientEnc(t, m, b)

	// A consistent timeprint, then break the duplicated bit so TP
	// leaves the column space of A.
	truth := core.SignalFromChanges(m, 2, 5, 11)
	entry := core.Log(enc, truth)
	entry.TP.Flip(b - 1)

	rec, err := New(enc, entry, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ps := rec.Stats().Presolve
	if !ps.Inconsistent {
		t.Fatalf("presolve stats %+v: want Inconsistent", ps)
	}
	if st := rec.Check(); st != sat.Unsat {
		t.Fatalf("status %v, want Unsat", st)
	}
	if dec := rec.Stats().Solver.Decisions; dec != 0 {
		t.Errorf("presolve-refuted instance took %d decisions, want 0", dec)
	}
	if sigs, exhausted, err := rec.EnumerateStrict(0); err != nil || len(sigs) != 0 || !exhausted {
		t.Errorf("EnumerateStrict: %d signals, exhausted=%v, err=%v", len(sigs), exhausted, err)
	}

	// Sanity: the unmodified entry is consistent and finds the truth.
	rec2, err := New(enc, core.Log(enc, truth), nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if ps := rec2.Stats().Presolve; ps.Inconsistent || ps.Freed != b-ps.Rank {
		t.Fatalf("consistent entry presolve stats %+v", ps)
	}
	sigs, exhausted, err := rec2.EnumerateStrict(0)
	if err != nil {
		t.Fatal(err)
	}
	if !exhausted || !sigKeySet(sigs)[truth.Vector().Key()] {
		t.Fatalf("consistent entry lost the true signal (%d sigs, exhausted=%v)", len(sigs), exhausted)
	}
}

func TestPresolveInfeasibleK(t *testing.T) {
	// One-hot encoding: the system is full rank m, every position is a
	// unit row, so forcedTrue = k exactly; any other k is refuted by
	// the presolve feasibility window without SAT search.
	m := 12
	enc := encoding.OneHot(m)
	truth := core.SignalFromChanges(m, 3, 7)
	entry := core.Log(enc, truth)
	entry.K = 3 // logged k contradicts the forced positions

	rec, err := New(enc, entry, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ps := rec.Stats().Presolve
	if !ps.Inconsistent {
		t.Fatalf("presolve stats %+v: want Inconsistent (k window)", ps)
	}
	if st := rec.Check(); st != sat.Unsat {
		t.Fatalf("status %v, want Unsat", st)
	}
	if dec := rec.Stats().Solver.Decisions; dec != 0 {
		t.Errorf("refuted instance took %d decisions, want 0", dec)
	}
}

func TestPresolveAllPositionsForced(t *testing.T) {
	// One-hot with the correct k: rank == m, Fixed == m, and the unique
	// solution falls out of the unit clauses alone.
	m := 12
	enc := encoding.OneHot(m)
	truth := core.SignalFromChanges(m, 1, 4, 9)
	entry := core.Log(enc, truth)

	rec, err := New(enc, entry, nil, Options{})
	if err != nil {
		t.Fatal(err)
	}
	ps := rec.Stats().Presolve
	if ps.Rank != m || ps.Fixed != m || ps.Freed != 0 || ps.Inconsistent {
		t.Fatalf("presolve stats %+v: want rank=fixed=%d", ps, m)
	}
	sigs, exhausted, err := rec.EnumerateStrict(0)
	if err != nil {
		t.Fatal(err)
	}
	if !exhausted || len(sigs) != 1 || !sigs[0].Equal(truth) {
		t.Fatalf("want unique solution %v, got %d signals (exhausted=%v)", truth, len(sigs), exhausted)
	}
}

// TestPresolveEquivalence checks, on randomized small instances, that
// the presolved SAT path and the linear-algebra brute force agree on
// the candidate set. (The raw-rows leg lives with the other encoding
// ablations in the root package's TestAblationModesAgree.)
func TestPresolveEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(97))
	for trial := 0; trial < 20; trial++ {
		m := 10 + r.Intn(7)
		enc := mustEnc(t, m, 9+r.Intn(3), 4)
		v := bitvec.New(m)
		for i := 0; i < m; i++ {
			if r.Intn(3) == 0 {
				v.Set(i, true)
			}
		}
		entry := core.Log(enc, core.SignalFromVector(v))

		rec, err := New(enc, entry, nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		sigs, exhausted, err := rec.EnumerateStrict(0)
		if err != nil {
			t.Fatal(err)
		}
		if !exhausted {
			t.Fatalf("trial %d: not exhausted", trial)
		}
		bf, err := BruteForce(enc, entry, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
		pk, bk := sigKeySet(sigs), sigKeySet(bf)
		if len(pk) != len(bk) {
			t.Fatalf("trial %d: presolve %d, brute force %d candidates", trial, len(pk), len(bk))
		}
		for k := range pk {
			if !bk[k] {
				t.Fatalf("trial %d: candidate sets differ", trial)
			}
		}
	}
}

// TestEnumerateParallelMatchesSerial checks the reconstruction-level
// parallel driver against the serial path across worker counts.
func TestEnumerateParallelMatchesSerial(t *testing.T) {
	r := rand.New(rand.NewSource(113))
	for trial := 0; trial < 8; trial++ {
		m := 10 + r.Intn(7)
		enc := mustEnc(t, m, 9+r.Intn(3), 4)
		v := bitvec.New(m)
		for i := 0; i < m; i++ {
			if r.Intn(3) == 0 {
				v.Set(i, true)
			}
		}
		entry := core.Log(enc, core.SignalFromVector(v))

		rec, err := New(enc, entry, nil, Options{})
		if err != nil {
			t.Fatal(err)
		}
		serial, exhausted, err := rec.EnumerateStrict(0) // consumes rec
		if err != nil {
			t.Fatal(err)
		}
		if !exhausted {
			t.Fatal("serial enumeration not exhausted")
		}
		want := sigKeySet(serial)

		for _, workers := range []int{2, 4} {
			rec, err := New(enc, entry, nil, Options{})
			if err != nil {
				t.Fatal(err)
			}
			par, exhausted, err := rec.EnumerateParallelStrict(0, workers)
			if err != nil {
				t.Fatal(err)
			}
			if !exhausted {
				t.Fatalf("workers %d: parallel enumeration not exhausted", workers)
			}
			got := sigKeySet(par)
			if len(got) != len(want) {
				t.Fatalf("workers %d: %d signals, want %d", workers, len(got), len(want))
			}
			for k := range want {
				if !got[k] {
					t.Fatalf("workers %d: signal sets differ", workers)
				}
			}
			// Non-consuming: a second call returns the same set.
			again, _, err := rec.EnumerateParallelStrict(0, workers)
			if err != nil {
				t.Fatal(err)
			}
			if len(again) != len(par) {
				t.Fatalf("workers %d: EnumerateParallelStrict consumed the instance", workers)
			}

			// FirstParallel agrees with Check on satisfiability.
			sig, st, err := rec.FirstParallel(workers)
			if err != nil {
				t.Fatal(err)
			}
			if (st == sat.Sat) != (len(serial) > 0) {
				t.Fatalf("workers %d: FirstParallel status %v with %d candidates", workers, st, len(serial))
			}
			if st == sat.Sat && !sigKeySet(serial)[sig.Vector().Key()] {
				t.Fatalf("workers %d: FirstParallel returned a non-candidate", workers)
			}
		}
	}
}
