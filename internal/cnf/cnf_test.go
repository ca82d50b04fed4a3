package cnf

import (
	"math/rand"
	"testing"

	"repro/internal/sat"
)

// countWithCardinality counts models of an otherwise-empty formula over
// n variables under the given cardinality constraint.
func countModels(t *testing.T, n int, install func(b *Builder, lits []int)) int {
	t.Helper()
	b := NewBuilder(n)
	lits := make([]int, n)
	for i := range lits {
		lits[i] = i + 1
	}
	install(b, lits)
	proj := lits
	cnt, exhausted, _ := b.S.CountModels(proj, 0)
	if !exhausted {
		t.Fatal("enumeration did not exhaust")
	}
	return cnt
}

func binomialRef(n, k int) int {
	if k < 0 || k > n {
		return 0
	}
	c := 1
	for i := 0; i < k; i++ {
		c = c * (n - i) / (i + 1)
	}
	return c
}

func sumBinomials(n, lo, hi int) int {
	s := 0
	for k := lo; k <= hi; k++ {
		s += binomialRef(n, k)
	}
	return s
}

func TestAtMostKCounts(t *testing.T) {
	for n := 1; n <= 8; n++ {
		for k := 0; k <= n; k++ {
			got := countModels(t, n, func(b *Builder, lits []int) { b.AtMostK(lits, k) })
			want := sumBinomials(n, 0, k)
			if got != want {
				t.Errorf("AtMost(%d of %d): %d models, want %d", k, n, got, want)
			}
		}
	}
}

func TestAtLeastKCounts(t *testing.T) {
	for n := 1; n <= 8; n++ {
		for k := 0; k <= n+1; k++ {
			got := countModels(t, n, func(b *Builder, lits []int) { b.AtLeastK(lits, k) })
			want := sumBinomials(n, k, n)
			if got != want {
				t.Errorf("AtLeast(%d of %d): %d models, want %d", k, n, got, want)
			}
		}
	}
}

func TestExactlyKCounts(t *testing.T) {
	for n := 1; n <= 8; n++ {
		for k := 0; k <= n; k++ {
			got := countModels(t, n, func(b *Builder, lits []int) { b.ExactlyK(lits, k) })
			want := binomialRef(n, k)
			if got != want {
				t.Errorf("Exactly(%d of %d): %d models, want %d", k, n, got, want)
			}
		}
	}
}

func TestBinomialEncodingsAgree(t *testing.T) {
	for n := 1; n <= 7; n++ {
		for k := 0; k <= n; k++ {
			got := countModels(t, n, func(b *Builder, lits []int) {
				if err := b.ExactlyKBinomial(lits, k); err != nil {
					t.Fatal(err)
				}
			})
			want := binomialRef(n, k)
			if got != want {
				t.Errorf("binomial Exactly(%d of %d): %d, want %d", k, n, got, want)
			}
		}
	}
}

func TestCardinalityOverNegatedLiterals(t *testing.T) {
	// Exactly 2 of {¬x1, ¬x2, ¬x3, ¬x4} true = exactly 2 of x true.
	b := NewBuilder(4)
	b.ExactlyK([]int{-1, -2, -3, -4}, 2)
	cnt, _, _ := b.S.CountModels([]int{1, 2, 3, 4}, 0)
	if cnt != 6 {
		t.Errorf("count %d want 6", cnt)
	}
}

func TestXorCNFMatchesNative(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	for trial := 0; trial < 60; trial++ {
		n := 2 + r.Intn(8)
		var vars []int
		for v := 1; v <= n; v++ {
			if r.Intn(2) == 1 {
				vars = append(vars, v)
			}
		}
		rhs := r.Intn(2) == 1

		proj := make([]int, n)
		for i := range proj {
			proj[i] = i + 1
		}

		bn := NewBuilder(n)
		bn.AddXor(vars, rhs)
		cn, ok1, _ := bn.S.CountModels(proj, 0)

		bc := NewBuilder(n)
		bc.AddXorCNF(vars, rhs)
		cc, ok2, _ := bc.S.CountModels(proj, 0)

		if !ok1 || !ok2 || cn != cc {
			t.Fatalf("trial %d: native %d (%v) vs cnf %d (%v), vars=%v rhs=%v",
				trial, cn, ok1, cc, ok2, vars, rhs)
		}
	}
}

func TestXorCNFEdgeCases(t *testing.T) {
	// Empty with rhs true: unsat.
	b := NewBuilder(1)
	b.AddXorCNF(nil, true)
	if b.S.Solve() != sat.Unsat {
		t.Error("empty xor rhs=1 should be unsat")
	}
	// Single var.
	b2 := NewBuilder(1)
	b2.AddXorCNF([]int{1}, true)
	if b2.S.Solve() != sat.Sat || !b2.S.Value(1) {
		t.Error("single-var xor")
	}
}

func TestAtLeastMoreThanNUnsat(t *testing.T) {
	b := NewBuilder(3)
	b.AtLeastK([]int{1, 2, 3}, 4)
	if b.S.Solve() != sat.Unsat {
		t.Error("at-least-4-of-3 should be unsat")
	}
}

func TestBinomialRefusesExplosion(t *testing.T) {
	b := NewBuilder(100)
	lits := make([]int, 100)
	for i := range lits {
		lits[i] = i + 1
	}
	if err := b.AtMostKBinomial(lits, 50); err == nil {
		t.Error("expected clause-explosion error")
	}
}

func TestImpliesEquiv(t *testing.T) {
	b := NewBuilder(2)
	b.Implies(1, 2)
	b.AddClause(1)
	if b.S.Solve() != sat.Sat || !b.S.Value(2) {
		t.Error("implication did not propagate")
	}

	b2 := NewBuilder(2)
	b2.Equiv(1, 2)
	cnt, _, _ := b2.S.CountModels([]int{1, 2}, 0)
	if cnt != 2 {
		t.Errorf("equiv model count %d", cnt)
	}
}

func TestCardinalityWithXorInteraction(t *testing.T) {
	// x1^x2^x3^x4 = 0 and exactly 2 true: C(4,2)=6 parity-even... all
	// weight-2 vectors have even parity, so all 6 survive.
	b := NewBuilder(4)
	b.AddXor([]int{1, 2, 3, 4}, false)
	b.ExactlyK([]int{1, 2, 3, 4}, 2)
	cnt, _, _ := b.S.CountModels([]int{1, 2, 3, 4}, 0)
	if cnt != 6 {
		t.Errorf("count %d want 6", cnt)
	}
	// Odd parity with even count: impossible.
	b2 := NewBuilder(4)
	b2.AddXor([]int{1, 2, 3, 4}, true)
	b2.ExactlyK([]int{1, 2, 3, 4}, 2)
	if b2.S.Solve() != sat.Unsat {
		t.Error("odd parity with k=2 should be unsat")
	}
}

func TestXorCutMatchesNative(t *testing.T) {
	// Cutting must preserve the solution set projected onto the
	// original variables, for every cut length.
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 40; trial++ {
		n := 4 + r.Intn(10)
		var vars []int
		for v := 1; v <= n; v++ {
			if r.Intn(3) > 0 {
				vars = append(vars, v)
			}
		}
		rhs := r.Intn(2) == 1
		proj := make([]int, n)
		for i := range proj {
			proj[i] = i + 1
		}

		ref := NewBuilder(n)
		ref.AddXor(vars, rhs)
		want, ok, _ := ref.S.CountModels(proj, 0)
		if !ok {
			t.Fatal("reference enumeration incomplete")
		}

		for _, cut := range []int{3, 4, 5, 8} {
			b := NewBuilder(n)
			b.AddXorCut(vars, rhs, cut)
			got, ok, _ := b.S.CountModels(proj, 0)
			if !ok || got != want {
				t.Fatalf("trial %d cut %d: %d models, want %d (vars=%v rhs=%v)",
					trial, cut, got, want, vars, rhs)
			}
		}
	}
}

func TestXorCutShortPassThrough(t *testing.T) {
	// Constraints within the cut length take the plain path.
	b := NewBuilder(3)
	b.AddXorCut([]int{1, 2, 3}, true, 8)
	if b.S.NumVars() != 3 {
		t.Errorf("aux variables allocated for a short xor: %d vars", b.S.NumVars())
	}
}

func TestXorCutPanicsOnTinyLimit(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewBuilder(4).AddXorCut([]int{1, 2, 3, 4}, true, 2)
}

func TestAtMostNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewBuilder(3).AtMostK([]int{1, 2, 3}, -1)
}

func TestBinomialExactlyError(t *testing.T) {
	b := NewBuilder(80)
	lits := make([]int, 80)
	for i := range lits {
		lits[i] = i + 1
	}
	if err := b.ExactlyKBinomial(lits, 40); err == nil {
		t.Error("explosive exactly-k accepted")
	}
	// The at-least direction alone can also explode.
	b2 := NewBuilder(80)
	if err := b2.AtLeastKBinomial(lits, 40); err == nil {
		t.Error("explosive at-least accepted")
	}
	// Degenerate at-least cases.
	b3 := NewBuilder(3)
	if err := b3.AtLeastKBinomial([]int{1, 2, 3}, 0); err != nil {
		t.Error(err)
	}
	if err := b3.AtLeastKBinomial([]int{1, 2, 3}, 4); err != nil {
		t.Error(err)
	}
	if b3.S.Solve() != sat.Unsat {
		t.Error("at-least-4-of-3 should mark unsat")
	}
}

// ladderCount counts the models of b's formula with exactly k of lits
// true, stated as assumptions on l's outputs; l must be wide enough
// for k.
func ladderCount(t *testing.T, b *Builder, l *Ladder, lits []int, k int) int {
	t.Helper()
	var assumps []int
	if k >= 1 {
		assumps = append(assumps, l.Out(k))
	}
	if k < len(lits) {
		assumps = append(assumps, -l.Out(k+1))
	}
	got := 0
	_, st, err := b.S.EnumerateAssuming(assumps, lits, 0, func(map[int]bool) bool {
		got++
		return true
	})
	if err != nil || st != sat.Unsat {
		t.Fatalf("n=%d k=%d: st=%v err=%v", len(lits), k, st, err)
	}
	return got
}

// TestLadderCounts checks the unasserted counter: every cardinality
// bound expressible as ladder assumptions must count C(n, k) against
// the same reusable solver, and a ladder widened in place from w to w′
// rungs must count exactly like a fresh width-w′ ladder.
func TestLadderCounts(t *testing.T) {
	for n := 1; n <= 8; n++ {
		lits := make([]int, n)
		for i := range lits {
			lits[i] = i + 1
		}
		// fresh[w][k] is the count on a fresh width-w ladder.
		fresh := make([][]int, n+1)
		for w := 1; w <= n; w++ {
			b := NewBuilder(n)
			l := b.Ladder(lits, w)
			for k := 0; k <= w && (k < w || k == n); k++ {
				got := ladderCount(t, b, l, lits, k)
				if want := binomialRef(n, k); got != want {
					t.Errorf("Ladder n=%d w=%d k=%d: %d models, want %d", n, w, k, got, want)
				}
				fresh[w] = append(fresh[w], got)
			}
		}
		// Widening leg: query the narrow ladder, widen it, query again.
		for w := 1; w < n; w++ {
			for w2 := w + 1; w2 <= n; w2++ {
				b := NewBuilder(n)
				l := b.Ladder(lits, w)
				ladderCount(t, b, l, lits, w-1)
				l.Widen(b, w2)
				l.Widen(b, w) // narrower: a no-op
				if l.Width() != w2 {
					t.Fatalf("n=%d: widened %d -> %d, width %d", n, w, w2, l.Width())
				}
				for k, want := range fresh[w2] {
					if got := ladderCount(t, b, l, lits, k); got != want || got != binomialRef(n, k) {
						t.Errorf("Ladder n=%d widened %d -> %d k=%d: %d models, fresh %d, want %d",
							n, w, w2, k, got, want, binomialRef(n, k))
					}
				}
			}
		}
	}
}

// TestGuardedBuilder checks Guard-scoped clauses only bind while their
// selector is assumed.
func TestGuardedBuilder(t *testing.T) {
	b := NewBuilder(2)
	sel := b.NewVar()
	b.Guard = sel
	b.AddClause(-1)
	b.AtMostK([]int{1, 2}, 1)
	b.Guard = 0

	if st := b.S.SolveAssuming([]int{1, 2}); st != sat.Sat {
		t.Fatalf("guard leaked without selector: %v", st)
	}
	if st := b.S.SolveAssuming([]int{sel, 1}); st != sat.Unsat {
		t.Fatalf("guarded clause inactive: %v", st)
	}
	if st := b.S.SolveAssuming([]int{sel, -1, 2}); st != sat.Sat {
		t.Fatalf("guarded constraints over-blocking: %v", st)
	}
}
