// Package cnf builds CNF(+XOR) formulas on top of the sat solver. Its
// centerpiece is the compact cardinality encoding the paper relies on:
// the sequential counter of Sinz (CP 2005), built once as a Ladder
// whose rungs count the true literals. One width-(k+1) ladder
// expresses "exactly k of m variables" with m·(k+1) auxiliary
// variables and O(m·k) clauses, and at-most-k and at-least-k are the
// same ladder with one unit clause each — the naive binomial encoding
// would need C(m, k+1) + C(m, m−k+1) clauses and is provided only as an
// ablation baseline.
package cnf

import (
	"fmt"
	"slices"

	"repro/internal/sat"
)

// Builder accumulates constraints into an underlying solver and manages
// auxiliary-variable allocation.
type Builder struct {
	// S is the underlying solver; expose it for solving and model
	// queries once the formula is complete.
	S *sat.Solver

	// Guard, when nonzero, is a selector variable prepended (negated)
	// to every clause AddClause emits: the clauses added under the
	// guard only bind while Guard is assumed true via
	// sat.Solver.SolveAssuming. This is how an incremental session
	// encodes optional constraint groups (per-query properties) into
	// one reusable solver. XOR constraints cannot be guarded — parity
	// has no monotone selector form — so AddXor panics under a guard.
	Guard int
}

// NewBuilder returns a Builder over a fresh solver with n problem
// variables (1..n). Auxiliary variables are allocated above n.
func NewBuilder(n int) *Builder {
	return &Builder{S: sat.New(n)}
}

// NewVar allocates a fresh auxiliary variable.
func (b *Builder) NewVar() int { return b.S.NewVar() }

// AddClause adds a disjunction of DIMACS literals. Under a nonzero
// Guard the clause becomes (¬Guard ∨ lits...).
func (b *Builder) AddClause(lits ...int) {
	if b.Guard != 0 {
		guarded := make([]int, 0, len(lits)+1)
		guarded = append(guarded, -b.Guard)
		guarded = append(guarded, lits...)
		if err := b.S.AddClause(guarded...); err != nil {
			panic(fmt.Sprintf("cnf: %v", err))
		}
		return
	}
	if err := b.S.AddClause(lits...); err != nil {
		panic(fmt.Sprintf("cnf: %v", err))
	}
}

// AddXor adds the parity constraint over vars (= rhs) using the
// solver's native XOR clauses. This mirrors CryptoMiniSat's xor-clause
// input that the paper uses for the rows of A·x = TP.
func (b *Builder) AddXor(vars []int, rhs bool) {
	if b.Guard != 0 {
		panic("cnf: AddXor under a Guard — parity constraints cannot be selector-guarded")
	}
	if err := b.S.AddXorClause(vars, rhs); err != nil {
		panic(fmt.Sprintf("cnf: %v", err))
	}
}

// AddXorCut adds the parity constraint over vars (= rhs), cutting long
// constraints into chained segments of at most maxLen variables linked
// by fresh auxiliary variables:
//
//	x1^…^xL^t1 = 0,  t1^x(L+1)^…^t2 = 0,  …,  tk^…^xn = rhs.
//
// Short XOR clauses keep implication reasons — and therefore learned
// clauses — short, which is decisive for solving performance on the
// dense parity rows of A·x = TP (CryptoMiniSat applies the same
// transformation). Solutions projected onto the original variables are
// unchanged: every assignment of the x's extends uniquely to the t's.
func (b *Builder) AddXorCut(vars []int, rhs bool, maxLen int) {
	if maxLen < 3 {
		panic("cnf: AddXorCut needs maxLen >= 3")
	}
	if len(vars) <= maxLen {
		b.AddXor(vars, rhs)
		return
	}
	rest := vars
	carry := 0 // 0 = no carry variable yet
	for len(rest) > 0 {
		seg := make([]int, 0, maxLen+1)
		if carry != 0 {
			seg = append(seg, carry)
		}
		take := maxLen - len(seg)
		if take > len(rest) {
			take = len(rest)
		}
		seg = append(seg, rest[:take]...)
		rest = rest[take:]
		if len(rest) == 0 {
			b.AddXor(seg, rhs)
			return
		}
		carry = b.NewVar()
		seg = append(seg, carry)
		b.AddXor(seg, false) // segment ^ carry = 0, i.e. carry = segment sum
	}
}

// AddXorCNF adds the same parity constraint expanded to plain CNF via a
// chain of Tseitin XOR gates — the ablation baseline quantifying what
// native XOR support buys.
func (b *Builder) AddXorCNF(vars []int, rhs bool) {
	switch len(vars) {
	case 0:
		if rhs {
			b.AddClause() // empty clause: unsatisfiable
		}
		return
	case 1:
		if rhs {
			b.AddClause(vars[0])
		} else {
			b.AddClause(-vars[0])
		}
		return
	}
	// chain = vars[0]; chain = chain ^ vars[i] ...
	chain := vars[0]
	for _, v := range vars[1:] {
		z := b.NewVar()
		b.xorGate(z, chain, v)
		chain = z
	}
	if rhs {
		b.AddClause(chain)
	} else {
		b.AddClause(-chain)
	}
}

// xorGate encodes z <-> a ^ b.
func (b *Builder) xorGate(z, a, x int) {
	b.AddClause(-z, a, x)
	b.AddClause(-z, -a, -x)
	b.AddClause(z, -a, x)
	b.AddClause(z, a, -x)
}

// Ladder is the Sinz sequential counter (CP 2005) over a fixed list of
// literals, the one cardinality encoding of the package. It is built
// one rung at a time: rung j holds one variable per literal, the i-th
// equivalent to "at least j of the first i+1 literals are true", defined
// by full equivalences from rung j−1. Nothing is asserted, so a ladder
// w wide serves every bound up to w, and Widen adds rungs in place:
//
//	exactly k  =  Out(k) (k >= 1) and ¬Out(k+1) (k < len(lits))
//
// AtMostK, AtLeastK and ExactlyK assert those outputs as unit clauses;
// an incremental session assumes them instead.
type Ladder struct {
	lits  []int
	rungs [][]int // rungs[j-1][i]: at least j of lits[:i+1] are true
}

// Ladder returns a width-w ladder over lits; w must be in
// [1, len(lits)].
func (b *Builder) Ladder(lits []int, w int) *Ladder {
	if w < 1 {
		panic(fmt.Sprintf("cnf: Ladder width %d below 1", w))
	}
	l := &Ladder{lits: lits}
	l.Widen(b, w)
	return l
}

// Width reports the number of rungs built.
func (l *Ladder) Width() int { return len(l.rungs) }

// Out returns the variable equivalent to "at least j of the literals
// are true", for j in 1..Width().
func (l *Ladder) Out(j int) int {
	r := l.rungs[j-1]
	return r[len(r)-1]
}

// Widen adds rungs to b's formula until the ladder is w wide; a ladder
// already w wide is left as it is. w must not exceed len(lits).
func (l *Ladder) Widen(b *Builder, w int) {
	n := len(l.lits)
	if w > n {
		panic(fmt.Sprintf("cnf: Ladder width %d above %d literals", w, n))
	}
	for len(l.rungs) < w {
		u := make([]int, n)
		for i := range u {
			u[i] = b.NewVar()
		}
		// Building rung j = len(l.rungs)+1 from prev, rung j−1 (nil for
		// rung 1).
		var prev []int
		if len(l.rungs) > 0 {
			prev = l.rungs[len(l.rungs)-1]
		}
		// First literal: u[0] <-> x0 on rung 1, false above it.
		if prev == nil {
			b.Equiv(u[0], l.lits[0])
		} else {
			b.AddClause(-u[0])
		}
		for i := 1; i < n; i++ {
			x := l.lits[i]
			// Forward: a count >= j among the first i+1 sets u[i].
			b.AddClause(-u[i-1], u[i])
			if prev == nil {
				b.AddClause(-x, u[i])
			} else {
				b.AddClause(-x, -prev[i-1], u[i])
			}
			// Backward: u[i] needs support from the count.
			b.AddClause(-u[i], u[i-1], x)
			if prev != nil {
				b.AddClause(-u[i], u[i-1], prev[i-1])
			}
		}
		l.rungs = append(l.rungs, u)
	}
}

// Clone returns a copy of the ladder's bookkeeping that widens
// independently: rungs built so far are shared (they never change),
// rungs added to either copy are its own. It is how a cloned solver
// keeps its ladder.
func (l *Ladder) Clone() *Ladder {
	return &Ladder{lits: l.lits, rungs: slices.Clip(l.rungs)}
}

// AtMostK constrains at most k of the literals to be true: a
// width-(k+1) ladder with ¬Out(k+1). k < 0 panics; k = 0 forces every
// literal false; k >= len(lits) adds nothing.
func (b *Builder) AtMostK(lits []int, k int) {
	switch {
	case k < 0:
		panic("cnf: AtMostK with negative k")
	case k >= len(lits):
		return
	case k == 0:
		for _, l := range lits {
			b.AddClause(-l)
		}
		return
	}
	b.AddClause(-b.Ladder(lits, k+1).Out(k + 1))
}

// AtLeastK constrains at least k of the literals to be true: a width-k
// ladder with Out(k). k <= 0 adds nothing; k > len(lits) is
// unsatisfiable.
func (b *Builder) AtLeastK(lits []int, k int) {
	switch {
	case k <= 0:
		return
	case k > len(lits):
		b.AddClause() // unsatisfiable
		return
	}
	b.AddClause(b.Ladder(lits, k).Out(k))
}

// ExactlyK constrains exactly k of the literals to be true — the
// cardinality constraint of the signal reconstruction problem, where k
// is the logged change count — on one width-(k+1) ladder with Out(k)
// and ¬Out(k+1). At k = 0 or k >= len(lits) one direction is void and
// the other is the whole constraint.
func (b *Builder) ExactlyK(lits []int, k int) {
	if k <= 0 || k >= len(lits) {
		b.AtMostK(lits, k)
		b.AtLeastK(lits, k)
		return
	}
	l := b.Ladder(lits, k+1)
	b.AddClause(l.Out(k))
	b.AddClause(-l.Out(k + 1))
}

// MaxBinomialClauses caps the clause explosion the naive encodings are
// allowed to produce before they refuse to run.
const MaxBinomialClauses = 2_000_000

// AtMostKBinomial is the naive O(C(n,k+1)) encoding: one clause of
// negations for every (k+1)-subset. It returns an error instead of
// emitting more than MaxBinomialClauses clauses.
func (b *Builder) AtMostKBinomial(lits []int, k int) error {
	n := len(lits)
	if k >= n {
		return nil
	}
	if k < 0 {
		panic("cnf: AtMostKBinomial with negative k")
	}
	if c := binomial(n, k+1); c < 0 || c > MaxBinomialClauses {
		return fmt.Errorf("cnf: binomial at-most-%d over %d literals needs %d clauses", k, n, c)
	}
	subset := make([]int, k+1)
	var rec func(start, depth int) // enumerate (k+1)-subsets
	clause := make([]int, k+1)
	rec = func(start, depth int) {
		if depth == k+1 {
			for i, idx := range subset {
				clause[i] = -lits[idx]
			}
			b.AddClause(clause...)
			return
		}
		for i := start; i < n; i++ {
			subset[depth] = i
			rec(i+1, depth+1)
		}
	}
	rec(0, 0)
	return nil
}

// AtLeastKBinomial is the naive dual: one clause per (n-k+1)-subset.
func (b *Builder) AtLeastKBinomial(lits []int, k int) error {
	n := len(lits)
	if k <= 0 {
		return nil
	}
	if k > n {
		b.AddClause()
		return nil
	}
	neg := make([]int, n)
	for i, l := range lits {
		neg[i] = -l
	}
	return b.AtMostKBinomial(neg, n-k)
}

// ExactlyKBinomial combines both naive directions.
func (b *Builder) ExactlyKBinomial(lits []int, k int) error {
	if err := b.AtMostKBinomial(lits, k); err != nil {
		return err
	}
	return b.AtLeastKBinomial(lits, k)
}

func binomial(n, k int) int {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	c := 1
	for i := 0; i < k; i++ {
		c = c * (n - i) / (i + 1)
		if c < 0 || c > 1<<40 {
			return -1 // overflow sentinel
		}
	}
	return c
}

// Implies adds a -> b.
func (b *Builder) Implies(a, c int) { b.AddClause(-a, c) }

// Equiv adds a <-> b.
func (b *Builder) Equiv(a, c int) {
	b.AddClause(-a, c)
	b.AddClause(a, -c)
}
