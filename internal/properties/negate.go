package properties

import (
	"fmt"

	"repro/internal/cnf"
	"repro/internal/core"
)

// Negate returns the logical complement of a property when it is
// expressible in this property algebra, and ok=false otherwise.
// Negations power certainty verdicts over a timeprint log: "every
// signal consistent with the log satisfies P" is exactly "candidates ∧
// ¬P is UNSAT" (see reconstruct.Classify). Only properties whose
// complements stay clausal are supported:
//
//	Dk(D, K)            ↔ at most K−1 changes before D
//	ChangeBefore(D)     ↔ QuietBefore(D)
//	Window(lo, hi)      ↔ at least one change outside [lo, hi)
//	CountBetween, when one side of the bound is trivial
func Negate(p Property) (Property, bool) {
	switch q := p.(type) {
	case Dk:
		if q.K <= 0 {
			return Never{}, true // Dk with K<=0 is trivially true
		}
		return CountBetween{Lo: 0, Hi: q.D, Min: 0, Max: q.K - 1}, true
	case ChangeBefore:
		return QuietBefore{D: q.D}, true
	case QuietBefore:
		if q.D <= 0 {
			return Never{}, true // QuietBefore(0) is trivially true
		}
		return ChangeBefore{D: q.D}, true
	case Window:
		return ChangeOutside{Lo: q.Lo, Hi: q.Hi}, true
	case CountBetween:
		switch {
		case q.Min <= 0 && q.Max >= 0:
			// n <= Max; complement: n >= Max+1.
			return CountBetween{Lo: q.Lo, Hi: q.Hi, Min: q.Max + 1, Max: -1}, true
		case q.Max < 0 && q.Min > 0:
			// n >= Min; complement: n <= Min-1.
			return CountBetween{Lo: q.Lo, Hi: q.Hi, Min: 0, Max: q.Min - 1}, true
		}
		return nil, false
	}
	return nil, false
}

// Never is the unsatisfiable property (complement of a trivially-true
// one).
type Never struct{}

// Holds is false on every signal.
func (Never) Holds(core.Signal) bool { return false }

func (Never) Validate(int) error { return nil }

// Apply emits the empty clause.
func (Never) Apply(b *cnf.Builder, vars []int) {
	b.AddClause()
}

func (Never) String() string { return "Never" }

// ChangeOutside holds when at least one change falls outside [Lo, Hi)
// — the complement of Window.
type ChangeOutside struct {
	Lo, Hi int
}

// Holds scans for an out-of-window change.
func (p ChangeOutside) Holds(s core.Signal) bool {
	for _, c := range s.Changes() {
		if c < p.Lo || c >= p.Hi {
			return true
		}
	}
	return false
}

func (p ChangeOutside) Validate(m int) error { return Window(p).Validate(m) }

// Apply emits the disjunction of all out-of-window change variables.
func (p ChangeOutside) Apply(b *cnf.Builder, vars []int) {
	var clause []int
	for i, v := range vars {
		if i < p.Lo || i >= p.Hi {
			clause = append(clause, v)
		}
	}
	b.AddClause(clause...) // empty when the window covers everything
}

func (p ChangeOutside) String() string { return fmt.Sprintf("ChangeOutside[%d,%d)", p.Lo, p.Hi) }
