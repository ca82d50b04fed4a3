package properties

import (
	"fmt"

	"repro/internal/cnf"
	"repro/internal/core"
)

// This file models the constraint forms of Lisper & Nordlander's
// timing constraint logic (TCL, "A Simple and Flexible Timing
// Constraint Logic"), which the paper cites as the property language
// its reconstruction can encode (Section 5.1.3: "We can model
// properties defined in [15]"). Events are the change instants of the
// traced signal within one trace-cycle; each constraint is both a
// concrete predicate and a CNF compilation over the change variables.
//
// Window truncation: a trace-cycle is a finite observation window, so
// constraints that would refer to cycles beyond its end are vacuously
// satisfied there (the evidence for or against them lies in the next
// trace-cycle). Holds and Apply implement identical truncation.

// Response is the TCL delay/response constraint a →[L,U] a: every
// change whose full response window lies inside the trace-cycle is
// followed by another change within [L, U] cycles.
type Response struct {
	L, U int
}

// Holds evaluates the response constraint.
func (p Response) Holds(s core.Signal) bool {
	m := s.M()
	for _, i := range s.Changes() {
		if i+p.U >= m {
			continue // window truncated: vacuous
		}
		ok := false
		for j := i + p.L; j <= i+p.U; j++ {
			if s.Changed(j) {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

func (p Response) Validate(int) error {
	return check(p.L >= 1 && p.U >= p.L, "response window [%d,%d] invalid", p.L, p.U)
}

// Apply compiles x_i → (x_{i+L} ∨ … ∨ x_{i+U}) for in-window i.
func (p Response) Apply(b *cnf.Builder, vars []int) {
	m := len(vars)
	for i := 0; i+p.U < m; i++ {
		clause := make([]int, 0, p.U-p.L+2)
		clause = append(clause, -vars[i])
		for j := i + p.L; j <= i+p.U; j++ {
			clause = append(clause, vars[j])
		}
		b.AddClause(clause...)
	}
}

func (p Response) String() string { return fmt.Sprintf("Response[%d,%d]", p.L, p.U) }

// Periodic constrains changes to occur only within Jitter cycles of a
// multiple of Period (TCL's periodic event with jitter). Phase 0 is
// the start of the trace-cycle.
type Periodic struct {
	Period int
	Jitter int
}

func (p Periodic) allowed(i int) bool {
	q := (i + p.Period/2) / p.Period // nearest multiple
	d := i - q*p.Period
	if d < 0 {
		d = -d
	}
	return d <= p.Jitter
}

// Holds checks every change against the allowed phases.
func (p Periodic) Holds(s core.Signal) bool {
	for _, i := range s.Changes() {
		if !p.allowed(i) {
			return false
		}
	}
	return true
}

func (p Periodic) Validate(int) error {
	return check(p.Period >= 1 && p.Jitter >= 0, "periodic(%d,%d) invalid", p.Period, p.Jitter)
}

// Apply forbids changes at disallowed cycles.
func (p Periodic) Apply(b *cnf.Builder, vars []int) {
	for i, v := range vars {
		if !p.allowed(i) {
			b.AddClause(-v)
		}
	}
}

func (p Periodic) String() string { return fmt.Sprintf("Periodic(%d±%d)", p.Period, p.Jitter) }

// MaxGap bounds the distance between consecutive changes: after any
// change, either another change occurs within Gap cycles or the signal
// stays quiet for the rest of the trace-cycle (truncation).
type MaxGap struct {
	Gap int
}

// Holds checks consecutive change distances, ignoring the final
// truncated gap.
func (p MaxGap) Holds(s core.Signal) bool {
	cs := s.Changes()
	for idx := 0; idx+1 < len(cs); idx++ {
		if cs[idx+1]-cs[idx] > p.Gap {
			return false
		}
	}
	return true
}

func (p MaxGap) Validate(int) error { return check(p.Gap >= 1, "max gap %d invalid", p.Gap) }

// Apply uses a suffix-quiet chain: sq_c ⟺ no change strictly after c;
// then x_i → (∨_{j ∈ (i, i+Gap]} x_j) ∨ sq_{i+Gap}.
func (p MaxGap) Apply(b *cnf.Builder, vars []int) {
	m := len(vars)
	// sq[c] for c in [0, m-1]; sq[m-1] is trivially true.
	sq := make([]int, m)
	for c := m - 1; c >= 0; c-- {
		sq[c] = b.NewVar()
		if c == m-1 {
			b.AddClause(sq[c])
			continue
		}
		// sq_c <-> ¬x_{c+1} ∧ sq_{c+1}
		b.AddClause(-sq[c], -vars[c+1])
		b.AddClause(-sq[c], sq[c+1])
		b.AddClause(sq[c], vars[c+1], -sq[c+1])
	}
	for i := 0; i < m; i++ {
		hi := i + p.Gap
		if hi >= m {
			continue // remaining window shorter than the gap: vacuous
		}
		clause := []int{-vars[i]}
		for j := i + 1; j <= hi; j++ {
			clause = append(clause, vars[j])
		}
		clause = append(clause, sq[hi])
		b.AddClause(clause...)
	}
}

func (p MaxGap) String() string { return fmt.Sprintf("MaxGap(%d)", p.Gap) }

// CountBetween bounds the number of changes in [Lo, Hi): the TCL
// occurrence-count constraint generalizing the paper's Dk.
type CountBetween struct {
	Lo, Hi   int
	Min, Max int // Max < 0 means unbounded above
}

// Holds counts changes in the window.
func (p CountBetween) Holds(s core.Signal) bool {
	n := 0
	for _, c := range s.Changes() {
		if c >= p.Lo && c < p.Hi {
			n++
		}
	}
	if n < p.Min {
		return false
	}
	return p.Max < 0 || n <= p.Max
}

func (p CountBetween) Validate(m int) error {
	return check(0 <= p.Lo && p.Lo <= p.Hi && p.Hi <= m, "count window [%d,%d) invalid", p.Lo, p.Hi)
}

// Apply emits windowed cardinality constraints.
func (p CountBetween) Apply(b *cnf.Builder, vars []int) {
	window := vars[p.Lo:p.Hi]
	b.AtLeastK(window, p.Min)
	if p.Max >= 0 {
		b.AtMostK(window, p.Max)
	}
}

func (p CountBetween) String() string {
	return fmt.Sprintf("Count[%d,%d) in [%d,%d]", p.Lo, p.Hi, p.Min, p.Max)
}

// FirstChangeIn requires the earliest change to fall within [Lo, Hi) —
// TCL's offset constraint for the first occurrence. A signal with no
// change violates it (the event must occur).
type FirstChangeIn struct {
	Lo, Hi int
}

// Holds locates the first change.
func (p FirstChangeIn) Holds(s core.Signal) bool {
	cs := s.Changes()
	if len(cs) == 0 {
		return false
	}
	return cs[0] >= p.Lo && cs[0] < p.Hi
}

func (p FirstChangeIn) Validate(m int) error {
	return check(0 <= p.Lo && p.Lo < p.Hi && p.Hi <= m, "first-change window [%d,%d) invalid", p.Lo, p.Hi)
}

// Apply forbids changes before Lo, requires one in [Lo, Hi).
func (p FirstChangeIn) Apply(b *cnf.Builder, vars []int) {
	for _, v := range vars[:p.Lo] {
		b.AddClause(-v)
	}
	b.AddClause(vars[p.Lo:p.Hi]...)
}

func (p FirstChangeIn) String() string { return fmt.Sprintf("FirstChangeIn[%d,%d)", p.Lo, p.Hi) }
