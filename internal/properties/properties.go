// Package properties implements the temporal-property layer of Section
// 5.1.3: properties of the traced signal that are already known to hold
// (verified specifications, RV monitor verdicts, failure analysis) are
// compiled into extra SAT constraints that prune the signal
// reconstruction search space. Each property doubles as a concrete
// predicate over signals, so reconstructed candidates can be checked
// directly and the CNF compilation is testable against the semantics.
//
// The paper's named properties are provided — P2 ("two consecutive
// change cycles appear at least once") and Dk ("at least k changes
// before deadline D") — together with the didactic paired-changes
// shape of Section 3.3, reconstruction windows, and the
// delayed-variant property used to localize the one-cycle refresh
// delays in Section 5.2.2.
package properties

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"strconv"

	"repro/internal/cnf"
	"repro/internal/core"
)

// Property is a temporal property of a trace-cycle signal: it can be
// evaluated on a concrete signal and compiled to clauses over the
// change variables (vars[i] ⇔ "change in clock-cycle i"). Every
// reconstruction backend takes it (reconstruct.Constraint).
type Property interface {
	// Holds evaluates the property on a concrete signal.
	Holds(s core.Signal) bool
	// Validate reports whether the property is well-formed over a
	// trace-cycle of m clock-cycles.
	Validate(m int) error
	// Apply compiles a property that passed Validate(len(vars)) into
	// the builder. It emits plain clauses only, never AddXor, so a
	// session solver can guard them under a selector literal.
	Apply(b *cnf.Builder, vars []int)
	// String names the property.
	String() string
}

// check is the Validate verdict of a fit condition: nil when ok,
// otherwise the formatted reason. Its arguments are boxed only on
// failure, so a passing check allocates nothing.
func check(ok bool, format string, args ...int) error {
	if ok {
		return nil
	}
	boxed := make([]any, len(args))
	for i, a := range args {
		boxed[i] = a
	}
	return fmt.Errorf(format, boxed...)
}

// P2 is the paper's P2: at least one adjacent pair of change cycles
// exists (∃i: S(i) ∧ S(i+1)). A weak property — the paper shows it
// prunes worse than Dk and can even slow solving.
type P2 struct{}

// Holds reports whether the signal has two consecutive changes.
func (P2) Holds(s core.Signal) bool {
	for i := 0; i+1 < s.M(); i++ {
		if s.Changed(i) && s.Changed(i+1) {
			return true
		}
	}
	return false
}

func (P2) Validate(int) error { return nil }

// Apply introduces one auxiliary variable per adjacent pair (p_i →
// x_i ∧ x_{i+1}) and requires some p_i to hold.
func (P2) Apply(b *cnf.Builder, vars []int) {
	if len(vars) < 2 {
		b.AddClause() // no pair can exist
		return
	}
	pairLits := make([]int, 0, len(vars)-1)
	for i := 0; i+1 < len(vars); i++ {
		p := b.NewVar()
		b.AddClause(-p, vars[i])
		b.AddClause(-p, vars[i+1])
		pairLits = append(pairLits, p)
	}
	b.AddClause(pairLits...)
}

func (P2) String() string { return "P2(adjacent-pair-exists)" }

// Dk is the paper's Dk: at least K changes occur strictly before the
// deadline cycle D (0-based: among cycles 0..D−1). The paper's Table 1
// uses K = 3, D = 32.
type Dk struct {
	D int // deadline cycle (exclusive)
	K int // minimum changes before the deadline
}

// Holds counts changes before the deadline.
func (p Dk) Holds(s core.Signal) bool {
	n := 0
	for _, c := range s.Changes() {
		if c < p.D {
			n++
		}
	}
	return n >= p.K
}

func (p Dk) Validate(m int) error {
	return check(p.D >= 0 && p.D <= m, "deadline %d outside [0,%d]", p.D, m)
}

// Apply emits an at-least-K cardinality constraint over the pre-
// deadline change variables.
func (p Dk) Apply(b *cnf.Builder, vars []int) {
	b.AtLeastK(vars[:p.D], p.K)
}

func (p Dk) String() string { return fmt.Sprintf("Dk(>=%d before %d)", p.K, p.D) }

// PairedChanges is the didactic Section 3.3 shape: every change
// belongs to a block of exactly two consecutive change cycles (a value
// write lasts one cycle, so the wire rises and falls back). Blocks are
// disjoint and non-adjacent.
type PairedChanges struct{}

// Holds verifies the change-map is a union of isolated adjacent pairs.
func (PairedChanges) Holds(s core.Signal) bool {
	m := s.M()
	for i := 0; i < m; {
		if !s.Changed(i) {
			i++
			continue
		}
		// A block starts at i: needs exactly 2 ones then a zero (or end).
		if i+1 >= m || !s.Changed(i+1) {
			return false
		}
		if i+2 < m && s.Changed(i+2) {
			return false
		}
		i += 3
	}
	return true
}

func (PairedChanges) Validate(int) error { return nil }

// Apply encodes the shape with two clause families: no three
// consecutive changes, and every change has an adjacent change.
func (PairedChanges) Apply(b *cnf.Builder, vars []int) {
	m := len(vars)
	if m == 1 {
		b.AddClause(-vars[0]) // a single cycle can never host a pair
		return
	}
	for i := 0; i+2 < m; i++ {
		b.AddClause(-vars[i], -vars[i+1], -vars[i+2])
	}
	b.AddClause(-vars[0], vars[1])
	for i := 1; i+1 < m; i++ {
		b.AddClause(-vars[i], vars[i-1], vars[i+1])
	}
	b.AddClause(-vars[m-1], vars[m-2])
}

func (PairedChanges) String() string { return "PairedChanges" }

// Window restricts all changes to clock-cycles [Lo, Hi). The CAN
// experiment's "actual failure time window" reconstruction uses this.
type Window struct {
	Lo, Hi int
}

// Holds reports whether every change lies inside the window.
func (w Window) Holds(s core.Signal) bool {
	for _, c := range s.Changes() {
		if c < w.Lo || c >= w.Hi {
			return false
		}
	}
	return true
}

func (w Window) Validate(m int) error {
	return check(0 <= w.Lo && w.Lo <= w.Hi && w.Hi <= m, "window [%d,%d) outside [0,%d]", w.Lo, w.Hi, m)
}

// Apply forces change variables outside the window to 0.
func (w Window) Apply(b *cnf.Builder, vars []int) {
	for i, v := range vars {
		if i < w.Lo || i >= w.Hi {
			b.AddClause(-v)
		}
	}
}

// String avoids fmt: a session looks its guard group up by String on
// every query, and fmt's printer pool is emptied by every GC, so its
// allocations would depend on when the collector ran.
func (w Window) String() string {
	return "Window[" + strconv.Itoa(w.Lo) + "," + strconv.Itoa(w.Hi) + ")"
}

// ChangeBefore asserts at least one change strictly before cycle D —
// e.g. "the transmission started before the deadline". Its UNSAT
// verdict is the paper's CAN liability proof.
type ChangeBefore struct {
	D int
}

// Holds reports whether some change precedes D.
func (p ChangeBefore) Holds(s core.Signal) bool {
	cs := s.Changes()
	return len(cs) > 0 && cs[0] < p.D
}

func (p ChangeBefore) Validate(m int) error {
	return check(p.D > 0 && p.D <= m, "deadline %d outside (0,%d]", p.D, m)
}

// Apply emits the disjunction of the pre-deadline change variables.
func (p ChangeBefore) Apply(b *cnf.Builder, vars []int) {
	b.AddClause(vars[:p.D]...)
}

func (p ChangeBefore) String() string { return fmt.Sprintf("ChangeBefore(%d)", p.D) }

// QuietBefore asserts no change strictly before cycle D (dual of
// ChangeBefore).
type QuietBefore struct {
	D int
}

// Holds reports whether all changes are at or after D.
func (p QuietBefore) Holds(s core.Signal) bool {
	cs := s.Changes()
	return len(cs) == 0 || cs[0] >= p.D
}

func (p QuietBefore) Validate(m int) error {
	return check(p.D >= 0 && p.D <= m, "deadline %d outside [0,%d]", p.D, m)
}

// Apply forces the pre-D change variables to 0.
func (p QuietBefore) Apply(b *cnf.Builder, vars []int) {
	for _, v := range vars[:p.D] {
		b.AddClause(-v)
	}
}

func (p QuietBefore) String() string { return fmt.Sprintf("QuietBefore(%d)", p.D) }

// MinGap requires consecutive changes to be at least Gap cycles apart
// (Gap = 1 is vacuous). Models minimum pulse spacing / debounce specs.
type MinGap struct {
	Gap int
}

// Holds checks pairwise distances of adjacent changes.
func (p MinGap) Holds(s core.Signal) bool {
	cs := s.Changes()
	for i := 1; i < len(cs); i++ {
		if cs[i]-cs[i-1] < p.Gap {
			return false
		}
	}
	return true
}

func (p MinGap) Validate(int) error { return check(p.Gap >= 1, "gap %d must be >= 1", p.Gap) }

// Apply forbids any two changes closer than Gap.
func (p MinGap) Apply(b *cnf.Builder, vars []int) {
	for i := range vars {
		for d := 1; d < p.Gap && i+d < len(vars); d++ {
			b.AddClause(-vars[i], -vars[i+d])
		}
	}
}

func (p MinGap) String() string { return fmt.Sprintf("MinGap(%d)", p.Gap) }

// ExactChanges pins the signal to exactly the given change cycles —
// the strongest possible property, used when a reference trace fixes
// everything (e.g. checking whether the logged timeprint equals a
// simulation's).
type ExactChanges struct {
	Changes []int
}

// Holds compares change sets.
func (p ExactChanges) Holds(s core.Signal) bool {
	want := core.SignalFromChanges(s.M(), p.Changes...)
	return s.Equal(want)
}

// Validate requires every change inside the trace-cycle.
func (p ExactChanges) Validate(m int) error {
	for _, c := range p.Changes {
		if c < 0 || c >= m {
			return fmt.Errorf("change %d outside [0,%d)", c, m)
		}
	}
	return nil
}

// Apply emits one unit clause per cycle.
func (p ExactChanges) Apply(b *cnf.Builder, vars []int) {
	want := core.SignalFromChanges(len(vars), p.Changes...)
	for i, v := range vars {
		if want.Changed(i) {
			b.AddClause(v)
		} else {
			b.AddClause(-v)
		}
	}
}

// String lists the changes, so two different change sets never share
// a cache key or a session guard.
func (p ExactChanges) String() string {
	b := []byte("ExactChanges(")
	for i, c := range p.Changes {
		if i > 0 {
			b = append(b, ',')
		}
		b = strconv.AppendInt(b, int64(c), 10)
	}
	return string(append(b, ')'))
}

// OneOfSignals asserts the signal equals one of the listed candidate
// signals — a disjunction of complete assignments, encoded with a
// one-hot selector. The Section 5.2.2 delay localization compiles to
// this via DelayedVariants, and the Section 5.2.1 CAN reconstruction
// lists the frame at every offset.
type OneOfSignals struct {
	Name       string
	Candidates []core.Signal
}

// Holds reports membership in the candidate set.
func (p OneOfSignals) Holds(s core.Signal) bool {
	for _, c := range p.Candidates {
		if s.Equal(c) {
			return true
		}
	}
	return false
}

// Validate requires every candidate to span the trace-cycle.
func (p OneOfSignals) Validate(m int) error {
	for j, cand := range p.Candidates {
		if cand.M() != m {
			return fmt.Errorf("candidate %d has length %d, want %d", j, cand.M(), m)
		}
	}
	return nil
}

// Apply introduces a selector variable per candidate, with clauses in
// proportion to the candidates' changes rather than m per candidate:
//
//	sel_j → v_i                     for each change i of candidate j
//	v_i → OR(sel_j : j changes at i) for each position i
//	exactly one sel_j               (one clause plus AtMostK(sels, 1))
//
// The selected candidate forces its own changes, and no other position
// can change because no selected candidate supports it, so the signal
// equals the selected candidate whatever k is.
func (p OneOfSignals) Apply(b *cnf.Builder, vars []int) {
	if len(p.Candidates) == 0 {
		b.AddClause()
		return
	}
	sels := make([]int, len(p.Candidates))
	support := make([][]int, len(vars)) // support[i]: -v_i, then the selectors changing at i
	for i, v := range vars {
		support[i] = []int{-v}
	}
	for j, cand := range p.Candidates {
		sels[j] = b.NewVar()
		for _, i := range cand.Changes() {
			b.AddClause(-sels[j], vars[i])
			support[i] = append(support[i], sels[j])
		}
	}
	for _, clause := range support {
		b.AddClause(clause...)
	}
	b.AddClause(sels...)
	b.AtMostK(sels, 1)
}

// String is Name (or "OneOfSignals(n)" when unnamed) followed by a
// digest of the candidates, so two different candidate sets never
// share a cache key or a session guard.
func (p OneOfSignals) String() string {
	name := p.Name
	if name == "" {
		name = fmt.Sprintf("OneOfSignals(%d)", len(p.Candidates))
	}
	h := sha256.New()
	var buf []byte
	for _, c := range p.Candidates {
		v := c.Vector()
		buf = binary.AppendUvarint(buf[:0], uint64(v.Width()))
		h.Write(v.AppendBytes(buf))
	}
	return fmt.Sprintf("%s#%x", name, h.Sum(nil)[:8])
}

// DelayedVariants builds the Section 5.2.2 localization property: the
// signal equals the reference trace except that exactly one change
// instance is delayed by delta cycles (landing on a previously quiet
// cycle). The reconstructor then reveals which instance was delayed.
func DelayedVariants(ref core.Signal, delta int) OneOfSignals {
	var cands []core.Signal
	m := ref.M()
	for _, c := range ref.Changes() {
		nc := c + delta
		if nc < 0 || nc >= m || ref.Changed(nc) {
			continue
		}
		v := ref.Vector()
		v.Flip(c)
		v.Flip(nc)
		cands = append(cands, core.SignalFromVector(v))
	}
	return OneOfSignals{
		Name:       fmt.Sprintf("DelayedVariants(delta=%d, refK=%d)", delta, ref.K()),
		Candidates: cands,
	}
}

// All conjoins several properties.
type All []Property

// Holds requires every conjunct to hold.
func (a All) Holds(s core.Signal) bool {
	for _, p := range a {
		if !p.Holds(s) {
			return false
		}
	}
	return true
}

// Validate requires every conjunct to fit.
func (a All) Validate(m int) error {
	for _, p := range a {
		if err := p.Validate(m); err != nil {
			return err
		}
	}
	return nil
}

// Apply compiles every conjunct.
func (a All) Apply(b *cnf.Builder, vars []int) {
	for _, p := range a {
		p.Apply(b, vars)
	}
}

func (a All) String() string {
	s := "All("
	for i, p := range a {
		if i > 0 {
			s += ", "
		}
		s += p.String()
	}
	return s + ")"
}
