package reconstruct

import (
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/sat"
)

// Verdict is a certainty judgment of a temporal property against a
// timeprint log entry — the Section 3.3 usage where isolating the
// exact signal is unnecessary: "often, we only want to know whether
// there is a trace that satisfies or breaks a certain temporal
// property".
type Verdict int

const (
	// Inconclusive: some consistent signals satisfy the property and
	// some violate it; the log alone cannot decide.
	Inconclusive Verdict = iota
	// CertainlySatisfies: every signal consistent with (TP, k)
	// satisfies the property.
	CertainlySatisfies
	// CertainlyViolates: no signal consistent with (TP, k) satisfies
	// the property.
	CertainlyViolates
	// NoCandidates: nothing is consistent with the log entry at all
	// (corrupted log or wrong encoding).
	NoCandidates
	// Undecided: a solver budget expired before certainty was reached.
	Undecided
)

func (v Verdict) String() string {
	switch v {
	case CertainlySatisfies:
		return "CERTAINLY-SATISFIES"
	case CertainlyViolates:
		return "CERTAINLY-VIOLATES"
	case NoCandidates:
		return "NO-CANDIDATES"
	case Undecided:
		return "UNDECIDED"
	default:
		return "INCONCLUSIVE"
	}
}

// NegatableProperty pairs a property constraint with its logical
// complement, both as constraints (see properties.Negate for the
// automatically negatable subset).
type NegatableProperty struct {
	Prop, Negation Constraint
}

// Classify decides a property against a log entry with two SAT
// queries: candidates∧P (does anything satisfy it?) and candidates∧¬P
// (does anything violate it?). Both polarities are checked against ONE
// Reconstructor — the O(m³) A-structure encoding is built once and
// each polarity is activated as a guarded clause group (CheckUnder) —
// instead of paying for two full instances. A solver budget or
// interrupt expiring mid-check yields Undecided with a nil error;
// structural failures (malformed entry, a constraint that does not fit
// the encoding) propagate as errors.
func Classify(enc *encoding.Encoding, entry core.LogEntry, p NegatableProperty, opts Options) (Verdict, error) {
	if p.Prop == nil || p.Negation == nil {
		return Inconclusive, fmt.Errorf("reconstruct: Classify needs both the property and its negation")
	}
	rec, err := New(enc, entry, nil, opts)
	if err != nil {
		return Inconclusive, err
	}
	satisfiers, err := rec.CheckUnder(p.Prop)
	if err != nil {
		return classifyError(err)
	}
	violators, err := rec.CheckUnder(p.Negation)
	if err != nil {
		return classifyError(err)
	}
	switch {
	case satisfiers == sat.Unknown || violators == sat.Unknown:
		return Undecided, nil
	case satisfiers == sat.Sat && violators == sat.Unsat:
		return CertainlySatisfies, nil
	case satisfiers == sat.Unsat && violators == sat.Sat:
		return CertainlyViolates, nil
	case satisfiers == sat.Unsat && violators == sat.Unsat:
		return NoCandidates, nil
	default:
		return Inconclusive, nil
	}
}

// classifyError distinguishes resource exhaustion from structural
// failure: a budget or interrupt mid-check means the verdict is merely
// Undecided (not an error — callers can retry with a larger budget),
// while anything else (bad entry shape, ill-fitting constraint)
// propagates.
func classifyError(err error) (Verdict, error) {
	if errors.Is(err, sat.ErrBudget) || errors.Is(err, sat.ErrInterrupted) {
		return Undecided, nil
	}
	return Inconclusive, err
}
