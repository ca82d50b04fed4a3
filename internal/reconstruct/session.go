package reconstruct

import (
	"fmt"

	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/obs"
	"repro/internal/sat"
)

// Session metric names.
const (
	// MetricSessionBuilds counts session encodings built;
	// MetricSessionQueries counts assumption queries answered against a
	// session solver.
	MetricSessionBuilds  = "reconstruct.session.builds"
	MetricSessionQueries = "reconstruct.session.queries"
	// SpanSessionBuild and SpanSessionQuery time the one-off encoding
	// and the per-query assumption solve respectively.
	SpanSessionBuild = "reconstruct.session.build"
	SpanSessionQuery = "reconstruct.session.query"
)

// SessionOptions tune a reconstruction session.
type SessionOptions struct {
	// MaxK bounds the change counts the session can query: the
	// cardinality ladder is built min(m, MaxK+1) wide once, and every
	// k ≤ min(MaxK, m) becomes two assumption literals. 0 means the
	// default of 16; queries beyond the bound are rejected (callers
	// fall back to a one-shot Reconstructor).
	MaxK int
	// MaxConflicts bounds solver effort per query; 0 means unlimited.
	MaxConflicts int64
	// InSearchGauss keeps the reduced GF(2) matrix live ACROSS
	// decision levels (CryptoMiniSat-style in-search elimination):
	// parity implications and conflicts are extracted mid-search
	// instead of only at level 0.
	InSearchGauss bool
	// Obs receives the session metrics and the solver counters; nil is
	// fully supported.
	Obs *obs.Registry
}

func (o SessionOptions) maxK(m int) int {
	k := o.MaxK
	if k <= 0 {
		k = 16
	}
	if k > m {
		k = m
	}
	return k
}

// Session is a reusable SR instance for a fixed encoding: the paper's
// repeated-query workload (one fixed measurement matrix A, many
// (TP, k) log entries) solved incrementally. The session encodes the
// A-structure ONCE — parity rows with a selector variable per
// timeprint bit, an unasserted cardinality ladder — and answers each
// query with sat.Solver.SolveAssuming: TP bits, the k-bounds and any
// property constraints are assumption literals, so learned clauses and
// branching heuristics accumulate across queries instead of being
// rebuilt and discarded per entry.
//
// A Session is not safe for concurrent use; Clone gives an independent
// copy (sharing nothing mutable) for concurrent querying.
type Session struct {
	enc  *encoding.Encoding
	bld  *cnf.Builder
	vars []int // signal variables 1..m

	// tpSel[j] is the selector variable folded into parity row j:
	// row_j ^ tpSel[j] = 0, so tpSel[j] ≡ XOR(row_j) and assuming
	// ±tpSel[j] pins timeprint bit j without touching the formula.
	tpSel []int

	// ladder[j-1] ≡ "at least j signal variables are true", 1..width.
	ladder []int
	maxK   int

	// props maps a constraint's String() to the selector guarding its
	// clauses; properties are encoded once on first use and re-armed by
	// assumption on later queries.
	props map[string]int

	obs *obs.Registry
}

// NewSession builds the session-invariant encoding for enc.
func NewSession(enc *encoding.Encoding, opts SessionOptions) (*Session, error) {
	defer opts.Obs.StartSpan(SpanSessionBuild).End()
	m, b := enc.M(), enc.B()
	bld := cnf.NewBuilder(m)
	bld.S.Obs = opts.Obs
	bld.S.EnableGauss = true
	bld.S.EnableGaussInSearch = opts.InSearchGauss
	vars := make([]int, m)
	for i := range vars {
		vars[i] = i + 1
	}
	s := &Session{
		enc:   enc,
		bld:   bld,
		vars:  vars,
		maxK:  opts.maxK(m),
		props: make(map[string]int),
		obs:   opts.Obs,
	}

	// Parity rows with timeprint selectors. Rows are fed UNCUT: the
	// in-solver Gaussian elimination wants the raw system (cut chains
	// would hide structure behind carry variables).
	ts := enc.Timestamps()
	s.tpSel = make([]int, b)
	for j := 0; j < b; j++ {
		sel := bld.NewVar()
		s.tpSel[j] = sel
		row := []int{sel}
		for i := 0; i < m; i++ {
			if ts[i].Get(j) {
				row = append(row, vars[i])
			}
		}
		// XOR(row_j) ^ sel = 0. An empty row pins sel false, which
		// correctly refutes any query asking for that bit.
		bld.AddXor(row, false)
	}

	s.ladder = bld.Ladder(vars, min(m, s.maxK+1))

	bld.S.MaxConflicts = opts.MaxConflicts
	opts.Obs.Counter(MetricSessionBuilds).Inc()
	return s, nil
}

// MaxK reports the largest change count the session can query.
func (s *Session) MaxK() int { return s.maxK }

// TPWidth reports the encoded timeprint width b.
func (s *Session) TPWidth() int { return s.enc.B() }

// Supports reports whether a change count is queryable on this
// session.
func (s *Session) Supports(k int) bool { return k >= 0 && k <= s.maxK }

// assumptions renders a log entry plus property constraints as the
// query's assumption literals, registering unseen properties as
// guarded clause groups.
func (s *Session) assumptions(entry core.LogEntry, constraints []Constraint) (_ []int, err error) {
	if err := validateShape(s.enc, entry); err != nil {
		return nil, err
	}
	if !s.Supports(entry.K) {
		return nil, fmt.Errorf("reconstruct: session ladder caps k at %d, got %d: %w", s.maxK, entry.K, core.ErrKRange)
	}

	assumps := make([]int, 0, len(s.tpSel)+2+len(constraints))
	for j, sel := range s.tpSel {
		if entry.TP.Get(j) {
			assumps = append(assumps, sel)
		} else {
			assumps = append(assumps, -sel)
		}
	}
	if entry.K >= 1 {
		assumps = append(assumps, s.ladder[entry.K-1])
	}
	if entry.K < len(s.ladder) {
		assumps = append(assumps, -s.ladder[entry.K])
	}

	// Properties: encode each unseen constraint once under a fresh
	// guard, then (re)activate by assumption. A constraint that emits
	// XOR clauses cannot be guarded — cnf.Builder panics — so surface
	// that as an error and let the caller fall back to one-shot mode.
	defer func() {
		if r := recover(); r != nil {
			s.bld.Guard = 0
			err = fmt.Errorf("reconstruct: session cannot encode constraint: %v", r)
		}
	}()
	for _, c := range constraints {
		key := c.String()
		sel, ok := s.props[key]
		if !ok {
			sel = s.bld.NewVar()
			s.bld.Guard = sel
			applyErr := c.Apply(s.bld, s.vars)
			s.bld.Guard = 0
			if applyErr != nil {
				return nil, fmt.Errorf("reconstruct: constraint %s: %w", c, applyErr)
			}
			s.props[key] = sel
		}
		assumps = append(assumps, sel)
	}
	return assumps, nil
}

// Query enumerates up to limit candidate signals for one log entry
// under the given property constraints (limit <= 0: all). It returns
// the signals and whether the candidate space was exhausted; the
// session solver is left reusable — blocking clauses are retracted
// with the query. The error wraps sat.ErrBudget or sat.ErrInterrupted
// on incomplete outcomes, and core.ErrKRange when k is outside the
// session's ladder (callers fall back to a one-shot Reconstructor).
func (s *Session) Query(entry core.LogEntry, constraints []Constraint, limit int) ([]core.Signal, bool, error) {
	return s.query(entry, constraints, limit)
}

// EnumerateWithin is Query with cooperative cancellation: closing done
// interrupts the solver at its next conflict or decision. The
// interrupt is cleared on return, so a fired deadline does not poison
// the retained session solver for later queries.
func (s *Session) EnumerateWithin(done <-chan struct{}, entry core.LogEntry, constraints []Constraint, limit int) ([]core.Signal, bool, error) {
	stop := s.bld.S.InterruptOnDone(done)
	defer func() {
		stop()
		s.bld.S.ClearInterrupt()
	}()
	return s.query(entry, constraints, limit)
}

func (s *Session) query(entry core.LogEntry, constraints []Constraint, limit int) ([]core.Signal, bool, error) {
	defer s.obs.StartSpan(SpanSessionQuery).End()
	assumps, err := s.assumptions(entry, constraints)
	if err != nil {
		return nil, false, err
	}
	s.obs.Counter(MetricSessionQueries).Inc()
	var out []core.Signal
	n, st, err := s.bld.S.EnumerateAssuming(assumps, s.vars, limit, func(model map[int]bool) bool {
		out = append(out, checkedSignal(s.enc, entry, func(i int) bool { return model[s.vars[i]] }))
		return true
	})
	s.obs.Counter(MetricCandidates).Add(int64(n))
	return out, st == sat.Unsat, err
}

// Check reports whether any candidate exists for the entry under the
// constraints — the safety-property query, incrementally.
func (s *Session) Check(entry core.LogEntry, constraints []Constraint) (sat.Status, error) {
	assumps, err := s.assumptions(entry, constraints)
	if err != nil {
		return sat.Unknown, err
	}
	s.obs.Counter(MetricSessionQueries).Inc()
	return s.bld.S.SolveAssuming(assumps), nil
}

// numVars reports the session solver's variable count. It grows by
// one retired selector per enumeration and by one guard (plus any
// auxiliary variables) per distinct property.
func (s *Session) numVars() int { return s.bld.S.NumVars() }

// Stats exposes the underlying solver counters.
func (s *Session) Stats() sat.Stats { return s.bld.S.Stats }

// Clone returns an independent session over the same encoding: the
// solver state (learned clauses, activities, property encodings) is
// deep-copied, so the clone serves concurrent queries without sharing
// anything mutable with the original.
func (s *Session) Clone() *Session {
	props := make(map[string]int, len(s.props))
	for k, v := range s.props {
		props[k] = v
	}
	return &Session{
		enc:    s.enc,
		bld:    &cnf.Builder{S: s.bld.S.Clone()},
		vars:   s.vars,
		tpSel:  s.tpSel,
		ladder: s.ladder,
		maxK:   s.maxK,
		props:  props,
		obs:    s.obs,
	}
}
