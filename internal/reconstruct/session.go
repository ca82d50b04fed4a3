package reconstruct

import (
	"strconv"

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
	// MaxK sizes the cardinality ladder: it is built min(m, MaxK+1)
	// wide once, and every k ≤ min(MaxK, m) becomes two assumption
	// literals. A larger k is still answered, on a guarded exactly-k
	// group (see Session). 0 means the default of 16.
	MaxK int
	// MaxConflicts bounds solver effort per query; 0 means unlimited.
	MaxConflicts int64
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
// rebuilt and discarded per entry. A k past the ladder is encoded once
// per session as a guarded exactly-k counter, keyed and re-armed by
// assumption like a property.
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

	// props maps a constraint's String(), or the exactly-k key of a k
	// past the ladder, to the selector guarding its clauses; each group
	// is encoded once on first use and re-armed by assumption on later
	// queries.
	props map[string]int

	obs *obs.Registry
}

// NewSession builds the session-invariant encoding for enc.
func NewSession(enc *encoding.Encoding, opts SessionOptions) *Session {
	defer opts.Obs.StartSpan(SpanSessionBuild).End()
	m, b := enc.M(), enc.B()
	bld := cnf.NewBuilder(m)
	bld.S.Obs = opts.Obs
	// Every session runs in-search Gauss: the reduced parity matrix
	// stays live across decision levels (the level-0 reduction seeds
	// it), so parity implications surface mid-search.
	bld.S.EnableGaussInSearch = true
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
	return s
}

// assumptions renders a log entry plus property constraints as the
// query's assumption literals, registering unseen properties (and an
// unseen k past the ladder) as guarded clause groups.
func (s *Session) assumptions(entry core.LogEntry, constraints []Constraint) ([]int, error) {
	if err := validate(s.enc, entry, constraints); err != nil {
		return nil, err
	}

	assumps := make([]int, 0, len(s.tpSel)+2+len(constraints))
	for j, sel := range s.tpSel {
		if entry.TP.Get(j) {
			assumps = append(assumps, sel)
		} else {
			assumps = append(assumps, -sel)
		}
	}
	// Past the ladder, its top rung ("at least maxK+1") still holds and
	// the exactly-k group pins the count.
	if entry.K >= 1 {
		assumps = append(assumps, s.ladder[min(entry.K, len(s.ladder))-1])
	}
	if entry.K < len(s.ladder) {
		assumps = append(assumps, -s.ladder[entry.K])
	}
	if entry.K > s.maxK {
		assumps = append(assumps, s.guarded("ExactlyK("+strconv.Itoa(entry.K)+")", func() { s.bld.ExactlyK(s.vars, entry.K) }))
	}
	for _, c := range constraints {
		assumps = append(assumps, s.guarded(c.String(), func() { c.Apply(s.bld, s.vars) }))
	}
	return assumps, nil
}

// guarded returns the selector of the clause group named key, emitting
// the group under a fresh selector on first use.
func (s *Session) guarded(key string, emit func()) int {
	sel, ok := s.props[key]
	if !ok {
		sel = s.bld.NewVar()
		s.bld.Guard = sel
		emit()
		s.bld.Guard = 0
		s.props[key] = sel
	}
	return sel
}

// Query enumerates up to limit candidate signals for one log entry
// under the given property constraints (limit <= 0: all). It returns
// the signals and whether the candidate space was exhausted; the
// session solver is left reusable — blocking clauses are retracted
// with the query. The error wraps sat.ErrBudget or sat.ErrInterrupted
// on incomplete outcomes.
func (s *Session) Query(entry core.LogEntry, constraints []Constraint, limit int) ([]core.Signal, bool, error) {
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
	return s.Query(entry, constraints, limit)
}

// numVars reports the session solver's variable count. It grows by
// one retired selector per enumeration and by one guard (plus any
// auxiliary variables) per distinct property or k past the ladder.
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
