// Package reconstruct solves the paper's Signal Reconstruction (SR)
// problem:
//
//	Input:  encoding TS : [0..m) → F2^b, timeprint TP ∈ F2^b, k ∈ N.
//	Task:   find all signals S with α̃(S) = (TP, k).
//
// Equivalently: all x ∈ F2^m with A·x = TP and exactly k ones, where
// A = [TS(0) | … | TS(m−1)]. SR is NP-hard (syndrome decoding,
// Berlekamp–McEliece–van Tilborg 1978). Following Section 4.2, the
// system's b parity rows become native XOR clauses and the cardinality
// constraint |x| = k uses the Sinz sequential-counter encoding; known
// temporal properties are added as extra CNF constraints to prune the
// search (Section 5.1.3). A Gaussian-elimination brute-force baseline
// cross-checks the SAT path and quantifies what the solver buys.
package reconstruct

import (
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/obs"
	"repro/internal/sat"
)

// Constraint adds clauses restricting the candidate signals. vars[i]
// is the solver variable asserting "the signal changed in clock-cycle
// i". Temporal properties (internal/properties) implement this
// interface.
type Constraint interface {
	// Apply emits the constraint's clauses into the builder.
	Apply(b *cnf.Builder, vars []int) error
	// String names the constraint for reports.
	String() string
}

// Options tune how the SAT instance is built and solved. The zero
// value is the paper's configuration: native XOR clauses and the Sinz
// sequential-counter cardinality encoding.
type Options struct {
	// XorAsCNF expands parity rows to plain CNF instead of native XOR
	// clauses (ablation).
	XorAsCNF bool
	// BinomialCardinality uses the naive C(m,k+1)-clause encoding
	// instead of the sequential counter (ablation; fails on large
	// instances by design).
	BinomialCardinality bool
	// MaxConflicts bounds the solver effort per Solve call; 0 means
	// unlimited.
	MaxConflicts int64
	// XorCutLen caps the length of native XOR clauses; longer parity
	// rows are chained through auxiliary variables (see cnf.AddXorCut).
	// 0 means the default of 8; negative disables cutting (ablation).
	XorCutLen int
	// NoPresolve skips the GF(2) Gaussian presolve and feeds the raw
	// parity rows of A·x = TP to the solver (ablation). By default the
	// system is row-reduced first: inconsistency yields UNSAT without
	// any SAT search, unit rows become fixed positions, and redundant
	// rows are dropped before the CNF is built.
	NoPresolve bool
	// Obs, when non-nil, receives the layer's metrics (presolve
	// outcomes, candidate counts, build/enumerate spans) and is handed
	// down to the underlying SAT solver. Nil is fully supported and is
	// the fast path.
	Obs *obs.Registry
}

// Metric names published by the reconstruction layer.
const (
	// MetricInstances counts SAT instances built by New.
	MetricInstances = "reconstruct.instances"
	// Presolve outcome counters: instances refuted outright by the
	// GF(2) elimination, positions fixed by unit rows, redundant parity
	// rows eliminated, and instances built with presolve disabled.
	MetricPresolveInconsistent = "reconstruct.presolve.inconsistent"
	MetricPresolveFixed        = "reconstruct.presolve.fixed"
	MetricPresolveFreed        = "reconstruct.presolve.freed"
	MetricPresolveDisabled     = "reconstruct.presolve.disabled"
	// MetricCandidates counts candidate signals delivered by the
	// enumeration APIs.
	MetricCandidates = "reconstruct.candidates"
	// SpanBuild and SpanEnumerate time instance construction and
	// (serial or parallel) enumeration.
	SpanBuild     = "reconstruct.build"
	SpanEnumerate = "reconstruct.enumerate"
)

func (o Options) cutLen() int {
	switch {
	case o.XorCutLen == 0:
		return 8
	case o.XorCutLen < 0:
		return 1 << 30 // effectively uncut
	default:
		return o.XorCutLen
	}
}

// PresolveStats reports what the GF(2) Gaussian presolve decided
// before the SAT solver was involved.
type PresolveStats struct {
	// Enabled is false when Options.NoPresolve skipped the presolve.
	Enabled bool
	// Rank is the rank of the parity system A.
	Rank int
	// Fixed counts signal positions whose value is forced by a unit
	// row of the reduced system (every solution agrees on them).
	Fixed int
	// Freed counts redundant parity rows eliminated before encoding
	// (b − rank): the solver never sees them.
	Freed int
	// Inconsistent is true when presolve refuted the instance outright
	// — TP outside the column space of A, or the forced positions
	// already incompatible with k — so UNSAT needed no SAT search.
	Inconsistent bool
}

// Stats combines the presolve outcome with the solver counters.
type Stats struct {
	Solver   sat.Stats
	Presolve PresolveStats
}

// Reconstructor is a live SR instance. Enumeration consumes it:
// each found signal is blocked before the search continues.
type Reconstructor struct {
	enc      *encoding.Encoding
	entry    core.LogEntry
	builder  *cnf.Builder
	vars     []int
	presolve PresolveStats
	obs      *obs.Registry
}

// New builds the SAT instance for entry under enc, with the given
// property constraints (may be nil).
func New(enc *encoding.Encoding, entry core.LogEntry, constraints []Constraint, opts Options) (*Reconstructor, error) {
	defer opts.Obs.StartSpan(SpanBuild).End()
	m, b := enc.M(), enc.B()
	if entry.TP.Width() != b {
		return nil, fmt.Errorf("reconstruct: timeprint width %d, want %d: %w", entry.TP.Width(), b, core.ErrWidth)
	}
	if entry.K < 0 || entry.K > m {
		return nil, fmt.Errorf("reconstruct: k=%d outside [0,%d]: %w", entry.K, m, core.ErrKRange)
	}

	bld := cnf.NewBuilder(m)
	bld.S.Obs = opts.Obs
	vars := make([]int, m)
	for i := range vars {
		vars[i] = i + 1
	}
	r := &Reconstructor{enc: enc, entry: entry, builder: bld, vars: vars, obs: opts.Obs}
	opts.Obs.Counter(MetricInstances).Inc()
	if opts.NoPresolve {
		opts.Obs.Counter(MetricPresolveDisabled).Inc()
	}
	defer func() {
		if r.presolve.Inconsistent {
			opts.Obs.Counter(MetricPresolveInconsistent).Inc()
		}
		opts.Obs.Counter(MetricPresolveFixed).Add(int64(r.presolve.Fixed))
		opts.Obs.Counter(MetricPresolveFreed).Add(int64(r.presolve.Freed))
	}()

	emitRow := func(row []int, rhs bool) {
		if opts.XorAsCNF {
			bld.AddXorCNF(row, rhs)
			return
		}
		cut := opts.cutLen()
		if cut >= len(row) {
			bld.AddXor(row, rhs)
		} else {
			bld.AddXorCut(row, rhs, cut)
		}
	}

	if opts.NoPresolve {
		// One parity row per timeprint bit j: XOR of {x_i : TS(i)_j = 1}
		// equals TP_j.
		ts := enc.Timestamps()
		for j := 0; j < b; j++ {
			var row []int
			for i := 0; i < m; i++ {
				if ts[i].Get(j) {
					row = append(row, vars[i])
				}
			}
			emitRow(row, entry.TP.Get(j))
		}
	} else {
		// GF(2) presolve: row-reduce [A | TP] first. The reduced system
		// has the same solution set, but inconsistency is decided here
		// (UNSAT with zero solver work), unit rows become level-0 unit
		// clauses, and the b − rank redundant rows disappear.
		ech := enc.Matrix().Eliminate(entry.TP)
		r.presolve = PresolveStats{Enabled: true, Rank: ech.Rank, Freed: b - ech.Rank}
		if !ech.Consistent {
			r.presolve.Inconsistent = true
			bld.AddClause() // empty clause: solver reports Unsat instantly
		} else {
			forcedTrue := 0
			for i, rowVec := range ech.Rows {
				ones := rowVec.Ones()
				if len(ones) == 1 {
					// Unit row: position is identical in every solution.
					r.presolve.Fixed++
					if ech.RHS[i] {
						forcedTrue++
						bld.AddClause(vars[ones[0]])
					} else {
						bld.AddClause(-vars[ones[0]])
					}
					continue
				}
				row := make([]int, len(ones))
				for j, c := range ones {
					row[j] = vars[c]
				}
				emitRow(row, ech.RHS[i])
			}
			// Cardinality feasibility against the fixed positions: every
			// solution has at least forcedTrue ones and at most
			// forcedTrue + (m − fixed) ones.
			if entry.K < forcedTrue || entry.K > forcedTrue+(m-r.presolve.Fixed) {
				r.presolve.Inconsistent = true
				bld.AddClause()
			}
		}
	}

	// The instance is already refuted: skip the cardinality and
	// property encodings — the solver answers Unsat from the empty
	// clause with zero search.
	if r.presolve.Inconsistent {
		bld.S.MaxConflicts = opts.MaxConflicts
		return r, nil
	}

	// Cardinality: exactly k changes.
	if opts.BinomialCardinality {
		if err := bld.ExactlyKBinomial(vars, entry.K); err != nil {
			return nil, err
		}
	} else {
		bld.ExactlyK(vars, entry.K)
	}

	for _, c := range constraints {
		if err := c.Apply(bld, vars); err != nil {
			return nil, fmt.Errorf("reconstruct: constraint %s: %w", c, err)
		}
	}

	bld.S.MaxConflicts = opts.MaxConflicts
	return r, nil
}

// First searches for one candidate signal. ok=false with status Unsat
// means no signal matches (under the constraints); status Unknown
// means the conflict budget ran out.
func (r *Reconstructor) First() (core.Signal, sat.Status, error) {
	st := r.builder.S.Solve()
	if st != sat.Sat {
		return core.Signal{}, st, nil
	}
	return r.model(), sat.Sat, nil
}

// model extracts the current solver model as a signal.
func (r *Reconstructor) model() core.Signal {
	v := bitvec.New(r.enc.M())
	for i, x := range r.vars {
		if r.builder.S.Value(x) {
			v.Set(i, true)
		}
	}
	return core.SignalFromVector(v)
}

// EnumerateStrict finds up to limit candidate signals (limit <= 0:
// all). It returns the signals and whether the candidate space was
// exhausted. Each signal is verified against the log entry before
// being returned; a mismatch indicates a solver bug and panics. The
// error wraps sat.ErrBudget when Options.MaxConflicts ran out and
// sat.ErrInterrupted when the solver was interrupted. The signals
// found before the stop are valid either way, but only a nil error
// permits any completeness claim.
func (r *Reconstructor) EnumerateStrict(limit int) ([]core.Signal, bool, error) {
	return r.enumerate(limit)
}

// EnumerateWithin is EnumerateStrict with cooperative cancellation: closing
// done (typically a context.Done() channel) interrupts the underlying
// solver at its next conflict or decision. The error distinguishes the
// incomplete outcomes a server must tell apart — it wraps
// sat.ErrInterrupted when done fired and sat.ErrBudget when
// Options.MaxConflicts ran out; in both cases the signals found so far
// are valid but exhausted is false and no completeness claim holds.
func (r *Reconstructor) EnumerateWithin(done <-chan struct{}, limit int) ([]core.Signal, bool, error) {
	stop := r.builder.S.InterruptOnDone(done)
	defer stop()
	return r.enumerate(limit)
}

func (r *Reconstructor) enumerate(limit int) ([]core.Signal, bool, error) {
	defer r.obs.StartSpan(SpanEnumerate).End()
	var out []core.Signal
	n, st, err := r.builder.S.EnumerateModels(r.vars, limit, func(m map[int]bool) bool {
		v := bitvec.New(r.enc.M())
		for i, x := range r.vars {
			if m[x] {
				v.Set(i, true)
			}
		}
		s := core.SignalFromVector(v)
		if got := core.Log(r.enc, s); !got.Equal(r.entry) {
			panic(fmt.Sprintf("reconstruct: candidate %s logs to %v, want %v", s, got, r.entry))
		}
		out = append(out, s)
		return true
	})
	r.obs.Counter(MetricCandidates).Add(int64(n))
	return out, st == sat.Unsat, err
}

// Check reports whether any candidate signal exists under the current
// constraints: the paper's safety-property query. Unsat proves that no
// signal consistent with (TP, k) and the encoded properties exists —
// e.g. "no transmission before the deadline" (Section 5.2.1).
func (r *Reconstructor) Check() sat.Status {
	return r.builder.S.Solve()
}

// CheckUnder decides Check with one extra constraint activated only
// for this query: c is encoded once under a fresh guard selector and
// asserted by assumption, then retired, so a single Reconstructor —
// one O(m³)-encoding A-structure build — answers many property checks
// (Classify asks P and ¬P against the same instance). Unknown carries
// an error wrapping sat.ErrBudget or sat.ErrInterrupted. A constraint
// that cannot be selector-guarded (XOR-emitting) returns an error
// wrapping ErrUnsupported; callers fall back to a dedicated instance.
func (r *Reconstructor) CheckUnder(c Constraint) (st sat.Status, err error) {
	sel := r.builder.NewVar()
	defer func() {
		if p := recover(); p != nil {
			r.builder.Guard = 0
			st = sat.Unknown
			err = fmt.Errorf("reconstruct: constraint %s cannot be guard-encoded: %v: %w", c, p, ErrUnsupported)
		}
	}()
	r.builder.Guard = sel
	aerr := c.Apply(r.builder, r.vars)
	r.builder.Guard = 0
	if aerr != nil {
		return sat.Unknown, fmt.Errorf("reconstruct: constraint %s: %w", c, aerr)
	}
	st = r.builder.S.SolveAssuming([]int{sel})
	// Retire the group: a permanent unit ¬sel deactivates c's clauses
	// (and any learnts carrying ¬sel) for every later query on this
	// instance.
	if aerr := r.builder.S.AddClause(-sel); aerr != nil {
		return sat.Unknown, fmt.Errorf("reconstruct: retiring constraint %s: %w", c, aerr)
	}
	if st == sat.Unknown {
		if r.builder.S.Interrupted() {
			return st, fmt.Errorf("reconstruct: check interrupted: %w", sat.ErrInterrupted)
		}
		return st, fmt.Errorf("reconstruct: check exceeded the conflict budget: %w", sat.ErrBudget)
	}
	return st, nil
}

// Stats exposes the presolve outcome and the underlying solver
// counters.
func (r *Reconstructor) Stats() Stats {
	return Stats{Solver: r.builder.S.Stats, Presolve: r.presolve}
}

// signalFromModel converts a projected model (indexed like r.vars)
// into a signal, verifying it against the log entry. A mismatch
// indicates a solver bug and panics.
func (r *Reconstructor) signalFromModel(model sat.Model) core.Signal {
	v := bitvec.New(r.enc.M())
	for i, set := range model {
		if set {
			v.Set(i, true)
		}
	}
	s := core.SignalFromVector(v)
	if got := core.Log(r.enc, s); !got.Equal(r.entry) {
		panic(fmt.Sprintf("reconstruct: candidate %s logs to %v, want %v", s, got, r.entry))
	}
	return s
}

// EnumerateParallelStrict finds up to limit candidate signals (limit
// <= 0: all) with a cube-split portfolio of workers cloned solvers
// (workers <= 0: GOMAXPROCS). Unlike EnumerateStrict it does not
// consume the instance. Results are canonically ordered: a full
// enumeration returns the same signal set for every worker count, and
// matches EnumerateStrict up to ordering. With limit > 0 the result is
// a sorted subset of the candidates, deterministic for a given worker
// count but possibly a different subset than serial enumeration finds
// first (each cube stops early at its own first limit models). An
// Unknown portfolio outcome — some cube ran out of conflict budget or
// was interrupted — returns an error wrapping sat.ErrBudget (or
// sat.ErrInterrupted when this instance's solver was interrupted)
// instead of masquerading as a truncated result.
func (r *Reconstructor) EnumerateParallelStrict(limit, workers int) ([]core.Signal, bool, error) {
	defer r.obs.StartSpan(SpanEnumerate).End()
	models, st := sat.ParallelEnumerate(r.builder.S, r.vars, limit, sat.ParallelOptions{Workers: workers})
	out := make([]core.Signal, 0, len(models))
	for _, m := range models {
		out = append(out, r.signalFromModel(m))
	}
	r.obs.Counter(MetricCandidates).Add(int64(len(out)))
	if st == sat.Unknown {
		if r.builder.S.Interrupted() {
			return out, false, fmt.Errorf("reconstruct: parallel enumeration interrupted: %w", sat.ErrInterrupted)
		}
		return out, false, fmt.Errorf("reconstruct: parallel enumeration exceeded the conflict budget: %w", sat.ErrBudget)
	}
	return out, st == sat.Unsat, nil
}

// FirstParallel races workers cube solvers for one candidate signal
// (workers <= 0: GOMAXPROCS), cancelling the losers. It does not
// consume the instance; the result is deterministic (the lowest
// satisfiable cube wins regardless of scheduling).
func (r *Reconstructor) FirstParallel(workers int) (core.Signal, sat.Status, error) {
	model, st := sat.ParallelFirst(r.builder.S, r.vars, sat.ParallelOptions{Workers: workers})
	if st != sat.Sat {
		return core.Signal{}, st, nil
	}
	return r.signalFromModel(model), sat.Sat, nil
}

// BruteForce solves SR by linear algebra: Gaussian elimination yields
// the solution coset (particular solution + nullspace span), which is
// enumerated exhaustively and filtered by |x| = k. Cost is 2^nullity,
// so it refuses instances whose nullity exceeds maxNullity (default 28
// when <= 0). It is the validation baseline for the SAT path.
func BruteForce(enc *encoding.Encoding, entry core.LogEntry, limit, maxNullity int) ([]core.Signal, error) {
	if entry.TP.Width() != enc.B() {
		return nil, fmt.Errorf("reconstruct: timeprint width %d, want %d: %w", entry.TP.Width(), enc.B(), core.ErrWidth)
	}
	if entry.K < 0 || entry.K > enc.M() {
		return nil, fmt.Errorf("reconstruct: k=%d outside [0,%d]: %w", entry.K, enc.M(), core.ErrKRange)
	}
	if maxNullity <= 0 {
		maxNullity = 28
	}
	sys, ok := enc.Matrix().Solve(entry.TP)
	if !ok {
		return nil, nil // TP outside the column space: no signals
	}
	if sys.Nullity() > maxNullity {
		return nil, fmt.Errorf("reconstruct: brute force refuses nullity %d > %d", sys.Nullity(), maxNullity)
	}
	var out []core.Signal
	sys.EnumerateSolutions(maxNullity, func(x bitvec.Vector) bool {
		if x.PopCount() == entry.K {
			out = append(out, core.SignalFromVector(x))
			if limit > 0 && len(out) >= limit {
				return false
			}
		}
		return true
	})
	return out, nil
}

// CountCandidates counts all signals matching the entry (no
// constraints), up to max, via the SAT path.
func CountCandidates(enc *encoding.Encoding, entry core.LogEntry, max int) (int, bool, error) {
	r, err := New(enc, entry, nil, Options{})
	if err != nil {
		return 0, false, err
	}
	sigs, exhausted, err := r.EnumerateStrict(max)
	return len(sigs), exhausted, err
}
