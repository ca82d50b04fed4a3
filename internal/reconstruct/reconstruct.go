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
// constraint |x| = k is one Sinz sequential counter (cnf.Ladder) k+1
// rungs wide, its outputs "≥ k" and "not ≥ k+1" asserted; known
// temporal properties are added as extra CNF constraints to prune the
// search (Section 5.1.3). A Gaussian-elimination brute-force baseline
// cross-checks the SAT path and quantifies what the solver buys.
package reconstruct

import (
	"context"
	"fmt"

	"repro/internal/bitvec"
	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/encoding"
	"repro/internal/gf2"
	"repro/internal/obs"
	"repro/internal/sat"
)

// Constraint restricts the candidate signals. Every backend takes
// every constraint: Validate runs before any backend sees the request,
// the algebraic backends filter their candidates with Holds, and the
// SAT backends compile it with Apply, where vars[i] is the solver
// variable asserting "the signal changed in clock-cycle i". Apply emits
// plain clauses only (never AddXor), so a session can guard them under
// a selector. Temporal properties (internal/properties) implement it.
type Constraint interface {
	// Holds evaluates the constraint on a concrete signal.
	Holds(s core.Signal) bool
	// Validate reports whether the constraint fits m clock-cycles.
	Validate(m int) error
	// Apply emits the clauses of a validated constraint.
	Apply(b *cnf.Builder, vars []int)
	// String names the constraint; equal strings mean equal clauses.
	String() string
}

// Options tune how the SAT instance is solved. The encoding itself is
// fixed: the paper's native XOR parity rows (after the GF(2) presolve,
// cut at xorCutLen) and one width-(k+1) Sinz sequential counter for
// |x| = k (cnf.ExactlyK).
type Options struct {
	// MaxConflicts bounds the solver effort per Solve call; 0 means
	// unlimited.
	MaxConflicts int64
	// Obs, when non-nil, receives the layer's metrics (presolve
	// outcomes, candidate counts, build/enumerate spans) and is handed
	// down to the underlying SAT solver. Nil is fully supported and is
	// the fast path.
	Obs *obs.Registry
}

// xorCutLen caps the length of the native XOR clauses New emits;
// longer parity rows are chained through auxiliary variables (see
// cnf.AddXorCut).
const xorCutLen = 8

// Metric names published by the reconstruction layer.
const (
	// MetricInstances counts SAT instances built by New.
	MetricInstances = "reconstruct.instances"
	// Presolve outcome counters: instances refuted outright by the
	// GF(2) elimination, positions fixed by unit rows, and redundant
	// parity rows eliminated.
	MetricPresolveInconsistent = "reconstruct.presolve.inconsistent"
	MetricPresolveFixed        = "reconstruct.presolve.fixed"
	MetricPresolveFreed        = "reconstruct.presolve.freed"
	// MetricCandidates counts candidate signals delivered by the
	// enumeration APIs.
	MetricCandidates = "reconstruct.candidates"
	// SpanBuild and SpanEnumerate time instance construction and
	// (serial or parallel) enumeration.
	SpanBuild     = "reconstruct.build"
	SpanEnumerate = "reconstruct.enumerate"
)

// PresolveStats reports what the GF(2) Gaussian presolve decided
// before the SAT solver was involved.
type PresolveStats struct {
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
	f, ech, err := measure(enc, entry, constraints)
	if err != nil {
		return nil, err
	}
	return build(enc, entry, constraints, opts, f, ech), nil
}

// build encodes a validated request from its measured Features and
// the echelon form they were read from.
func build(enc *encoding.Encoding, entry core.LogEntry, constraints []Constraint, opts Options, f Features, ech gf2.Echelon) *Reconstructor {
	defer opts.Obs.StartSpan(SpanBuild).End()
	m := enc.M()
	bld := cnf.NewBuilder(m)
	bld.S.Obs = opts.Obs
	bld.S.MaxConflicts = opts.MaxConflicts
	vars := make([]int, m)
	for i := range vars {
		vars[i] = i + 1
	}
	ps := PresolveStats{Rank: f.Rank, Fixed: f.Fixed, Freed: f.B - f.Rank, Inconsistent: !f.Consistent || !f.KFeasible}
	r := &Reconstructor{enc: enc, entry: entry, builder: bld, vars: vars, presolve: ps, obs: opts.Obs}
	opts.Obs.Counter(MetricInstances).Inc()
	presolve(bld, vars, f, ech)
	if ps.Inconsistent {
		opts.Obs.Counter(MetricPresolveInconsistent).Inc()
	}
	opts.Obs.Counter(MetricPresolveFixed).Add(int64(ps.Fixed))
	opts.Obs.Counter(MetricPresolveFreed).Add(int64(ps.Freed))

	// The instance is already refuted: skip the cardinality and
	// property encodings — the solver answers Unsat from the empty
	// clause with zero search.
	if ps.Inconsistent {
		return r
	}

	// Cardinality: exactly k changes.
	bld.ExactlyK(vars, entry.K)

	for _, c := range constraints {
		c.Apply(bld, vars)
	}
	return r
}

// presolve emits the reduced system of [A | TP] from its echelon form.
// It has the same solution set as A·x = TP, but inconsistency is decided
// here (an empty clause: UNSAT with zero solver work), unit rows become
// level-0 unit clauses, and the b − rank redundant rows disappear.
func presolve(bld *cnf.Builder, vars []int, f Features, ech gf2.Echelon) {
	if !f.Consistent {
		bld.AddClause()
		return
	}
	for i, rowVec := range ech.Rows {
		ones := rowVec.Ones()
		if len(ones) == 1 {
			// Unit row: position is identical in every solution.
			if ech.RHS[i] {
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
		bld.AddXorCut(row, ech.RHS[i], xorCutLen)
	}
	if !f.KFeasible {
		bld.AddClause()
	}
}

// kFeasible applies the cardinality bound of a consistent reduced
// system: with fixed positions pinned by unit rows, forcedTrue of them
// to 1, every solution has at least forcedTrue ones and at most
// forcedTrue + (m − fixed).
func kFeasible(k, m, fixed, forcedTrue int) bool {
	return k >= forcedTrue && k <= forcedTrue+(m-fixed)
}

// First searches for one candidate signal. ok=false with status Unsat
// means no signal matches (under the constraints); status Unknown
// means the conflict budget ran out.
func (r *Reconstructor) First() (core.Signal, sat.Status, error) {
	st := r.builder.S.Solve()
	if st != sat.Sat {
		return core.Signal{}, st, nil
	}
	return checkedSignal(r.enc, r.entry, func(i int) bool { return r.builder.S.Value(r.vars[i]) }), sat.Sat, nil
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
	defer r.obs.StartSpan(SpanEnumerate).End()
	var out []core.Signal
	n, st, err := r.builder.S.EnumerateModels(r.vars, limit, func(model map[int]bool) bool {
		out = append(out, checkedSignal(r.enc, r.entry, func(i int) bool { return model[r.vars[i]] }))
		return true
	})
	r.obs.Counter(MetricCandidates).Add(int64(n))
	return out, st == sat.Unsat, err
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
	return r.EnumerateStrict(limit)
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
// an error wrapping sat.ErrBudget or sat.ErrInterrupted.
func (r *Reconstructor) CheckUnder(c Constraint) (sat.Status, error) {
	if err := validate(r.enc, r.entry, []Constraint{c}); err != nil {
		return sat.Unknown, err
	}
	sel := r.builder.NewVar()
	r.builder.Guard = sel
	c.Apply(r.builder, r.vars)
	r.builder.Guard = 0
	st := r.builder.S.SolveAssuming([]int{sel})
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

// checkedSignal builds the signal whose position i changes iff
// changed(i), for i in [0, m), and verifies it against the log entry.
// Every model a solver returns goes through it; a mismatch indicates a
// solver bug and panics.
func checkedSignal(enc *encoding.Encoding, entry core.LogEntry, changed func(i int) bool) core.Signal {
	v := bitvec.New(enc.M())
	for i := 0; i < enc.M(); i++ {
		if changed(i) {
			v.Set(i, true)
		}
	}
	s := core.SignalFromVector(v)
	if got := core.Log(enc, s); !got.Equal(entry) {
		panic(fmt.Sprintf("reconstruct: candidate %s logs to %v, want %v", s, got, entry))
	}
	return s
}

// signalFromModel converts a projected model (indexed like r.vars)
// into a checked signal.
func (r *Reconstructor) signalFromModel(model sat.Model) core.Signal {
	return checkedSignal(r.enc, r.entry, func(i int) bool { return model[i] })
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
// the solution coset (particular solution + nullspace span), whose
// points with at most k ones on the free columns are walked and
// filtered by |x| = k — the brute route's coset walk without
// constraints. Cost is Σ_{j≤k} C(nullity, j) points, so it returns
// ErrUnsupported past BruteMaxVisits of them. It is the validation
// baseline for the SAT path.
func BruteForce(enc *encoding.Encoding, entry core.LogEntry, limit int) ([]core.Signal, error) {
	_, ech, err := measure(enc, entry, nil)
	if err != nil {
		return nil, err
	}
	sigs, _, err := walkCoset(context.Background(), ech, entry.K, nil, limit, nil)
	return sigs, err
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
