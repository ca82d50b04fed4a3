// Package sat implements a CDCL (conflict-driven clause learning) SAT
// solver with native XOR-clause support, in the spirit of CryptoMiniSat
// (Soos et al., SAT 2009), which the paper uses to solve the signal
// reconstruction problem. The solver provides:
//
//   - ordinary CNF clauses with two-literal watching,
//   - XOR clauses (parity constraints) with watch-based propagation and
//     lazily materialized reasons, so the b linear equations A·x = TP
//     are handled natively instead of being expanded into CNF,
//   - first-UIP clause learning, VSIDS branching, phase saving, Luby
//     restarts and activity/LBD-based learned-clause reduction,
//   - model enumeration (AllSAT) over a projection of the variables via
//     blocking clauses, which is how all candidate signals of a
//     timeprint are recovered.
//
// Variables are addressed externally as positive integers 1..n and
// literals DIMACS-style: +v is the variable, -v its negation.
package sat

import (
	"fmt"
	"slices"
	"sync/atomic"

	"repro/internal/obs"
)

// Status is the outcome of a Solve call.
type Status int

const (
	// Unknown means solving was aborted (budget exhausted).
	Unknown Status = iota
	// Sat means a satisfying assignment was found.
	Sat
	// Unsat means the formula is unsatisfiable.
	Unsat
)

func (s Status) String() string {
	switch s {
	case Sat:
		return "SAT"
	case Unsat:
		return "UNSAT"
	default:
		return "UNKNOWN"
	}
}

const (
	valUnassigned int8 = -1
	valFalse      int8 = 0
	valTrue       int8 = 1
)

// lit is an internal literal: variable index shifted left once, low bit
// set for negation.
type lit int32

func mkLit(varIdx int32, neg bool) lit {
	l := lit(varIdx << 1)
	if neg {
		l |= 1
	}
	return l
}

func (l lit) varIdx() int32 { return int32(l >> 1) }
func (l lit) negated() bool { return l&1 == 1 }
func (l lit) not() lit      { return l ^ 1 }

// extToLit converts a DIMACS-style literal to internal form.
func extToLit(x int) lit {
	if x == 0 {
		panic("sat: zero literal")
	}
	if x > 0 {
		return mkLit(int32(x-1), false)
	}
	return mkLit(int32(-x-1), true)
}

// litToExt converts an internal literal to DIMACS form.
func litToExt(l lit) int {
	v := int(l.varIdx()) + 1
	if l.negated() {
		return -v
	}
	return v
}

// reasonKind discriminates the source of a propagated assignment.
type reasonKind uint8

const (
	reasonNone reasonKind = iota
	reasonClause
	reasonXor
	// reasonGauss is an implication extracted mid-search from the
	// in-search XOR Gauss matrix. Unlike reasonXor, the clausal reason
	// is materialized EAGERLY at propagation time (into
	// Solver.gaussReasons): matrix rows are XOR-combined during search,
	// so a lazy reason could read a row that no longer implies the
	// literal it justified.
	reasonGauss
)

// reason is why a variable was assigned: for reasonClause, ref is the
// clause's cref; for reasonXor, the row's index in Solver.xors. It
// holds no pointer, so the per-variable reason table costs the garbage
// collector nothing.
type reason struct {
	kind reasonKind
	ref  uint32
}

// watcher is one entry of a literal's watch list. blocker is a literal
// of the clause that, when already true, lets propagation skip the
// clause without touching its memory.
type watcher struct {
	cref    cref
	blocker lit
}

// Stats aggregates solver counters across Solve calls. Every field is
// deterministic for a deterministic search — no timing, no scheduling
// — which is what lets the test suite assert counter equality across
// repeated runs and across the serial vs cloned-worker drivers.
type Stats struct {
	Decisions     int64
	Propagations  int64
	Conflicts     int64
	Restarts      int64
	Learned       int64
	LearnedPruned int64
	// LearnedLits sums the lengths of learned clauses, so the mean
	// learned-clause length is LearnedLits / Learned.
	LearnedLits int64
	XorProps    int64
	// AssumptionSolves counts SolveAssuming calls; GaussRuns counts
	// in-solver XOR Gaussian eliminations and GaussUnits the level-0
	// unit assignments those eliminations derived.
	AssumptionSolves int64
	GaussRuns        int64
	GaussUnits       int64
	// GaussInSearchProps and GaussInSearchConflicts count implications
	// and conflicts extracted mid-search by the in-search XOR Gauss
	// propagator (EnableGaussInSearch); GaussMatrixBuilds counts the
	// level-0 matrix (re)builds that feed it.
	GaussInSearchProps     int64
	GaussInSearchConflicts int64
	GaussMatrixBuilds      int64
}

// Solver is a CDCL SAT solver with XOR clauses. The zero value is not
// usable; construct with New.
type Solver struct {
	numVars int

	// ca is the clause arena (see cref); wasted counts the words of
	// freed clauses still in it and relocs the relocAll runs.
	ca      []lit
	wasted  int
	relocs  int
	clauses []cref // problem clauses
	learnts []cref // learned clauses
	xors    []*xorClause

	watches    [][]watcher    // per literal
	xorWatches [][]*xorClause // per variable

	assigns []int8
	level   []int32
	reasons []reason
	// gaussReasons[v] is v's reasonGauss clause, asserting literal
	// first; its storage is reused by v's next Gauss implication.
	gaussReasons [][]lit
	trail        []lit
	trailLim     []int
	qhead        int

	// VSIDS
	activity []float64
	varInc   float64
	order    *varHeap
	polarity []bool // saved phases: true = assign false first (MiniSat style "sign")

	claInc float64

	seen       []bool
	analyzeBuf []lit
	lbdStamp   []uint64 // per decision level; see computeLBD
	lbdEpoch   uint64

	// Reused scratch, so the conflict path allocates nothing: confl is
	// the conflict propagate returns; conflBuf and reasonBuf hold
	// materialized XOR and Gauss conflicts and XOR reasons; minBuf is
	// analyze's pre-minimization copy, sortBuf reduceDB's sort order and
	// addBuf the simplified literals of an input clause.
	confl     conflictInfo
	conflBuf  []lit
	reasonBuf []lit
	minBuf    []lit
	sortBuf   []cref
	addBuf    []lit

	// model is the assignment captured at the most recent Sat result.
	// Model and Value read it, so SolveAssuming can retract its
	// assumptions before returning without losing the model.
	model []int8

	// assumps is the active assumption prefix of a SolveAssuming call:
	// assumps[i] is planted as the decision of level i+1, so a backjump
	// (or restart) below an assumption replants it before any free
	// decision is made. Empty outside SolveAssuming.
	assumps []lit

	// guarded tracks removable clauses by their guard variable (see
	// AddGuardedClause/DropGuard).
	guarded map[int32][]cref

	// EnableGauss turns on the in-solver XOR Gaussian elimination: at
	// the start of a solve the XOR rows are row-reduced over GF(2)
	// (folding in level-0 assignments), and the reduced rows replace
	// the originals in the watch scheme.
	//
	// EnableGaussInSearch additionally keeps the reduced matrix LIVE
	// across decision levels (see gauss_insearch.go): dense bitset rows
	// with two watched columns each, updated on every assignment, with
	// implications and conflicts extracted mid-search. It implies the
	// level-0 pass (the RREF basis seeds the matrix pivots).
	EnableGauss         bool
	EnableGaussInSearch bool
	// xorGen is bumped every time the XOR row set changes (AddXorClause
	// appending a row, or an elimination harvest swapping the set);
	// gaussGen/gaussTrail remember what the last elimination saw so it
	// only reruns when the rows or the level-0 trail changed materially.
	// Comparing generations instead of row COUNTS closes the staleness
	// hole where a harvest plus a later AddXorClause left len(xors)
	// unchanged while the row set differed.
	xorGen     uint64
	gaussGen   uint64
	gaussTrail int
	// gmat is the in-search Gauss matrix, nil until the first solve
	// with EnableGaussInSearch set (and after that rebuilt whenever
	// xorGen moves past the generation it was built from).
	gmat *gaussMatrix

	ok bool // false once a top-level conflict is found

	// stop is the cooperative cancellation flag: set asynchronously by
	// Interrupt, polled by the search loop at every conflict and
	// decision. It is the only solver field another goroutine may
	// touch while Solve runs.
	stop atomic.Bool

	// MaxConflicts bounds a single Solve call; <=0 means unlimited.
	MaxConflicts int64

	Stats Stats

	// Obs, when non-nil, receives the solver's counters and latencies:
	// each Solve call publishes its Stats delta and duration into the
	// registry on exit, so the hot search loop itself never touches an
	// instrument and the nil (default) path costs one pointer check per
	// Solve. Clones share the registry, which aggregates the cube-split
	// workers' counters atomically.
	Obs *obs.Registry

	// obsCache holds resolved instruments for Obs (see instruments).
	obsCache *obsInstruments
}

// Interrupt asks a running Solve (or model enumeration) to stop at the
// next conflict or decision, returning Unknown. It is safe to call
// from another goroutine and is the cancellation hook of the parallel
// cube-split drivers. The flag stays set — and makes subsequent Solve
// calls return Unknown immediately — until ClearInterrupt.
func (s *Solver) Interrupt() { s.stop.Store(true) }

// ClearInterrupt re-arms a solver whose Interrupt was triggered.
func (s *Solver) ClearInterrupt() { s.stop.Store(false) }

// InterruptOnDone arms an asynchronous watcher that calls Interrupt
// when done is closed (or receives), so a deadline or cancellation
// signal — typically a context.Done() channel — propagates into the
// search loop cooperatively. The returned stop function disarms the
// watcher and waits for it to exit; it must be called exactly once,
// normally via defer around the Solve/EnumerateModels call. A nil done
// channel arms nothing and returns a no-op stop.
//
// If done fires, the interrupt flag stays set (Solve keeps returning
// Unknown) until ClearInterrupt, matching Interrupt's own contract.
func (s *Solver) InterruptOnDone(done <-chan struct{}) (stop func()) {
	if done == nil {
		return func() {}
	}
	quit := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		select {
		case <-done:
			s.Interrupt()
		case <-quit:
		}
	}()
	return func() {
		close(quit)
		<-exited
	}
}

// Interrupted reports whether an interrupt is pending, distinguishing
// an Unknown caused by Interrupt from one caused by an exhausted
// conflict budget.
func (s *Solver) Interrupted() bool { return s.stop.Load() }

// New returns a solver with n variables, numbered 1..n.
func New(n int) *Solver {
	s := &Solver{ok: true, varInc: 1, claInc: 1}
	s.grow(n)
	return s
}

// NumVars reports the current number of variables.
func (s *Solver) NumVars() int { return s.numVars }

// NewVar adds one fresh variable and returns its (positive) index.
func (s *Solver) NewVar() int {
	s.grow(s.numVars + 1)
	return s.numVars
}

func (s *Solver) grow(n int) {
	if n < s.numVars {
		return
	}
	for len(s.assigns) < n {
		s.assigns = append(s.assigns, valUnassigned)
		s.level = append(s.level, 0)
		s.reasons = append(s.reasons, reason{})
		s.gaussReasons = append(s.gaussReasons, nil)
		s.activity = append(s.activity, 0)
		s.polarity = append(s.polarity, true)
		s.seen = append(s.seen, false)
		s.watches = append(s.watches, nil, nil)
		s.xorWatches = append(s.xorWatches, nil)
	}
	if s.order == nil {
		s.order = newVarHeap(&s.activity)
	}
	for v := s.numVars; v < n; v++ {
		s.order.insert(int32(v))
	}
	s.numVars = n
}

// valueLit is branch-free: a>>7 is all ones only for valUnassigned,
// which masks out the negation bit, and otherwise l's low bit flips
// valTrue and valFalse.
func (s *Solver) valueLit(l lit) int8 {
	a := s.assigns[l.varIdx()]
	return a ^ (int8(l&1) &^ (a >> 7))
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

// AddClause adds a CNF clause given as DIMACS literals. Adding the
// empty clause marks the formula unsatisfiable. It returns an error,
// adding nothing, only when the clause would overflow the clause
// arena's 2^32 words.
func (s *Solver) AddClause(extLits ...int) error {
	if len(extLits) == 0 {
		s.ok = false
		return nil
	}
	// Ensure capacity for the variables mentioned.
	maxVar := 0
	for _, x := range extLits {
		v := x
		if v < 0 {
			v = -v
		}
		if v > maxVar {
			maxVar = v
		}
	}
	s.grow(maxVar)
	if s.decisionLevel() != 0 {
		s.cancelUntil(0)
	}
	if !s.ok {
		return nil // formula already unsatisfiable; adding is a no-op
	}

	// Simplify: drop false literals, detect satisfied/tautological
	// clauses, dedupe.
	lits := s.addBuf[:0]
	seenLit := map[lit]bool{}
	for _, x := range extLits {
		l := extToLit(x)
		switch s.valueLit(l) {
		case valTrue:
			return nil // already satisfied at level 0
		case valFalse:
			continue
		}
		if seenLit[l.not()] {
			return nil // tautology
		}
		if !seenLit[l] {
			seenLit[l] = true
			lits = append(lits, l)
		}
	}
	s.addBuf = lits // allocClause copies lits into the arena
	switch len(lits) {
	case 0:
		s.ok = false
		return nil
	case 1:
		s.uncheckedEnqueue(lits[0], reason{})
		if s.propagate() != nil {
			s.ok = false
		}
		return nil
	}
	if !arenaFits(len(s.ca), len(lits)) {
		return errArenaFull
	}
	c := s.allocClause(lits, false, 0)
	s.clauses = append(s.clauses, c)
	s.attachClause(c)
	return nil
}

// AddXorClause adds the parity constraint v1 ^ v2 ^ … ^ vn = rhs over
// the given variables (positive indices). Repeated variables cancel in
// pairs. An empty constraint with rhs=true makes the formula
// unsatisfiable.
func (s *Solver) AddXorClause(vars []int, rhs bool) error {
	maxVar := 0
	for _, v := range vars {
		if v <= 0 {
			return fmt.Errorf("sat: xor clause variable %d must be positive", v)
		}
		if v > maxVar {
			maxVar = v
		}
	}
	s.grow(maxVar)
	if s.decisionLevel() != 0 {
		s.cancelUntil(0)
	}
	if !s.ok {
		return nil // formula already unsatisfiable; adding is a no-op
	}

	// Cancel duplicates (x ^ x = 0) and fold in level-0 assignments.
	count := map[int32]int{}
	for _, v := range vars {
		count[int32(v-1)]++
	}
	var vs []int32
	for v, c := range count {
		if c%2 == 0 {
			continue
		}
		switch s.assigns[v] {
		case valTrue:
			rhs = !rhs
		case valFalse:
			// contributes 0
		default:
			vs = append(vs, v)
		}
	}
	// Deterministic order for reproducibility (map iteration is random).
	sortInt32s(vs)

	switch len(vs) {
	case 0:
		if rhs {
			s.ok = false
		}
		return nil
	case 1:
		s.uncheckedEnqueue(mkLit(vs[0], !rhs), reason{})
		if s.propagate() != nil {
			s.ok = false
		}
		return nil
	}
	x := &xorClause{vars: vs, rhs: rhs, idx: uint32(len(s.xors))}
	x.w[0], x.w[1] = 0, 1
	s.xors = append(s.xors, x)
	s.xorGen++
	s.xorWatches[vs[0]] = append(s.xorWatches[vs[0]], x)
	s.xorWatches[vs[1]] = append(s.xorWatches[vs[1]], x)
	return nil
}

func sortInt32s(a []int32) {
	for i := 1; i < len(a); i++ {
		for j := i; j > 0 && a[j] < a[j-1]; j-- {
			a[j], a[j-1] = a[j-1], a[j]
		}
	}
}

func (s *Solver) uncheckedEnqueue(l lit, from reason) {
	v := l.varIdx()
	if l.negated() {
		s.assigns[v] = valFalse
	} else {
		s.assigns[v] = valTrue
	}
	s.level[v] = int32(s.decisionLevel())
	s.reasons[v] = from
	s.trail = append(s.trail, l)
}

// cancelUntil backtracks to the given decision level.
func (s *Solver) cancelUntil(lvl int) {
	if s.decisionLevel() <= lvl {
		return
	}
	for i := len(s.trail) - 1; i >= s.trailLim[lvl]; i-- {
		v := s.trail[i].varIdx()
		s.polarity[v] = s.trail[i].negated()
		s.assigns[v] = valUnassigned
		if s.reasons[v].kind == reasonGauss {
			s.gaussReasons[v] = s.gaussReasons[v][:0]
		}
		s.reasons[v] = reason{}
		if !s.order.inHeap(v) {
			s.order.insert(v)
		}
	}
	s.trail = s.trail[:s.trailLim[lvl]]
	s.trailLim = s.trailLim[:lvl]
	s.qhead = len(s.trail)
}

// captureModel snapshots the current (total) assignment as the model
// of the last Sat result, so Model and Value stay readable after
// SolveAssuming retracts its assumptions.
func (s *Solver) captureModel() {
	s.model = append(s.model[:0], s.assigns...)
}

// Model returns the satisfying assignment found by the last successful
// Solve, indexed 1..n: Model()[v] reports variable v's value. Index 0
// is unused.
func (s *Solver) Model() []bool {
	m := make([]bool, s.numVars+1)
	for v := 0; v < s.numVars; v++ {
		if v < len(s.model) {
			m[v+1] = s.model[v] == valTrue
		} else {
			m[v+1] = s.assigns[v] == valTrue
		}
	}
	return m
}

// Value reports the last model's value of variable v (1-based). A
// variable outside [1, NumVars] reads false rather than panicking:
// projection lists reach this accessor from the enumeration and
// cube-split drivers, and a stale or foreign variable id must fail
// closed, not crash the postmortem pipeline.
func (s *Solver) Value(v int) bool {
	if v < 1 || v > s.numVars {
		return false
	}
	if v <= len(s.model) {
		return s.model[v-1] == valTrue
	}
	return s.assigns[v-1] == valTrue
}

// AddGuardedClause adds the clause (¬sel ∨ lits...) and records it
// under the guard variable sel so DropGuard(sel) can remove it later.
// Guarded clauses are only active while sel is assumed true (via
// SolveAssuming), which is how enumeration blocking clauses avoid
// permanently over-constraining a reused solver: a finished
// enumeration drops its guard and the clause database is exactly what
// it was before.
//
// If every non-guard literal is already false at level 0, the clause
// degenerates to the unit ¬sel: the guard itself is refuted, which
// ends that enumeration without touching the rest of the formula.
func (s *Solver) AddGuardedClause(sel int, extLits ...int) error {
	if sel <= 0 {
		return fmt.Errorf("sat: guard variable %d must be positive", sel)
	}
	maxVar := sel
	for _, x := range extLits {
		v := x
		if v < 0 {
			v = -v
		}
		if v == 0 {
			panic("sat: zero literal")
		}
		if v > maxVar {
			maxVar = v
		}
	}
	s.grow(maxVar)
	if s.decisionLevel() != 0 {
		s.cancelUntil(0)
	}
	if !s.ok {
		return nil
	}
	guard := extToLit(-sel)
	if s.valueLit(guard) == valTrue {
		return nil // selector already retired at level 0
	}
	lits := append(s.addBuf[:0], guard)
	seenLit := map[lit]bool{guard: true}
	for _, x := range extLits {
		l := extToLit(x)
		switch s.valueLit(l) {
		case valTrue:
			return nil // satisfied at level 0
		case valFalse:
			continue
		}
		if seenLit[l.not()] {
			return nil // tautology
		}
		if !seenLit[l] {
			seenLit[l] = true
			lits = append(lits, l)
		}
	}
	s.addBuf = lits // allocClause copies lits into the arena
	if len(lits) == 1 {
		// Only the guard survives: retire the selector at level 0.
		s.uncheckedEnqueue(guard, reason{})
		if s.propagate() != nil {
			s.ok = false
		}
		return nil
	}
	if !arenaFits(len(s.ca), len(lits)) {
		return errArenaFull
	}
	c := s.allocClause(lits, false, 0)
	if s.guarded == nil {
		s.guarded = map[int32][]cref{}
	}
	s.guarded[int32(sel-1)] = append(s.guarded[int32(sel-1)], c)
	s.attachClause(c)
	return nil
}

// DropGuard frees every clause added under the guard variable sel. It
// backtracks to level 0 first, so no dropped clause can be the reason
// of a live assignment above level 0; level-0 reasons that named a
// dropped clause are cleared (conflict analysis never reads level-0
// reasons, but relocAll must not follow a reason into a freed clause).
func (s *Solver) DropGuard(sel int) {
	if sel <= 0 || sel > s.numVars || s.guarded == nil {
		return
	}
	cs := s.guarded[int32(sel-1)]
	if len(cs) == 0 {
		return
	}
	s.cancelUntil(0)
	delete(s.guarded, int32(sel-1))
	for _, c := range cs {
		s.freeClause(c)
	}
	for v, r := range s.reasons {
		if r.kind == reasonClause && s.hasFlag(cref(r.ref), flagFreed) {
			s.reasons[v] = reason{}
		}
	}
	s.maybeRelocate()
}

// acquireSelector hands out a fresh guard selector variable. Selectors
// are single-use: conflict analysis that touches a guarded clause
// (¬sel ∨ …) carries ¬sel into the learned clause, so the learnt DB
// holds clauses that are only formula-implied while sel is false —
// reusing the variable for a later enumeration would re-arm them as
// phantom blocking clauses. retireSelector pins sel false instead.
func (s *Solver) acquireSelector() int {
	return s.NewVar()
}

// retireSelector permanently retires an enumeration selector after
// DropGuard. The unit ¬sel satisfies every learned clause derived from
// the selector's guarded clauses, which is exactly what makes
// physically dropping those clauses sound.
func (s *Solver) retireSelector(sel int) {
	_ = s.AddClause(-sel)
}

// Clone returns an independent deep copy of the solver that shares no
// mutable state with the original — the foundation of cube-split
// parallel solving, where each worker receives a clone and explores a
// disjoint part of the search space. The clone carries the problem
// clauses, the learned clauses, all level-0 assignments, and the
// branching-heuristic state (activities, saved phases, activity
// increments), so it resumes the search as informed as the original.
// Search-transient state (trail above level 0, pending interrupt,
// statistics) is reset. Clone backtracks the original to level 0.
func (s *Solver) Clone() *Solver {
	s.cancelUntil(0)
	n := &Solver{
		numVars:      s.numVars,
		varInc:       s.varInc,
		claInc:       s.claInc,
		ok:           s.ok,
		MaxConflicts: s.MaxConflicts,
		// The clone records into the same registry (atomically shared);
		// its instrument cache is rebuilt lazily on first flush.
		Obs: s.Obs,
	}
	n.assigns = append([]int8(nil), s.assigns...)
	n.level = append([]int32(nil), s.level...)
	n.activity = append([]float64(nil), s.activity...)
	n.polarity = append([]bool(nil), s.polarity...)
	n.seen = make([]bool, s.numVars)
	// Level-0 assignments carry no useful reasons: conflict analysis
	// skips level-0 literals, so the clone's reasons start empty.
	n.reasons = make([]reason, s.numVars)
	n.gaussReasons = make([][]lit, s.numVars)
	n.trail = append([]lit(nil), s.trail...)
	n.qhead = len(n.trail)

	// A fresh, compact arena, attached in the original's list order —
	// problem clauses, learned clauses, then guard groups by ascending
	// selector — so the clone's watch lists, and with them its search,
	// are reproducible.
	n.ca = make([]lit, 0, len(s.ca)-s.wasted)
	n.watches = make([][]watcher, 2*s.numVars)
	n.clauses = make([]cref, 0, len(s.clauses))
	for _, c := range s.clauses {
		n.clauses = append(n.clauses, n.copyClause(s, c))
	}
	n.learnts = make([]cref, 0, len(s.learnts))
	for _, c := range s.learnts {
		n.learnts = append(n.learnts, n.copyClause(s, c))
	}
	if len(s.guarded) > 0 {
		sels := make([]int32, 0, len(s.guarded))
		for sel := range s.guarded {
			sels = append(sels, sel)
		}
		slices.Sort(sels)
		n.guarded = make(map[int32][]cref, len(s.guarded))
		for _, sel := range sels {
			cs := s.guarded[sel]
			ncs := make([]cref, 0, len(cs))
			for _, c := range cs {
				ncs = append(ncs, n.copyClause(s, c))
			}
			n.guarded[sel] = ncs
		}
	}
	n.model = append([]int8(nil), s.model...)
	n.EnableGauss = s.EnableGauss
	n.EnableGaussInSearch = s.EnableGaussInSearch
	n.xorGen = s.xorGen
	n.gaussGen = s.gaussGen
	n.gaussTrail = s.gaussTrail

	// Rows absorbed into the in-search matrix are not clause-watched in
	// the original, and must not be in the clone either — the cloned
	// matrix carries them. Rows appended after the matrix was built (a
	// suffix of xors, re-absorbed at the clone's next solve) keep their
	// watch-list entries.
	absorbed := 0
	if s.gmat != nil {
		n.gmat = s.gmat.clone()
		absorbed = s.gmat.nAbsorbed
	}
	n.xorWatches = make([][]*xorClause, s.numVars)
	n.xors = make([]*xorClause, 0, len(s.xors))
	for i, x := range s.xors {
		nx := &xorClause{vars: append([]int32(nil), x.vars...), rhs: x.rhs, w: x.w, idx: x.idx}
		n.xors = append(n.xors, nx)
		if i < absorbed {
			continue
		}
		n.xorWatches[nx.vars[nx.w[0]]] = append(n.xorWatches[nx.vars[nx.w[0]]], nx)
		n.xorWatches[nx.vars[nx.w[1]]] = append(n.xorWatches[nx.vars[nx.w[1]]], nx)
	}

	n.order = newVarHeap(&n.activity)
	for v := 0; v < s.numVars; v++ {
		n.order.insert(int32(v))
	}
	return n
}

// copyClause appends clause c of solver from, header and all, to s's
// arena, attaches it and returns its cref in s.
func (s *Solver) copyClause(from *Solver, c cref) cref {
	nc := cref(len(s.ca) + clauseHdr)
	s.ca = append(s.ca, from.ca[c-clauseHdr:c+1+cref(from.ca[c])]...)
	s.attachClause(nc)
	return nc
}
