package sat

import "time"

// conflictInfo carries the clause that falsified the trail, in a form
// conflict analysis can consume uniformly for CNF and XOR conflicts.
// The solver owns one (Solver.confl); lits aliases the arena or a
// reused buffer and is valid until the next conflict.
type conflictInfo struct {
	lits []lit
}

// conflict reports lits as the current conflict.
func (s *Solver) conflict(lits []lit) *conflictInfo {
	s.confl.lits = lits
	return &s.confl
}

// propagate performs unit propagation over CNF and XOR watches until a
// fixpoint or a conflict. It returns nil when no conflict occurred.
func (s *Solver) propagate() *conflictInfo {
	for s.qhead < len(s.trail) {
		p := s.trail[s.qhead]
		s.qhead++
		s.Stats.Propagations++

		if c := s.propagateCNF(p); c != nil {
			return c
		}
		if c := s.propagateXors(p.varIdx()); c != nil {
			return c
		}
		if s.gmat != nil {
			if c := s.propagateGauss(p.varIdx()); c != nil {
				return c
			}
		}
	}
	return nil
}

// propagateCNF visits all clauses watching ¬p (p just became true).
// Watchers are pointer-free, so the slots the compaction vacates need
// no clearing: a stale one keeps no clause alive.
func (s *Solver) propagateCNF(p lit) *conflictInfo {
	ws := s.watches[p]
	kept := ws[:0]
	falseLit := p.not()
	for wi := 0; wi < len(ws); wi++ {
		w := ws[wi]
		if s.valueLit(w.blocker) == valTrue {
			kept = append(kept, w)
			continue
		}
		c := w.cref
		lits := s.clauseLits(c)
		// Binary clauses: the blocker IS the other literal; no watch
		// movement can ever help, so propagate or conflict directly.
		if len(lits) == 2 {
			other := lits[0]
			if other == falseLit {
				other = lits[1]
			}
			switch s.valueLit(other) {
			case valFalse:
				kept = append(kept, ws[wi:]...)
				s.watches[p] = kept
				return s.conflict(lits)
			case valUnassigned:
				// Put the implied literal first so reasonLits works.
				if lits[0] != other {
					lits[0], lits[1] = lits[1], lits[0]
				}
				s.uncheckedEnqueue(other, reason{kind: reasonClause, ref: uint32(c)})
			}
			kept = append(kept, w)
			continue
		}
		// Normalize so that lits[1] is the falsified watch (¬p ... p is
		// true so the false literal in the clause is p.not()).
		if lits[0] == falseLit {
			lits[0], lits[1] = lits[1], lits[0]
		}
		if s.valueLit(lits[0]) == valTrue {
			kept = append(kept, watcher{c, lits[0]})
			continue
		}
		// Find a new watch among lits[2:].
		found := false
		for i := 2; i < len(lits); i++ {
			if s.valueLit(lits[i]) != valFalse {
				lits[1], lits[i] = lits[i], lits[1]
				s.watches[lits[1].not()] = append(s.watches[lits[1].not()], watcher{c, lits[0]})
				found = true
				break
			}
		}
		if found {
			continue
		}
		// Clause is unit or conflicting.
		if s.valueLit(lits[0]) == valFalse {
			// Conflict: keep remaining watchers, restore list, report.
			kept = append(kept, ws[wi:]...)
			s.watches[p] = kept
			return s.conflict(lits)
		}
		kept = append(kept, w)
		s.uncheckedEnqueue(lits[0], reason{kind: reasonClause, ref: uint32(c)})
	}
	s.watches[p] = kept
	return nil
}

// propagateXors visits all XOR clauses watching variable v.
func (s *Solver) propagateXors(v int32) *conflictInfo {
	ws := s.xorWatches[v]
	kept := ws[:0]
	for wi := 0; wi < len(ws); wi++ {
		x := ws[wi]
		conflict, implied, imply, keep := s.propagateXor(x, v)
		if keep {
			kept = append(kept, x)
		}
		if conflict {
			for wi++; wi < len(ws); wi++ {
				kept = append(kept, ws[wi])
			}
			clear(ws[len(kept):])
			s.xorWatches[v] = kept
			return s.conflict(s.xorReason(&s.conflBuf, x, 0, false))
		}
		if imply {
			s.Stats.XorProps++
			s.uncheckedEnqueue(implied, reason{kind: reasonXor, ref: x.idx})
			// A propagation may cascade; the main loop drains the trail.
		}
	}
	clear(ws[len(kept):])
	s.xorWatches[v] = kept
	return nil
}

// reasonLits returns the clausal reason for variable v's assignment,
// with the asserting literal first. An XOR reason is materialized into
// reasonBuf, so it is valid until the next reasonLits call.
func (s *Solver) reasonLits(v int32) []lit {
	r := s.reasons[v]
	switch r.kind {
	case reasonClause:
		return s.clauseLits(cref(r.ref))
	case reasonXor:
		return s.xorReason(&s.reasonBuf, s.xors[r.ref], v, true)
	case reasonGauss:
		// Materialized eagerly at propagation time: the matrix row that
		// implied v may since have been combined away.
		return s.gaussReasons[v]
	default:
		return nil
	}
}

// analyze performs first-UIP conflict analysis. It returns the learned
// clause (asserting literal first), which aliases analyzeBuf and so is
// valid until the next analyze, and the backjump level.
func (s *Solver) analyze(confl *conflictInfo) ([]lit, int) {
	learnt := s.analyzeBuf[:0]
	learnt = append(learnt, 0) // placeholder for the asserting literal

	pathC := 0
	var p lit = -1
	idx := len(s.trail) - 1
	lits := confl.lits

	for {
		start := 0
		if p != -1 {
			start = 1 // skip the asserting literal of the reason
		}
		for _, q := range lits[start:] {
			v := q.varIdx()
			if s.seen[v] || s.level[v] == 0 {
				continue
			}
			s.seen[v] = true
			s.bumpVar(v)
			if int(s.level[v]) >= s.decisionLevel() {
				pathC++
			} else {
				learnt = append(learnt, q)
			}
		}
		// Select next literal to expand: last trail literal that is seen.
		for !s.seen[s.trail[idx].varIdx()] {
			idx--
		}
		p = s.trail[idx]
		idx--
		v := p.varIdx()
		s.seen[v] = false
		pathC--
		if pathC == 0 {
			break
		}
		lits = s.reasonLits(v)
	}
	learnt[0] = p.not()

	// Clause minimization: drop literals implied by the rest. The seen
	// flags of every original literal (kept or dropped) are cleared
	// afterwards; clearing only kept ones would poison later analyses.
	original := append(s.minBuf[:0], learnt...)
	s.minBuf = original
	minimized := learnt[:1]
	for _, q := range learnt[1:] {
		if !s.redundant(q) {
			minimized = append(minimized, q)
		}
	}
	learnt = minimized
	for _, q := range original[1:] {
		s.seen[q.varIdx()] = false
	}

	// Backjump level: highest level among learnt[1:].
	bt := 0
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].varIdx()] > s.level[learnt[maxI].varIdx()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		bt = int(s.level[learnt[1].varIdx()])
	}

	s.analyzeBuf = learnt // reuse backing array next time
	return learnt, bt
}

// redundant reports whether literal q of a learned clause is implied by
// the remaining seen literals (local, non-recursive approximation of
// MiniSat's reason-side minimization: a literal whose reason consists
// entirely of seen or level-0 literals is redundant).
func (s *Solver) redundant(q lit) bool {
	v := q.varIdx()
	if s.reasons[v].kind == reasonNone {
		return false
	}
	for _, r := range s.reasonLits(v)[1:] {
		rv := r.varIdx()
		if !s.seen[rv] && s.level[rv] != 0 {
			return false
		}
	}
	return true
}

func (s *Solver) bumpVar(v int32) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
		s.order.rebuild()
	}
	s.order.bumped(v)
}

func (s *Solver) decayVarActivity() { s.varInc /= 0.95 }

func (s *Solver) bumpClause(c cref) {
	act := s.clauseAct(c) + s.claInc
	s.setClauseAct(c, act)
	if act > 1e20 {
		for _, lc := range s.learnts {
			s.setClauseAct(lc, s.clauseAct(lc)*1e-20)
		}
		s.claInc *= 1e-20
	}
}

func (s *Solver) decayClauseActivity() { s.claInc /= 0.999 }

// computeLBD counts distinct decision levels among a clause's literals.
// lbdStamp[l] == lbdEpoch marks level l as counted by this call, so
// the count needs no per-conflict set.
func (s *Solver) computeLBD(lits []lit) int32 {
	s.lbdEpoch++
	n := int32(0)
	for _, l := range lits {
		lv := int(s.level[l.varIdx()])
		for lv >= len(s.lbdStamp) {
			s.lbdStamp = append(s.lbdStamp, 0)
		}
		if s.lbdStamp[lv] != s.lbdEpoch {
			s.lbdStamp[lv] = s.lbdEpoch
			n++
		}
	}
	return n
}

// pickBranchLit selects the unassigned variable with highest activity
// and applies the saved phase.
func (s *Solver) pickBranchLit() (lit, bool) {
	for !s.order.empty() {
		v := s.order.removeMax()
		if s.assigns[v] == valUnassigned {
			return mkLit(v, s.polarity[v]), true
		}
	}
	return 0, false
}

// luby returns element x (0-based) of the Luby restart sequence
// 1 1 2 1 1 2 4 1 1 2 1 1 2 4 8 …
func luby(x int64) int64 {
	var size, seq int64 = 1, 0
	for size < x+1 {
		seq++
		size = 2*size + 1
	}
	for size-1 != x {
		size = (size - 1) / 2
		seq--
		x %= size
	}
	return int64(1) << uint(seq)
}

// reduceDB removes roughly half of the learned clauses, preferring to
// keep low-LBD and high-activity ones: it Shell-sorts a copy of the
// list by (LBD ascending, activity descending) and frees the clauses
// past the first half, except binary ones, those with LBD <= 2 and
// those locked as the reason of a current assignment. The kept
// clauses become the new list, in sorted order.
func (s *Solver) reduceDB() {
	if len(s.learnts) == 0 {
		return
	}
	sorted := append(s.sortBuf[:0], s.learnts...)
	s.sortBuf = sorted
	s.sortClauses(sorted)
	keepN := len(sorted) / 2
	for v := int32(0); v < int32(s.numVars); v++ {
		if r := s.reasons[v]; s.assigns[v] != valUnassigned && r.kind == reasonClause && s.hasFlag(cref(r.ref), flagLearned) {
			s.ca[r.ref-hdrFlags] |= flagLocked
		}
	}
	kept := s.learnts[:0]
	for i, c := range sorted {
		locked := s.hasFlag(c, flagLocked)
		s.ca[c-hdrFlags] &^= flagLocked
		if i < keepN || s.clauseLBD(c) <= 2 || locked || s.ca[c] <= 2 {
			kept = append(kept, c)
		} else {
			s.freeClause(c)
			s.Stats.LearnedPruned++
		}
	}
	s.learnts = kept
	s.maybeRelocate()
}

// sortClauses Shell-sorts cs by clauseLess: dependency-free, adequate
// for the clause DB sizes here, and deterministic.
func (s *Solver) sortClauses(cs []cref) {
	n := len(cs)
	for gap := n / 2; gap > 0; gap /= 2 {
		for i := gap; i < n; i++ {
			c := cs[i]
			j := i
			for ; j >= gap && s.clauseLess(c, cs[j-gap]); j -= gap {
				cs[j] = cs[j-gap]
			}
			cs[j] = c
		}
	}
}

func (s *Solver) clauseLess(a, b cref) bool {
	if la, lb := s.clauseLBD(a), s.clauseLBD(b); la != lb {
		return la < lb
	}
	return s.clauseAct(a) > s.clauseAct(b)
}

// Solve searches for a satisfying assignment. It returns Sat, Unsat, or
// Unknown when MaxConflicts was exhausted. After Sat, read the model
// with Model or Value before adding more clauses.
//
// When Obs is set, the call's Stats delta, latency and outcome are
// published to the registry on exit; the search loop itself is not
// instrumented, so the nil-Obs path costs exactly one pointer check.
func (s *Solver) Solve() Status {
	if s.Obs == nil {
		return s.solveWith(nil)
	}
	before := s.Stats
	start := time.Now()
	st := s.solveWith(nil)
	s.flushObs(before, time.Since(start), st)
	return st
}

// SolveAssuming solves the formula under the given assumption literals
// (DIMACS form). The assumptions are planted as the decisions of levels
// 1..len(assumptions) and fully retracted before the call returns, so
// the solver — including every learned clause and all heuristic state —
// stays reusable for the next query. Unsat means "unsatisfiable under
// these assumptions": the formula itself is untouched and later calls
// with different assumptions may be Sat. After Sat, Model and Value
// read the captured satisfying assignment even though the trail has
// been unwound.
func (s *Solver) SolveAssuming(assumptions []int) Status {
	before := s.Stats
	s.Stats.AssumptionSolves++
	for _, x := range assumptions {
		v := x
		if v < 0 {
			v = -v
		}
		if v == 0 {
			panic("sat: zero literal")
		}
		s.grow(v)
	}
	assumps := make([]lit, len(assumptions))
	for i, x := range assumptions {
		assumps[i] = extToLit(x)
	}
	if s.Obs == nil {
		return s.solveWith(assumps)
	}
	start := time.Now()
	st := s.solveWith(assumps)
	s.flushObs(before, time.Since(start), st)
	return st
}

func (s *Solver) solveWith(assumps []lit) Status {
	if !s.ok {
		return Unsat
	}
	if s.stop.Load() {
		return Unknown
	}
	s.cancelUntil(0)
	if s.propagate() != nil {
		s.ok = false
		return Unsat
	}
	if s.EnableGaussInSearch {
		if !s.gaussInSearchInit() {
			s.ok = false
			return Unsat
		}
	}
	s.assumps = assumps
	defer func() {
		s.assumps = nil
		s.cancelUntil(0)
	}()

	var restartN int64
	conflictBudget := int64(-1)
	if s.MaxConflicts > 0 {
		conflictBudget = s.MaxConflicts
	}
	maxLearnts := int64(len(s.clauses))/3 + 500

	for {
		limit := luby(restartN) * 100
		st, done := s.search(limit, &conflictBudget, &maxLearnts)
		if done {
			return st
		}
		restartN++
		s.Stats.Restarts++
		s.cancelUntil(0)
		if s.gmat != nil {
			// Re-reduce the matrix from s.xors at every restart:
			// in-search combination monotonically densifies rows and the
			// densified rows produce long implication reasons, which
			// analyze() turns into long, weak learned clauses. Restarts
			// bound that window — the rebuild resets density and pivot
			// uniqueness, folds in any level-0 units learned since the
			// last boundary, and sheds stale watch entries, all for one
			// reduction of the rows (measured on the planted m=512 cells:
			// rebuilding at restarts cuts conflicts 2-4x vs carrying the
			// combined rows across restart boundaries).
			if !s.gaussInSearchInit() {
				s.ok = false
				return Unsat
			}
		}
	}
}

// search runs CDCL until the restart limit, a result, or budget
// exhaustion. done=false means "restart requested".
func (s *Solver) search(conflictLimit int64, budget *int64, maxLearnts *int64) (Status, bool) {
	var conflicts int64
	for {
		confl := s.propagate()
		if confl != nil {
			conflicts++
			s.Stats.Conflicts++
			if s.stop.Load() {
				s.cancelUntil(0)
				return Unknown, true
			}
			if *budget > 0 {
				*budget--
				if *budget == 0 {
					s.cancelUntil(0)
					return Unknown, true
				}
			}
			// In-search Gauss can surface a conflict whose literals all
			// sit BELOW the current decision level: a row combination
			// leaves a row fully assigned and violated without any
			// current-level variable in it. First-UIP analysis requires
			// a current-level literal, so drop to the conflict's own
			// level first — the literals stay assigned there, the
			// conflict stays valid, and at level 0 it refutes the
			// formula. Watch-triggered conflicts always contain the
			// just-assigned variable, so for them this is a no-op.
			maxL := 0
			for _, q := range confl.lits {
				if l := int(s.level[q.varIdx()]); l > maxL {
					maxL = l
				}
			}
			if maxL < s.decisionLevel() {
				s.cancelUntil(maxL)
			}
			if s.decisionLevel() == 0 {
				s.ok = false
				return Unsat, true
			}
			learnt, btLevel := s.analyze(confl)
			s.cancelUntil(btLevel)
			if len(learnt) == 1 {
				s.uncheckedEnqueue(learnt[0], reason{})
			} else {
				c := s.allocClause(learnt, true, s.computeLBD(learnt))
				s.learnts = append(s.learnts, c)
				s.Stats.Learned++
				s.Stats.LearnedLits += int64(len(learnt))
				s.attachClause(c)
				s.bumpClause(c)
				s.uncheckedEnqueue(learnt[0], reason{kind: reasonClause, ref: uint32(c)})
			}
			s.decayVarActivity()
			s.decayClauseActivity()
			if int64(len(s.learnts)) > *maxLearnts {
				s.reduceDB()
				*maxLearnts = *maxLearnts*11/10 + 10
			}
			if conflicts >= conflictLimit {
				return Unknown, false
			}
			continue
		}
		// No conflict: decide. The stop flag is polled here too so a
		// conflict-free dive through a large satisfiable space still
		// honours Interrupt promptly.
		if s.stop.Load() {
			s.cancelUntil(0)
			return Unknown, true
		}
		// Plant pending assumptions before any free decision: assumps[i]
		// is the decision of level i+1, so a backjump below an assumption
		// level replants it here on the way back up.
		if dl := s.decisionLevel(); dl < len(s.assumps) {
			p := s.assumps[dl]
			switch s.valueLit(p) {
			case valTrue:
				// Already implied: open a dummy level so the indices of
				// the remaining assumptions stay aligned with levels.
				s.trailLim = append(s.trailLim, len(s.trail))
			case valFalse:
				// Unsat under these assumptions — the formula itself is
				// untouched, so ok stays true and the solver reusable.
				return Unsat, true
			default:
				s.trailLim = append(s.trailLim, len(s.trail))
				s.uncheckedEnqueue(p, reason{})
			}
			continue
		}
		next, ok := s.pickBranchLit()
		if !ok {
			s.captureModel()
			return Sat, true // all variables assigned
		}
		s.Stats.Decisions++
		s.trailLim = append(s.trailLim, len(s.trail))
		s.uncheckedEnqueue(next, reason{})
	}
}
