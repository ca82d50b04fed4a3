package sat

// In-solver XOR Gaussian elimination, in the spirit of CryptoMiniSat's
// Gauss-Jordan component (Soos et al., SAT 2009): instead of leaving
// the b parity rows of A·x = TP as independent watch-propagated
// constraints, the solver row-reduces them over GF(2) at the start of
// a solve, folding in everything already fixed at level 0. Reduction
// exposes consequences watch propagation cannot see — inconsistent
// rows (0 = 1), forced variables (unit rows), and shorter equivalent
// rows — before the CDCL search starts. The reduced rows replace the
// originals in the watch scheme, so the per-propagation machinery is
// unchanged.
//
// The elimination is gated behind Solver.EnableGauss (default off):
// callers that build XOR chains deliberately cut for CNF-style locality
// would see their structure merged by row reduction, so incremental
// sessions opt in with uncut rows while the one-shot path is untouched.

// gaussWords is the bitset row width in 64-bit words for n columns.
func gaussWords(n int) int { return (n + 63) / 64 }

// gaussRetrigger is how much the level-0 trail must grow between two
// solves before the rows are re-reduced. Re-reducing on every call
// would be wasted work when nothing was fixed in between; 16 new
// permanent assignments is enough new information to harvest.
const gaussRetrigger = 16

// gaussEliminate row-reduces the XOR system at decision level 0. It
// returns false when the system is unsatisfiable (an inconsistent row,
// or a conflict while propagating derived units); the caller then sets
// ok = false. The reduction reruns only when the set of XOR rows or
// the level-0 trail changed materially since the last run.
func (s *Solver) gaussEliminate() bool {
	if s.decisionLevel() != 0 {
		panic("sat: gaussEliminate above level 0")
	}
	// Staleness is tracked by generation, not row count: a harvest
	// followed by AddXorClause can restore the old len(s.xors) while
	// the row SET differs, and a changed system must never be skipped.
	if s.xorGen == s.gaussGen && len(s.trail)-s.gaussTrail < gaussRetrigger {
		return true
	}
	s.gaussGen = s.xorGen
	s.gaussTrail = len(s.trail)
	if len(s.xors) == 0 {
		// Nothing to reduce: not a Gauss run (solvers with no parity
		// rows must report GaussRuns == 0).
		return true
	}
	s.Stats.GaussRuns++

	// Column layout: every variable still unassigned in some row, in
	// ascending variable order — deterministic, so clones and repeated
	// runs reduce identically.
	inCols := make(map[int32]bool)
	for _, x := range s.xors {
		for _, v := range x.vars {
			if s.assigns[v] == valUnassigned {
				inCols[v] = true
			}
		}
	}
	cols := make([]int32, 0, len(inCols))
	for v := range inCols {
		cols = append(cols, v)
	}
	sortInt32s(cols)
	colOf := make(map[int32]int, len(cols))
	for i, v := range cols {
		colOf[v] = i
	}
	words := gaussWords(len(cols))

	type row struct {
		bits []uint64
		rhs  bool
	}
	rows := make([]row, 0, len(s.xors))
	for _, x := range s.xors {
		r := row{bits: make([]uint64, words), rhs: x.rhs}
		empty := true
		for _, v := range x.vars {
			switch s.assigns[v] {
			case valTrue:
				r.rhs = !r.rhs
			case valFalse:
				// contributes 0; drop
			default:
				c := colOf[v]
				r.bits[c/64] ^= 1 << (c % 64)
				empty = false
			}
		}
		if empty {
			if r.rhs {
				return false // 0 = 1 under level-0 assignments
			}
			continue // trivially satisfied; drop
		}
		rows = append(rows, r)
	}

	// Gauss-Jordan to reduced row-echelon form, lowest-variable pivots
	// first. Full RREF (eliminating above the pivot too) keeps every
	// surviving row as short as the span allows.
	pivotRow := 0
	for c := 0; c < len(cols) && pivotRow < len(rows); c++ {
		w, b := c/64, uint64(1)<<(c%64)
		sel := -1
		for i := pivotRow; i < len(rows); i++ {
			if rows[i].bits[w]&b != 0 {
				sel = i
				break
			}
		}
		if sel < 0 {
			continue
		}
		rows[pivotRow], rows[sel] = rows[sel], rows[pivotRow]
		for i := 0; i < len(rows); i++ {
			if i == pivotRow || rows[i].bits[w]&b == 0 {
				continue
			}
			for k := 0; k < words; k++ {
				rows[i].bits[k] ^= rows[pivotRow].bits[k]
			}
			rows[i].rhs = rows[i].rhs != rows[pivotRow].rhs
		}
		pivotRow++
	}

	// Harvest: inconsistent rows refute the formula, unit rows become
	// level-0 assignments, longer rows re-enter the watch scheme.
	var units []lit
	kept := make([]*xorClause, 0, pivotRow)
	for _, r := range rows[:pivotRow] {
		var vars []int32
		for c, v := range cols {
			if r.bits[c/64]&(1<<(c%64)) != 0 {
				vars = append(vars, v)
			}
		}
		switch len(vars) {
		case 0:
			if r.rhs {
				return false
			}
		case 1:
			// v must equal rhs.
			units = append(units, mkLit(vars[0], !r.rhs))
		default:
			kept = append(kept, &xorClause{vars: vars, rhs: r.rhs, w: [2]int{0, 1}, idx: uint32(len(kept))})
		}
	}
	// Dependent rows (beyond pivotRow) are all-zero with rhs folded in;
	// an inconsistent dependent row shows up as 0 = 1.
	for _, r := range rows[pivotRow:] {
		if r.rhs {
			return false
		}
	}

	// Swap the reduced system in wholesale: new rows, fresh watch
	// lists. The discarded pre-reduction rows are tagged dead so any
	// watch-list entry that survived the rebuild (none should today,
	// but a stale pointer must fail closed, not resurrect a dropped
	// row) is purged on its next visit instead of propagating a
	// superseded constraint or pinning the row's memory alive. The xor
	// reasons of level-0 literals are cleared too: they are never read
	// for level-0 assignments, but a reason names its row by index, and
	// the indices now belong to the reduced rows.
	for _, x := range s.xors {
		x.dead = true
	}
	s.xors = kept
	s.xorGen++
	s.gaussGen = s.xorGen
	s.xorWatches = make([][]*xorClause, s.numVars)
	for _, x := range kept {
		s.xorWatches[x.vars[0]] = append(s.xorWatches[x.vars[0]], x)
		s.xorWatches[x.vars[1]] = append(s.xorWatches[x.vars[1]], x)
	}
	for v := range s.reasons {
		if s.reasons[v].kind == reasonXor {
			s.reasons[v] = reason{}
		}
	}

	for _, u := range units {
		switch s.valueLit(u) {
		case valTrue:
			continue
		case valFalse:
			return false
		}
		s.Stats.GaussUnits++
		s.uncheckedEnqueue(u, reason{})
	}
	if s.propagate() != nil {
		return false
	}
	s.gaussTrail = len(s.trail)
	return true
}
