package sat

import "math/bits"

// In-search XOR Gaussian elimination, the second half of the
// CryptoMiniSat design (Soos et al., SAT 2009; Han & Jiang, "When
// Boolean Satisfiability Meets Gaussian Elimination in a Simplex Way",
// CAV 2012): where gauss.go row-reduces the parity system once at
// level 0, this file keeps the reduced matrix LIVE across decision
// levels. Rows are dense []uint64 bitsets over the same deterministic
// column layout, each row watches two of its columns, and every
// assignment of a watched column updates the row's state:
//
//   - a replacement unassigned column moves the watch,
//   - exactly one unassigned column left implies its value — extracted
//     mid-search with an eagerly materialized clausal reason
//     (reasonGauss) that first-UIP analyze() consumes unchanged,
//   - zero unassigned columns checks the parity: conflict or satisfied.
//
// When a row's RESPONSIBLE (pivot) watch moves to a new column, that
// column is eliminated from every other row (the row is XOR-combined
// into them) — the Gauss-Jordan maintenance step that keeps the matrix
// reduced relative to the unassigned variables. It is what lets dense
// 256-wide parity rows imply values long before watch propagation
// alone would see a unit: combined rows shed shared columns, so
// implications surface as soon as the SYSTEM forces them, not when an
// individual row does.
//
// Soundness notes, load-bearing and worth stating once:
//
//   - Row combination is an invertible elementary row operation: the
//     matrix stays row-equivalent to the absorbed XOR system at all
//     times, so nothing needs to be undone on backjump or on
//     SolveAssuming retraction — cancelUntil only unwinds assignments,
//     and the watch scheme below is constructed to survive that.
//   - Watch invariant: while a row has unassigned columns, at least
//     one of them is watched; when a row becomes fully assigned, its
//     watches sit on maximal-decision-level columns, so any backjump
//     that unassigns part of the row unassigns a watch with it. The
//     final assignment of a row's columns therefore always triggers a
//     watch, and a violated parity is never missed.
//   - Reasons are materialized EAGERLY (Solver.gaussReasons): a lazy
//     reason could read a row that a later elimination has already
//     combined away from the implication it must justify.
//   - Rows start as the level-0 RREF basis, but folding in level-0
//     assignments the last re-reduction has not seen can collapse two
//     rows onto the same support, so a combination CAN cancel a row to
//     empty mid-search: rhs=0 is inert, rhs=1 is a level-0 refutation
//     (see gaussFixRow).

// gaussMatrix is the live in-search state. It is rebuilt at level 0
// whenever the XOR row set changes (tracked by Solver.xorGen) and
// carried across queries — SolveAssuming retraction leaves it valid —
// and deep-copied by Clone so portfolio workers and warm service
// sessions inherit the reduced system without re-eliminating.
type gaussMatrix struct {
	// gen is the Solver.xorGen value the matrix was built from;
	// nAbsorbed the len(Solver.xors) prefix it absorbed (rows appended
	// later stay clause-watched until the next rebuild).
	gen       uint64
	nAbsorbed int

	cols  []int32 // column -> variable
	colOf []int32 // variable -> column+1 (0 = not a matrix column)
	words int     // bitset words per row

	rows  []gaussRow
	watch [][]int32 // column -> indices of rows watching it

	// nEntries counts live+stale watch-list entries. Stale entries
	// (rows re-watched by the elimination step leave their old entries
	// behind) are dropped lazily on visit and compacted wholesale at
	// solve boundaries, so lists cannot grow without bound across a
	// long-lived session.
	nEntries int
}

type gaussRow struct {
	bits []uint64
	rhs  bool
	// wc are the two watched columns; resp names the slot holding the
	// row's responsible (pivot) column. Watched columns always carry a
	// set bit in bits.
	wc   [2]int32
	resp uint8
}

func (g *gaussMatrix) hasCol(ri int, c int32) bool {
	return g.rows[ri].bits[c>>6]&(1<<(uint(c)&63)) != 0
}

// clone deep-copies the matrix; no mutable state is shared.
func (g *gaussMatrix) clone() *gaussMatrix {
	n := &gaussMatrix{
		gen:       g.gen,
		nAbsorbed: g.nAbsorbed,
		cols:      append([]int32(nil), g.cols...),
		colOf:     append([]int32(nil), g.colOf...),
		words:     g.words,
		rows:      make([]gaussRow, len(g.rows)),
		watch:     make([][]int32, len(g.watch)),
		nEntries:  g.nEntries,
	}
	for i, r := range g.rows {
		n.rows[i] = gaussRow{
			bits: append([]uint64(nil), r.bits...),
			rhs:  r.rhs,
			wc:   r.wc,
			resp: r.resp,
		}
	}
	for c, ws := range g.watch {
		if len(ws) > 0 {
			n.watch[c] = append([]int32(nil), ws...)
		}
	}
	return n
}

// compact rebuilds the watch lists from the rows' wc fields, dropping
// every stale entry. Called at solve boundaries when stale entries
// outnumber live ones, so scan time and memory stay proportional to
// the row count however long the solver lives.
func (g *gaussMatrix) compact() {
	if g.nEntries <= 4*len(g.rows) {
		return
	}
	for c := range g.watch {
		g.watch[c] = g.watch[c][:0]
	}
	for ri := range g.rows {
		r := &g.rows[ri]
		g.watch[r.wc[0]] = append(g.watch[r.wc[0]], int32(ri))
		g.watch[r.wc[1]] = append(g.watch[r.wc[1]], int32(ri))
	}
	g.nEntries = 2 * len(g.rows)
}

// gaussInSearchInit rebuilds the in-search matrix from the level-0
// reduced XOR rows, absorbing them out of the clause-watch scheme. It
// returns false when folding level-0 assignments refutes the system.
//
// The rebuild is unconditional at every solve boundary, and
// deliberately so: in-search row combination monotonically densifies
// the matrix (the XOR of two half-dense rows stays half-dense) and
// displaces pivots, and a session answers thousands of queries against
// one solver — carrying the previous search's combined rows forward
// would ratchet scan cost up query over query. Rebuilding from the
// RREF basis in s.xors resets density AND restores pivot uniqueness
// (each row's responsible column appears in no other row) for the cost
// of one pass over the rows, orders of magnitude below a single
// query's propagation work. What is worth keeping across queries —
// learned clauses, activities, phases — lives outside the matrix.
func (s *Solver) gaussInSearchInit() bool {
	if s.decisionLevel() != 0 {
		panic("sat: gaussInSearchInit above level 0")
	}
	s.gmat = nil
	if len(s.xors) == 0 {
		return true
	}
	s.Stats.GaussMatrixBuilds++

	// Column layout: every variable still unassigned in some row, in
	// ascending variable order — identical to gaussEliminate's layout,
	// so clones and rebuilds are deterministic.
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
	colOf := make([]int32, s.numVars)
	for i, v := range cols {
		colOf[v] = int32(i) + 1
	}
	words := gaussWords(len(cols))

	g := &gaussMatrix{
		gen:       s.xorGen,
		nAbsorbed: len(s.xors),
		cols:      cols,
		colOf:     colOf,
		words:     words,
	}
	var units []lit
	for _, x := range s.xors {
		row := gaussRow{bits: make([]uint64, words), rhs: x.rhs}
		n := 0
		var first [2]int32
		for _, v := range x.vars {
			switch s.assigns[v] {
			case valTrue:
				row.rhs = !row.rhs
			case valFalse:
				// contributes 0; drop
			default:
				c := colOf[v] - 1
				row.bits[c>>6] |= 1 << (uint(c) & 63)
				if n < 2 {
					first[n] = c
				}
				n++
			}
		}
		switch n {
		case 0:
			if row.rhs {
				return false // 0 = 1 under level-0 assignments
			}
		case 1:
			units = append(units, mkLit(cols[first[0]], !row.rhs))
		default:
			row.wc = first
			row.resp = 0
			g.rows = append(g.rows, row)
		}
	}
	g.watch = make([][]int32, len(cols))
	for ri := range g.rows {
		r := &g.rows[ri]
		g.watch[r.wc[0]] = append(g.watch[r.wc[0]], int32(ri))
		g.watch[r.wc[1]] = append(g.watch[r.wc[1]], int32(ri))
	}
	g.nEntries = 2 * len(g.rows)
	s.gmat = g

	// The matrix owns the absorbed rows now; their clause watches go.
	// s.xors stays canonical — Clone and the next level-0 harvest read
	// it — but propagation for these rows runs through the matrix.
	s.xorWatches = make([][]*xorClause, s.numVars)

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
	return s.propagate() == nil
}

// propagateGauss handles the assignment of variable v against the
// in-search matrix: every row watching v's column is updated, moving
// watches, extracting implications, eliminating columns, or reporting
// a conflict. Called from the propagation loop after CNF and XOR
// watches.
func (s *Solver) propagateGauss(v int32) *conflictInfo {
	g := s.gmat
	if int(v) >= len(g.colOf) {
		return nil
	}
	c := g.colOf[v]
	if c == 0 {
		return nil
	}
	col := c - 1
	// Row fix-ups triggered below (eliminateCol → gaussFixRow →
	// setWatches) may APPEND to g.watch[col] while we iterate: a
	// fully-assigned row legitimately re-watches the column being
	// propagated when it carries the row's highest decision level. The
	// snapshot ws covers only the first n entries; whatever the updates
	// appended lives in g.watch[col][n:] and is spliced back in before
	// the compacted list is stored.
	ws := g.watch[col]
	n := len(ws)
	kept := ws[:0]
	for wi := 0; wi < n; wi++ {
		ri := ws[wi]
		r := &g.rows[ri]
		var widx int
		switch {
		case r.wc[0] == col:
			widx = 0
		case r.wc[1] == col:
			widx = 1
		default:
			// Stale entry: the row was re-watched by an elimination
			// step after this entry was created. Drop it.
			g.nEntries--
			continue
		}
		confl, keep := s.gaussUpdateRow(int(ri), widx)
		if keep {
			kept = append(kept, ri)
		} else {
			g.nEntries--
		}
		if confl != nil {
			for wi++; wi < n; wi++ {
				kept = append(kept, ws[wi])
			}
			kept = append(kept, g.watch[col][n:]...)
			g.watch[col] = kept
			return confl
		}
	}
	kept = append(kept, g.watch[col][n:]...)
	g.watch[col] = kept
	return nil
}

// gaussUpdateRow reacts to the assignment of row ri's watched column
// in slot widx. keep reports whether the row must stay in that
// column's watch list.
func (s *Solver) gaussUpdateRow(ri, widx int) (confl *conflictInfo, keep bool) {
	g := s.gmat
	r := &g.rows[ri]
	other := r.wc[1-widx]

	// Look for an unassigned replacement column distinct from the
	// other watch.
	if rep := g.findUnassigned(s, ri, other, -1); rep >= 0 {
		r.wc[widx] = rep
		g.watch[rep] = append(g.watch[rep], int32(ri))
		g.nEntries++
		if int(r.resp) == widx {
			// The responsible (pivot) watch moved: eliminate its new
			// column from every other row, keeping the matrix in
			// Gauss-Jordan form relative to the unassigned variables.
			return s.gaussEliminateCol(ri, rep), false
		}
		return nil, false
	}

	// No replacement: every column except possibly `other` is
	// assigned. The other watch only implies its variable if it is
	// actually still IN the row — an empty (cancelled) row keeps its
	// old watch columns without containing them.
	otherVar := g.cols[other]
	if s.assigns[otherVar] == valUnassigned && g.hasCol(ri, other) {
		want := g.rowParity(s, ri, other) != r.rhs
		implied := mkLit(otherVar, !want)
		s.Stats.GaussInSearchProps++
		s.gaussImplied(ri, implied)
		return nil, true
	}
	if g.rowParity(s, ri, -1) != r.rhs {
		s.Stats.GaussInSearchConflicts++
		return s.gaussConflict(ri), true
	}
	return nil, true // satisfied
}

// gaussEliminateCol XOR-combines row src into every other row that
// contains column col, then re-establishes each combined row's watch
// invariant — propagating rows the combination left with a single
// unassigned column and reporting rows it left fully assigned with the
// wrong parity.
func (s *Solver) gaussEliminateCol(src int, col int32) *conflictInfo {
	g := s.gmat
	sr := &g.rows[src]
	for ri := range g.rows {
		if ri == src || !g.hasCol(ri, col) {
			continue
		}
		r := &g.rows[ri]
		for w := range r.bits {
			r.bits[w] ^= sr.bits[w]
		}
		r.rhs = r.rhs != sr.rhs
		if confl := s.gaussFixRow(ri); confl != nil {
			return confl
		}
	}
	return nil
}

// gaussFixRow restores row ri's watch invariant after its bits
// changed: two unassigned watches when possible, an immediate
// implication when exactly one unassigned column remains, a parity
// check when none does. Fully-assigned rows watch their two
// maximal-decision-level columns, so any backjump that unassigns part
// of the row also unassigns a watch — the trigger that guarantees the
// row is re-examined.
//
// When the row's responsible column is still present and unassigned it
// is KEPT in the responsible slot. That preserves pivot uniqueness:
// eliminateCol never cancels another row's pivot (pivots appear in
// exactly one row, so a combination cannot touch the target's own),
// and a fix-up that silently re-seated responsibility on an arbitrary
// column would let pivots collide — after which eliminations combine
// rows chaotically and the matrix densifies instead of staying
// reduced. The fast path below (pivot alive + one other unassigned
// column) also skips the full-row parity scan entirely, which is what
// keeps per-assignment maintenance near the cost of a plain watch
// move.
func (s *Solver) gaussFixRow(ri int) *conflictInfo {
	g := s.gmat
	r := &g.rows[ri]

	bcol := r.wc[r.resp]
	if g.hasCol(ri, bcol) && s.assigns[g.cols[bcol]] == valUnassigned {
		// Pivot alive. Find one more unassigned column and the row is
		// watch-satisfied with no parity work.
		if rep := g.findUnassigned(s, ri, bcol, -1); rep >= 0 {
			if r.resp == 0 {
				g.setWatches(ri, bcol, rep)
			} else {
				g.setWatches(ri, rep, bcol)
			}
			return nil
		}
		// Pivot is the only unassigned column: the row implies it.
		return s.gaussImply(ri, bcol)
	}

	// Pivot gone or assigned: general scan. Collect up to two
	// unassigned columns and the two highest-level set columns for the
	// fully-assigned case.
	var un [2]int32
	nUn := 0
	hi, hi2 := int32(-1), int32(-1)
	var hiLvl, hi2Lvl int32 = -1, -1
	any := false
	for w, word := range r.bits {
		for word != 0 {
			c := int32(w<<6 + bits.TrailingZeros64(word))
			word &= word - 1
			any = true
			v := g.cols[c]
			if s.assigns[v] == valUnassigned {
				if nUn < 2 {
					un[nUn] = c
				}
				nUn++
				if nUn == 2 {
					// Two unassigned columns are all we need.
					goto scanned
				}
				continue
			}
			if lvl := s.level[v]; lvl > hiLvl {
				hi2, hi2Lvl = hi, hiLvl
				hi, hiLvl = c, lvl
			} else if lvl > hi2Lvl {
				hi2, hi2Lvl = c, lvl
			}
		}
	}
scanned:
	if !any {
		// The row cancelled to empty: its partner was a duplicate. The
		// build starts from a linearly independent basis, but level-0
		// assignments folded in SINCE the last level-0 re-reduction can
		// collapse two distinct rows onto the same support (the
		// gaussRetrigger hysteresis makes that window real). An empty
		// row with rhs=1 says 0=1 under the level-0 trail — a
		// refutation of the formula itself, reported as an empty
		// conflict clause, which the search loop resolves at level 0.
		// With rhs=0 the row is trivially satisfied forever; its watch
		// entries go inert (gaussUpdateRow falls through to a parity
		// check that always passes) until the next rebuild drops it.
		if r.rhs {
			s.Stats.GaussInSearchConflicts++
			return s.conflict(nil)
		}
		return nil
	}

	switch nUn {
	case 2:
		// Adopt un[0] as the new pivot (responsible slot 0). It may
		// collide with another row's pivot until its own assignment
		// triggers an elimination — a transient the reduction repairs
		// lazily, never a soundness issue.
		r.resp = 0
		g.setWatches(ri, un[0], un[1])
		return nil
	case 1:
		return s.gaussImply(ri, un[0])
	default:
		if hi2 < 0 {
			hi2 = hi // single-column row
		}
		g.setWatches(ri, hi, hi2)
		if g.rowParity(s, ri, -1) != r.rhs {
			s.Stats.GaussInSearchConflicts++
			return s.gaussConflict(ri)
		}
		return nil
	}
}

// gaussImply handles a row whose only unassigned column is ucol: every
// other column is assigned, so ucol's variable is implied. The row
// watches ucol (which is about to carry the row's highest decision
// level, satisfying the backjump-trigger invariant) plus any set
// column.
func (s *Solver) gaussImply(ri int, ucol int32) *conflictInfo {
	g := s.gmat
	r := &g.rows[ri]
	secondCol := ucol
	for w, word := range r.bits {
		if word != 0 {
			c := int32(w<<6 + bits.TrailingZeros64(word))
			if c == ucol {
				word &= word - 1
				if word != 0 {
					c = int32(w<<6 + bits.TrailingZeros64(word))
				} else {
					continue
				}
			}
			secondCol = c
			break
		}
	}
	if r.resp == 0 {
		g.setWatches(ri, ucol, secondCol)
	} else {
		g.setWatches(ri, secondCol, ucol)
	}
	impliedVar := g.cols[ucol]
	want := g.rowParity(s, ri, ucol) != r.rhs
	implied := mkLit(impliedVar, !want)
	s.Stats.GaussInSearchProps++
	s.gaussImplied(ri, implied)
	return nil
}

// setWatches points row ri's watches at columns a and b, appending
// watch-list entries only for columns not already watched (old entries
// left behind become stale and are dropped lazily). The responsible
// slot keeps its index; Gauss-Jordan uniqueness of the pivot is a
// performance property, not a soundness one, so a pivot displaced by
// combination does not cascade further eliminations.
func (g *gaussMatrix) setWatches(ri int, a, b int32) {
	r := &g.rows[ri]
	old := r.wc
	r.wc[0], r.wc[1] = a, b
	for _, c := range [2]int32{a, b} {
		if c != old[0] && c != old[1] {
			g.watch[c] = append(g.watch[c], int32(ri))
			g.nEntries++
		}
	}
}

// findUnassigned returns the first set column of row ri whose variable
// is unassigned, skipping columns skip1 and skip2 (-1 = none), or -1.
func (g *gaussMatrix) findUnassigned(s *Solver, ri int, skip1, skip2 int32) int32 {
	r := &g.rows[ri]
	for w, word := range r.bits {
		for word != 0 {
			c := int32(w<<6 + bits.TrailingZeros64(word))
			word &= word - 1
			if c == skip1 || c == skip2 {
				continue
			}
			if s.assigns[g.cols[c]] == valUnassigned {
				return c
			}
		}
	}
	return -1
}

// rowParity computes the XOR of the assigned values over row ri's set
// columns, skipping column skip (-1 = none).
func (g *gaussMatrix) rowParity(s *Solver, ri int, skip int32) bool {
	parity := false
	for w, word := range g.rows[ri].bits {
		for word != 0 {
			c := int32(w<<6 + bits.TrailingZeros64(word))
			word &= word - 1
			if c == skip {
				continue
			}
			if s.assigns[g.cols[c]] == valTrue {
				parity = !parity
			}
		}
	}
	return parity
}

// gaussImplied materializes the clausal reason for an implication of
// row ri into the implied variable's gaussReasons slot, then enqueues
// the implication: the implied literal first, then the negations of
// the current assignments of every other set column — false literals,
// exactly the shape analyze() requires. The reason is copied out of
// the row because the row may be combined away before the implication
// leaves the trail.
func (s *Solver) gaussImplied(ri int, implied lit) {
	g := s.gmat
	iv := implied.varIdx()
	out := append(s.gaussReasons[iv][:0], implied)
	for w, word := range g.rows[ri].bits {
		for word != 0 {
			c := int32(w<<6 + bits.TrailingZeros64(word))
			word &= word - 1
			v := g.cols[c]
			if v == iv {
				continue
			}
			out = append(out, mkLit(v, s.assigns[v] == valTrue))
		}
	}
	s.gaussReasons[iv] = out
	s.uncheckedEnqueue(implied, reason{kind: reasonGauss})
}

// gaussConflict reports the conflict of a fully assigned,
// parity-violated row ri: the negations of every set column's
// assignment, materialized into conflBuf.
func (s *Solver) gaussConflict(ri int) *conflictInfo {
	g := s.gmat
	out := s.conflBuf[:0]
	for w, word := range g.rows[ri].bits {
		for word != 0 {
			c := int32(w<<6 + bits.TrailingZeros64(word))
			word &= word - 1
			v := g.cols[c]
			out = append(out, mkLit(v, s.assigns[v] == valTrue))
		}
	}
	s.conflBuf = out
	return s.conflict(out)
}
