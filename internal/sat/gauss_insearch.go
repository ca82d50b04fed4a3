package sat

import (
	"math/bits"
	"slices"
)

// In-search XOR Gaussian elimination, in the spirit of CryptoMiniSat's
// Gauss-Jordan component (Soos et al., SAT 2009; Han & Jiang, "When
// Boolean Satisfiability Meets Gaussian Elimination in a Simplex Way",
// CAV 2012): instead of leaving the b parity rows of A·x = TP as
// independent watch-propagated constraints, the solver lays them out
// as a GF(2) matrix at level 0, row-reduces it with the level-0
// assignments folded in, and keeps the reduced matrix LIVE across
// decision levels. Reduction exposes what watch propagation cannot
// see — inconsistent rows (0 = 1), forced variables (unit rows) and
// shorter equivalent rows — before the search starts. Rows are dense
// []uint64 bitsets over a deterministic column layout, each row
// watches two of its columns, and every assignment of a watched column
// updates the row's state:
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
//   - Every build leaves linearly independent rows, and row
//     combination keeps them so, so no row cancels to empty
//     mid-search; gaussFixRow still fails closed if one does.

// gaussWords is the bitset row width in 64-bit words for n columns.
func gaussWords(n int) int { return (n + 63) / 64 }

// gaussMatrix is the live in-search state. It is rebuilt at level 0 at
// every solve boundary and restart, stays valid across SolveAssuming
// retraction, and is deep-copied by Clone so portfolio workers and
// warm service sessions inherit the reduced system.
type gaussMatrix struct {
	// nAbsorbed is the len(Solver.xors) prefix the matrix absorbed:
	// rows appended later stay clause-watched until the next rebuild.
	nAbsorbed int

	cols  []int32 // column -> variable
	colOf []int32 // variable -> column+1 (0 = not a matrix column)
	words int     // bitset words per row

	rows  []gaussRow
	watch [][]int32 // column -> indices of rows watching it

	// unset and vals hold one bit per column, in the rows' layout:
	// unset marks the columns whose variable is unassigned, vals those
	// whose variable is true. uncheckedEnqueue and cancelUntil keep them
	// in step with the trail, so a row scan ANDs a word of the row with
	// a mask instead of reading s.assigns once per set bit.
	unset, vals []uint64

	// slab backs every row's bits, words per row in row order; units
	// collects the unit rows of a rebuild. The rebuild reuses both, and
	// every list above, at each solve boundary and restart.
	slab  []uint64
	units []lit

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

// isUnset reports whether column c's variable is unassigned.
func (g *gaussMatrix) isUnset(c int32) bool {
	return g.unset[c>>6]&(1<<(uint(c)&63)) != 0
}

// assign records that variable v, if it is a column, took value val.
func (g *gaussMatrix) assign(v int32, val bool) {
	if int(v) >= len(g.colOf) || g.colOf[v] == 0 {
		return
	}
	c := g.colOf[v] - 1
	bit := uint64(1) << (uint(c) & 63)
	g.unset[c>>6] &^= bit
	if val {
		g.vals[c>>6] |= bit
	}
}

// unassign records that variable v, if it is a column, lost its value.
func (g *gaussMatrix) unassign(v int32) {
	if int(v) >= len(g.colOf) || g.colOf[v] == 0 {
		return
	}
	c := g.colOf[v] - 1
	bit := uint64(1) << (uint(c) & 63)
	g.unset[c>>6] |= bit
	g.vals[c>>6] &^= bit
}

// clone deep-copies the matrix into storage of its own; no mutable
// state or rebuild buffer is shared.
func (g *gaussMatrix) clone() *gaussMatrix {
	n := &gaussMatrix{
		nAbsorbed: g.nAbsorbed,
		cols:      append([]int32(nil), g.cols...),
		colOf:     append([]int32(nil), g.colOf...),
		words:     g.words,
		rows:      make([]gaussRow, len(g.rows)),
		watch:     make([][]int32, len(g.watch)),
		unset:     append([]uint64(nil), g.unset...),
		vals:      append([]uint64(nil), g.vals...),
		nEntries:  g.nEntries,
		slab:      make([]uint64, len(g.rows)*g.words),
	}
	for i, r := range g.rows {
		bits := n.slab[i*g.words : (i+1)*g.words : (i+1)*g.words]
		copy(bits, r.bits)
		n.rows[i] = gaussRow{bits: bits, rhs: r.rhs, wc: r.wc, resp: r.resp}
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

// gaussInSearchInit rebuilds the in-search matrix from s.xors,
// absorbing the rows out of the clause-watch scheme, then enqueues and
// propagates the unit rows the reduction found. It returns false when
// the rows refute the formula under the level-0 assignments.
//
// The rebuild is unconditional at every solve boundary and restart,
// and deliberately so: in-search row combination monotonically
// densifies the matrix (the XOR of two half-dense rows stays
// half-dense) and displaces pivots, and a session answers thousands of
// queries against one solver — carrying the previous search's combined
// rows forward would ratchet scan cost up query over query.
// Re-reducing from s.xors resets density AND restores pivot uniqueness
// (each row's responsible column appears in no other row), and folds
// in every level-0 assignment made since the last build, for a cost
// orders of magnitude below a single query's propagation work. What is
// worth keeping across queries — learned clauses, activities, phases —
// lives outside the matrix.
func (s *Solver) gaussInSearchInit() bool {
	if s.decisionLevel() != 0 {
		panic("sat: gaussInSearchInit above level 0")
	}
	if !s.gaussBuild() {
		return false
	}
	if s.gmat == nil {
		return true
	}
	// Unit rows hold distinct pivot columns, all unassigned.
	for _, u := range s.gmat.units {
		s.Stats.GaussUnits++
		s.uncheckedEnqueue(u, reason{})
	}
	return s.propagate() == nil
}

// gaussBuild lays the matrix out from s.xors under the level-0
// assignments and reduces it in place to reduced row-echelon form,
// lowest column first. Rows left with one column go to units, rows
// left empty are dropped, and nothing is propagated. It returns false
// when a row reads 0 = 1. s.xors itself is never rewritten.
//
// It allocates nothing once the solver has built a matrix: it reuses
// the previous matrix's column maps, column masks, row slab, watch
// lists and units buffer, and truncates the clause-watch XOR lists in
// place.
func (s *Solver) gaussBuild() bool {
	g := s.gmat
	s.gmat = nil
	if len(s.xors) == 0 {
		return true
	}
	if g == nil {
		g = &gaussMatrix{}
	}
	s.Stats.GaussMatrixBuilds++

	// Column layout: every variable still unassigned in some row, in
	// ascending variable order, so clones and rebuilds are
	// deterministic. Rows mark their variables in colOf; an ascending
	// scan then numbers the marks.
	colOf := slices.Grow(g.colOf[:0], s.numVars)[:s.numVars]
	clear(colOf)
	for _, x := range s.xors {
		for _, v := range x.vars {
			if s.assigns[v] == valUnassigned {
				colOf[v] = 1
			}
		}
	}
	cols := g.cols[:0]
	for v, mark := range colOf {
		if mark != 0 {
			cols = append(cols, int32(v))
			colOf[v] = int32(len(cols))
		}
	}
	words := gaussWords(len(cols))

	g.nAbsorbed = len(s.xors)
	g.cols = cols
	g.colOf = colOf
	g.words = words
	// Every column is unassigned at level 0: unset starts full over the
	// columns, and vals empty.
	g.unset = slices.Grow(g.unset[:0], words)[:words]
	for w := range g.unset {
		g.unset[w] = ^uint64(0)
	}
	if tail := len(cols) & 63; tail != 0 {
		g.unset[words-1] = 1<<tail - 1
	}
	g.vals = slices.Grow(g.vals[:0], words)[:words]
	clear(g.vals)
	g.slab = slices.Grow(g.slab[:0], len(s.xors)*words)[:len(s.xors)*words]
	clear(g.slab)
	// Rows hold slices of the slab; clearing the whole backing array
	// keeps rows dropped since the last build from pinning an old slab.
	clear(g.rows[:cap(g.rows)])
	rows := g.rows[:0]
	for i, x := range s.xors {
		row := gaussRow{bits: g.slab[i*words : (i+1)*words : (i+1)*words], rhs: x.rhs}
		for _, v := range x.vars {
			switch s.assigns[v] {
			case valTrue:
				row.rhs = !row.rhs
			case valFalse:
				// contributes 0; drop
			default:
				c := colOf[v] - 1
				row.bits[c>>6] |= 1 << (uint(c) & 63)
			}
		}
		rows = append(rows, row)
	}

	// Gauss-Jordan to reduced row-echelon form, lowest column first.
	// Full RREF (eliminating above the pivot too) keeps every row as
	// short as the span allows and each pivot in exactly one row.
	rank := 0
	for c := 0; c < len(cols) && rank < len(rows); c++ {
		w, b := c>>6, uint64(1)<<(uint(c)&63)
		sel := rank
		for sel < len(rows) && rows[sel].bits[w]&b == 0 {
			sel++
		}
		if sel == len(rows) {
			continue
		}
		rows[rank], rows[sel] = rows[sel], rows[rank]
		p := rows[rank]
		for i := range rows {
			if i != rank && rows[i].bits[w]&b != 0 {
				for k, pw := range p.bits {
					rows[i].bits[k] ^= pw
				}
				rows[i].rhs = rows[i].rhs != p.rhs
			}
		}
		rank++
	}
	// Rows past the rank are empty: 0 = rhs.
	for _, r := range rows[rank:] {
		if r.rhs {
			return false // 0 = 1 under level-0 assignments
		}
	}

	// Each reduced row watches its pivot, the responsible slot, and its
	// next column; a row with no next column is a unit.
	g.units = g.units[:0]
	kept := rows[:0]
	for _, r := range rows[:rank] {
		var first [2]int32
		n := 0
		for w, word := range r.bits {
			for ; word != 0 && n < 2; word &= word - 1 {
				first[n] = int32(w<<6 + bits.TrailingZeros64(word))
				n++
			}
		}
		if n == 1 {
			g.units = append(g.units, mkLit(cols[first[0]], !r.rhs))
			continue
		}
		r.wc, r.resp = first, 0
		kept = append(kept, r)
	}
	g.rows = kept
	g.watch = slices.Grow(g.watch[:0], len(cols))[:len(cols)]
	for c := range g.watch {
		g.watch[c] = g.watch[c][:0]
	}
	for ri := range g.rows {
		r := &g.rows[ri]
		g.watch[r.wc[0]] = append(g.watch[r.wc[0]], int32(ri))
		g.watch[r.wc[1]] = append(g.watch[r.wc[1]], int32(ri))
	}
	g.nEntries = 2 * len(g.rows)
	s.gmat = g

	// The matrix owns the absorbed rows now; their clause watches go.
	// s.xors stays canonical — Clone and the next build read it — but
	// propagation for these rows runs through the matrix. The lists
	// hold pointers, so they are cleared before they are reused.
	for v, ws := range s.xorWatches {
		clear(ws[:cap(ws)])
		s.xorWatches[v] = ws[:0]
	}
	return true
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
	if rep := g.findUnassigned(ri, other); rep >= 0 {
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
	if g.isUnset(other) && g.hasCol(ri, other) {
		want := g.rowParity(ri, other) != r.rhs
		implied := mkLit(g.cols[other], !want)
		s.Stats.GaussInSearchProps++
		s.gaussImplied(ri, implied)
		return nil, true
	}
	if g.rowParity(ri, -1) != r.rhs {
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
	if g.hasCol(ri, bcol) && g.isUnset(bcol) {
		// Pivot alive. Find one more unassigned column and the row is
		// watch-satisfied with no parity work.
		if rep := g.findUnassigned(ri, bcol); rep >= 0 {
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

	// Pivot gone or assigned: general scan for the first two
	// unassigned columns; two are all we need.
	var un [2]int32
	nUn := 0
	any := false
	for w, word := range r.bits {
		any = any || word != 0
		for word &= g.unset[w]; word != 0 && nUn < 2; word &= word - 1 {
			un[nUn] = int32(w<<6 + bits.TrailingZeros64(word))
			nUn++
		}
		if nUn == 2 {
			break
		}
	}
	if !any {
		// The row cancelled to empty. Every build leaves linearly
		// independent rows and combination keeps them so, so this does
		// not happen; the branch fails closed if it ever does. An
		// empty row with rhs=1 says 0=1 — a refutation of the formula
		// itself, reported as an empty conflict clause, which the
		// search loop resolves at level 0. With rhs=0 the row is
		// trivially satisfied; its watch entries go inert until the
		// next rebuild drops it.
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
		// Fully assigned: watch the two highest-level columns.
		hi, hi2 := int32(-1), int32(-1)
		var hiLvl, hi2Lvl int32 = -1, -1
		for w, word := range r.bits {
			for ; word != 0; word &= word - 1 {
				c := int32(w<<6 + bits.TrailingZeros64(word))
				if lvl := s.level[g.cols[c]]; lvl > hiLvl {
					hi2, hi2Lvl = hi, hiLvl
					hi, hiLvl = c, lvl
				} else if lvl > hi2Lvl {
					hi2, hi2Lvl = c, lvl
				}
			}
		}
		if hi2 < 0 {
			hi2 = hi // single-column row
		}
		g.setWatches(ri, hi, hi2)
		if g.rowParity(ri, -1) != r.rhs {
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
	want := g.rowParity(ri, ucol) != r.rhs
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
// is unassigned, skipping column skip, or -1.
func (g *gaussMatrix) findUnassigned(ri int, skip int32) int32 {
	for w, word := range g.rows[ri].bits {
		for word &= g.unset[w]; word != 0; word &= word - 1 {
			if c := int32(w<<6 + bits.TrailingZeros64(word)); c != skip {
				return c
			}
		}
	}
	return -1
}

// rowParity computes the XOR of the true columns of row ri, skipping
// column skip (-1 = none).
func (g *gaussMatrix) rowParity(ri int, skip int32) bool {
	n := 0
	for w, word := range g.rows[ri].bits {
		word &= g.vals[w]
		if w == int(skip>>6) {
			word &^= 1 << (uint(skip) & 63)
		}
		n += bits.OnesCount64(word)
	}
	return n&1 == 1
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
