package sat

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bitvec"
	"repro/internal/encoding"
	"repro/internal/gf2"
	"repro/internal/obs"
)

// TestGaussInSearchHiddenUnit mirrors TestGaussDerivesHiddenUnit with
// the in-search propagator: the level-0 pass still runs underneath it,
// and the live matrix must be built.
func TestGaussInSearchHiddenUnit(t *testing.T) {
	s := New(3)
	mustAddXor(t, s, []int{1, 2}, true)
	mustAddXor(t, s, []int{1, 2, 3}, true)
	s.EnableGaussInSearch = true
	if st := s.Solve(); st != Sat {
		t.Fatalf("status %v", st)
	}
	if s.Value(3) {
		t.Fatalf("x3 should be forced false by elimination")
	}
	if s.Stats.GaussRuns == 0 {
		t.Fatalf("level-0 elimination never ran")
	}
	if s.Stats.GaussMatrixBuilds == 0 {
		t.Fatalf("in-search matrix never built")
	}
}

// TestGaussInSearchPropagatesMidSearch checks the matrix actually
// extracts implications or conflicts during search: with the clause
// watches absorbed, all parity reasoning for the absorbed rows runs
// through the matrix, so a solved system with surviving wide rows must
// register in-search activity.
func TestGaussInSearchPropagatesMidSearch(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	s := New(16)
	s.EnableGaussInSearch = true
	for i := 0; i < 10; i++ {
		var vars []int
		for v := 1; v <= 16; v++ {
			if rng.Intn(2) == 0 {
				vars = append(vars, v)
			}
		}
		if len(vars) < 2 {
			vars = []int{1, 2}
		}
		mustAddXor(t, s, vars, rng.Intn(2) == 0)
	}
	if st := s.Solve(); st != Sat {
		t.Fatalf("status %v", st)
	}
	if s.Stats.GaussInSearchProps+s.Stats.GaussInSearchConflicts == 0 {
		t.Fatalf("matrix saw no in-search activity (props=%d conflicts=%d)",
			s.Stats.GaussInSearchProps, s.Stats.GaussInSearchConflicts)
	}
}

// TestGaussInSearchModelCountEquivalence compares projected model
// counts three ways — plain watches, level-0 Gauss, in-search Gauss —
// over random XOR systems mixed with CNF clauses. Model enumeration
// stresses retraction: every blocking clause restarts the search
// against the same live matrix.
func TestGaussInSearchModelCountEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for round := 0; round < 30; round++ {
		n := 5 + rng.Intn(5)
		rows := 1 + rng.Intn(n)
		type xr struct {
			vars []int
			rhs  bool
		}
		var xrs []xr
		for i := 0; i < rows; i++ {
			var vars []int
			for v := 1; v <= n; v++ {
				if rng.Intn(2) == 0 {
					vars = append(vars, v)
				}
			}
			if len(vars) == 0 {
				vars = []int{1 + rng.Intn(n)}
			}
			xrs = append(xrs, xr{vars, rng.Intn(2) == 0})
		}
		var cls [][]int
		for i := 0; i < 2; i++ {
			a := 1 + rng.Intn(n)
			b := 1 + rng.Intn(n)
			cls = append(cls, []int{a, -b})
		}
		build := func(mode int) *Solver {
			s := New(n)
			switch mode {
			case 1:
				s.EnableGauss = true
			case 2:
				s.EnableGaussInSearch = true
			}
			for _, x := range xrs {
				mustAddXor(t, s, x.vars, x.rhs)
			}
			for _, c := range cls {
				mustAdd(t, s, c...)
			}
			return s
		}
		proj := make([]int, n)
		for i := range proj {
			proj[i] = i + 1
		}
		var counts [3]int
		for mode := 0; mode < 3; mode++ {
			nM, ok, err := build(mode).CountModels(proj, 0)
			if err != nil || !ok {
				t.Fatalf("round %d mode %d: ok=%v err=%v", round, mode, ok, err)
			}
			counts[mode] = nM
		}
		if counts[0] != counts[1] || counts[0] != counts[2] {
			t.Fatalf("round %d: plain %d, gauss0 %d, insearch %d",
				round, counts[0], counts[1], counts[2])
		}
	}
}

// TestGaussInSearchDeterministic locks in counter reproducibility for
// the in-search engine: two identical solvers must produce identical
// Stats, including the new in-search counters.
func TestGaussInSearchDeterministic(t *testing.T) {
	build := func() *Solver {
		s := New(12)
		s.EnableGaussInSearch = true
		rng := rand.New(rand.NewSource(5))
		for i := 0; i < 8; i++ {
			var vars []int
			for v := 1; v <= 12; v++ {
				if rng.Intn(2) == 0 {
					vars = append(vars, v)
				}
			}
			if len(vars) == 0 {
				vars = []int{1}
			}
			mustAddXor(t, s, vars, rng.Intn(2) == 0)
		}
		mustAdd(t, s, 1, 2, 3)
		return s
	}
	a, b := build(), build()
	if stA, stB := a.Solve(), b.Solve(); stA != stB {
		t.Fatalf("status %v vs %v", stA, stB)
	}
	if a.Stats != b.Stats {
		t.Fatalf("stats diverge:\n%+v\n%+v", a.Stats, b.Stats)
	}
}

// TestGaussInSearchCloneWarm checks that a clone taken after a solve —
// matrix built, possibly combined by the search — answers assumption
// queries identically to a cold solver on the same system, and that
// the clone and its origin do not share mutable matrix state.
func TestGaussInSearchCloneWarm(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	n := 10
	type xr struct {
		vars []int
		rhs  bool
	}
	var xrs []xr
	for i := 0; i < 7; i++ {
		var vars []int
		for v := 1; v <= n; v++ {
			if rng.Intn(2) == 0 {
				vars = append(vars, v)
			}
		}
		if len(vars) < 2 {
			vars = []int{1, 2}
		}
		xrs = append(xrs, xr{vars, rng.Intn(2) == 0})
	}
	warm := New(n)
	warm.EnableGaussInSearch = true
	cold := New(n)
	for _, x := range xrs {
		mustAddXor(t, warm, x.vars, x.rhs)
		mustAddXor(t, cold, x.vars, x.rhs)
	}
	if st := warm.Solve(); st != Sat {
		t.Skipf("system unsat under seed, nothing to clone: %v", st)
	}
	c := warm.Clone()
	for q := 0; q < 20; q++ {
		var assumps []int
		for v := 1; v <= n; v++ {
			if rng.Intn(3) == 0 {
				if rng.Intn(2) == 0 {
					assumps = append(assumps, v)
				} else {
					assumps = append(assumps, -v)
				}
			}
		}
		want := cold.SolveAssuming(assumps)
		if got := c.SolveAssuming(assumps); got != want {
			t.Fatalf("query %d (%v): clone %v, cold %v", q, assumps, got, want)
		}
		// The origin must answer too: clone and origin search the same
		// matrix independently.
		if got := warm.SolveAssuming(assumps); got != want {
			t.Fatalf("query %d (%v): origin %v, cold %v", q, assumps, got, want)
		}
	}
}

// TestGaussRebuildReusesStorage checks the in-search matrix rebuild
// that runs at every solve boundary and restart. Built over the
// storage of a matrix the search has combined rows in, and again after
// each of a run of unpropagated level-0 assignments (which turn rows
// into units or drop them), it must hold exactly the rows a direct
// reading of the XOR system gives, and column masks that match the
// assignment; once built, a rebuild, masks included, must allocate
// nothing.
func TestGaussRebuildReusesStorage(t *testing.T) {
	const n = 16
	var props, units int64
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s := New(n)
		s.EnableGaussInSearch = true
		for i := 0; i < 10; i++ {
			var vars []int
			for v := 1; v <= n; v++ {
				if rng.Intn(2) == 0 {
					vars = append(vars, v)
				}
			}
			if len(vars) < 2 {
				vars = []int{1, 2}
			}
			mustAddXor(t, s, vars, rng.Intn(2) == 0)
		}
		if s.Solve() != Sat {
			continue
		}
		props += s.Stats.GaussInSearchProps
		before := s.Stats.GaussUnits
		model := make([]bool, n+1)
		for v := 1; v <= n; v++ {
			model[v] = s.Value(v)
		}
		for _, v := range rng.Perm(n) {
			cols, rows := gaussLayout(s)
			if !s.gaussBuild() {
				t.Fatalf("seed %d: rebuild refuted a satisfiable system", seed)
			}
			checkGaussRebuild(t, s, cols, rows)
			checkGaussMasks(t, s, "rebuild")
			if !s.gaussInSearchInit() {
				t.Fatalf("seed %d: rebuild propagation refuted a satisfiable system", seed)
			}
			checkGaussMasks(t, s, "rebuild propagation")
			// Assign one more variable its model value at level 0,
			// leaving it for the next rebuild to fold in.
			if s.assigns[v] == valUnassigned {
				s.uncheckedEnqueue(mkLit(int32(v), !model[v+1]), reason{})
			}
		}
		units += s.Stats.GaussUnits - before
		if allocs := testing.AllocsPerRun(10, func() { s.gaussInSearchInit() }); allocs != 0 {
			t.Fatalf("seed %d: rebuild allocates %.0f times", seed, allocs)
		}
	}
	if props == 0 || units == 0 {
		t.Fatalf("corpus too weak: %d in-search props, %d unit rows", props, units)
	}
}

// gaussLayout reads the matrix a rebuild must produce straight from
// s.xors under the current level-0 assignments: ascending columns over
// the unassigned variables, and one row per XOR with two or more of
// them, watching its first two columns.
func gaussLayout(s *Solver) (cols []int32, rows []gaussRow) {
	for v := int32(0); v < int32(s.numVars); v++ {
		for _, x := range s.xors {
			if slices.Contains(x.vars, v) && s.assigns[v] == valUnassigned {
				cols = append(cols, v)
				break
			}
		}
	}
	for _, x := range s.xors {
		r := gaussRow{bits: make([]uint64, gaussWords(len(cols))), rhs: x.rhs}
		var set []int32
		for _, v := range x.vars {
			switch s.assigns[v] {
			case valTrue:
				r.rhs = !r.rhs
			case valUnassigned:
				c, _ := slices.BinarySearch(cols, v)
				r.bits[c>>6] |= 1 << (uint(c) & 63)
				set = append(set, int32(c))
			}
		}
		if len(set) >= 2 {
			r.wc = [2]int32{set[0], set[1]}
			rows = append(rows, r)
		}
	}
	return cols, rows
}

// checkGaussRebuild compares the rebuilt matrix with the layout
// gaussLayout read before the rebuild.
func checkGaussRebuild(t *testing.T, s *Solver, cols []int32, rows []gaussRow) {
	t.Helper()
	g := s.gmat
	if !slices.Equal(g.cols, cols) {
		t.Fatalf("columns %v, want %v", g.cols, cols)
	}
	if len(g.rows) != len(rows) || g.nEntries != 2*len(rows) {
		t.Fatalf("%d rows and %d watch entries, want %d rows", len(g.rows), g.nEntries, len(rows))
	}
	for ri, want := range rows {
		r := g.rows[ri]
		if !slices.Equal(r.bits, want.bits) || r.rhs != want.rhs || r.wc != want.wc || r.resp != 0 {
			t.Fatalf("row %d: %+v, want %+v", ri, r, want)
		}
		if !slices.Contains(g.watch[r.wc[0]], int32(ri)) || !slices.Contains(g.watch[r.wc[1]], int32(ri)) {
			t.Fatalf("row %d missing from its watch lists", ri)
		}
	}
	for v, ws := range s.xorWatches {
		if len(ws) != 0 {
			t.Fatalf("variable %d keeps %d clause watches on absorbed rows", v, len(ws))
		}
	}
}

// TestGaussReductionNotSkippedAfterAdd is the regression test for the
// staleness bug: the old check compared row COUNTS, which a harvest
// plus a later AddXorClause can leave unchanged while the row set
// differs. The generation counter must force a re-reduction after any
// AddXorClause, and still skip when nothing changed.
func TestGaussReductionNotSkippedAfterAdd(t *testing.T) {
	s := New(3)
	s.EnableGauss = true
	mustAddXor(t, s, []int{1, 2}, true)
	mustAddXor(t, s, []int{1, 2, 3}, true)
	if st := s.Solve(); st != Sat {
		t.Fatalf("status %v", st)
	}
	runs := s.Stats.GaussRuns
	if runs == 0 {
		t.Fatalf("elimination never ran")
	}
	if st := s.Solve(); st != Sat {
		t.Fatalf("re-solve status %v", st)
	}
	if s.Stats.GaussRuns != runs {
		t.Fatalf("unchanged system was re-reduced (%d -> %d runs)", runs, s.Stats.GaussRuns)
	}
	// The harvest left one reduced row, matching the count the old
	// length check recorded; the new row contradicts it and must not be
	// silently skipped.
	mustAddXor(t, s, []int{1, 2}, false)
	if st := s.Solve(); st != Unsat {
		t.Fatalf("contradicting row ignored: %v", st)
	}
	if s.Stats.GaussRuns <= runs {
		t.Fatalf("changed system skipped re-reduction (%d runs)", s.Stats.GaussRuns)
	}
}

// TestGaussRunsZeroWithoutXorRows is the regression test for the
// counter bug: a solver with no parity rows must report zero Gauss
// runs, both in Stats and in the published obs snapshot.
func TestGaussRunsZeroWithoutXorRows(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(4)
	s.EnableGauss = true
	s.Obs = reg
	mustAdd(t, s, 1, 2)
	mustAdd(t, s, -1, 3)
	if st := s.Solve(); st != Sat {
		t.Fatalf("status %v", st)
	}
	if s.Stats.GaussRuns != 0 {
		t.Fatalf("GaussRuns = %d with no parity rows", s.Stats.GaussRuns)
	}
	if got := reg.Snapshot().Counters[MetricGaussRuns]; got != 0 {
		t.Fatalf("%s = %d with no parity rows", MetricGaussRuns, got)
	}
}

// TestXorWatchHygieneAcrossReuse is the regression test for stale
// watch entries: across many AddXorClause/Solve cycles on one solver,
// no watch list may hold a dead (harvest-discarded) row, and the total
// entry count must stay proportional to the live row set rather than
// the session's age.
func TestXorWatchHygieneAcrossReuse(t *testing.T) {
	s := New(24)
	s.EnableGauss = true
	rng := rand.New(rand.NewSource(7))
	for cycle := 0; cycle < 60; cycle++ {
		var vars []int
		for v := 1; v <= 24; v++ {
			if rng.Intn(3) == 0 {
				vars = append(vars, v)
			}
		}
		if len(vars) < 2 {
			vars = []int{1, 2}
		}
		mustAddXor(t, s, vars, rng.Intn(2) == 0)
		if st := s.Solve(); st == Unsat {
			break // random rows eventually refute; hygiene up to here is what matters
		}
		total, dead := 0, 0
		for _, ws := range s.xorWatches {
			for _, x := range ws {
				total++
				if x.dead {
					dead++
				}
			}
		}
		if dead != 0 {
			t.Fatalf("cycle %d: %d watch entries point at dead rows", cycle, dead)
		}
		if max := 2*len(s.xors) + 256; total > max {
			t.Fatalf("cycle %d: %d watch entries for %d rows (cap %d)", cycle, total, len(s.xors), max)
		}
	}
}

// buildGF2Reference encodes the XOR system plus assumption unit rows
// as an A·x = y instance for internal/gf2, the algebraic oracle of the
// differential hammer.
func buildGF2Reference(masks []uint, rhs []bool, n int, assumps []int) (*gf2.Matrix, bitvec.Vector) {
	m := gf2.NewMatrix(len(masks)+len(assumps), n)
	y := bitvec.New(len(masks) + len(assumps))
	for i, mask := range masks {
		for v := 0; v < n; v++ {
			if mask&(1<<uint(v)) != 0 {
				m.Set(i, v, true)
			}
		}
		y.Set(i, rhs[i])
	}
	for i, a := range assumps {
		v, val := a, true
		if v < 0 {
			v, val = -v, false
		}
		m.Set(len(masks)+i, v-1, true)
		y.Set(len(masks)+i, val)
	}
	return m, y
}

// TestGaussDifferentialHammer solves seeded random GF(2) systems four
// ways — plain XOR watches, level-0 Gauss, in-search Gauss, and
// internal/gf2 elimination — under batches of assumption queries. All
// four must agree on sat/unsat, and every SAT model must satisfy every
// parity row and assumption. Run with -race in CI.
func TestGaussDifferentialHammer(t *testing.T) {
	rng := rand.New(rand.NewSource(1909))
	names := []string{"plain", "gauss0", "insearch"}
	for round := 0; round < 40; round++ {
		n := 6 + rng.Intn(10)
		rows := 2 + rng.Intn(n)
		masks := make([]uint, 0, rows)
		rhs := make([]bool, 0, rows)
		for i := 0; i < rows; i++ {
			mask := uint(rng.Intn(1 << uint(n)))
			if mask == 0 {
				mask = 1 << uint(rng.Intn(n))
			}
			masks = append(masks, mask)
			rhs = append(rhs, rng.Intn(2) == 0)
		}
		solvers := make([]*Solver, 3)
		for mode := range solvers {
			s := New(n)
			switch mode {
			case 1:
				s.EnableGauss = true
			case 2:
				s.EnableGaussInSearch = true
			}
			for i, mask := range masks {
				var vars []int
				for v := 0; v < n; v++ {
					if mask&(1<<uint(v)) != 0 {
						vars = append(vars, v+1)
					}
				}
				mustAddXor(t, s, vars, rhs[i])
			}
			solvers[mode] = s
		}
		for q := 0; q < 8; q++ {
			var assumps []int
			if q > 0 { // first query probes the unconstrained system
				for v := 1; v <= n; v++ {
					if rng.Intn(4) == 0 {
						if rng.Intn(2) == 0 {
							assumps = append(assumps, v)
						} else {
							assumps = append(assumps, -v)
						}
					}
				}
			}
			m, y := buildGF2Reference(masks, rhs, n, assumps)
			want := Unsat
			if _, ok := m.Solve(y); ok {
				want = Sat
			}
			for si, s := range solvers {
				st := s.SolveAssuming(assumps)
				if st != want {
					t.Fatalf("round %d query %d (%v): %s %v, gf2 %v",
						round, q, assumps, names[si], st, want)
				}
				if st != Sat {
					continue
				}
				for i, mask := range masks {
					parity := false
					for v := 0; v < n; v++ {
						if mask&(1<<uint(v)) != 0 && s.Value(v+1) {
							parity = !parity
						}
					}
					if parity != rhs[i] {
						t.Fatalf("round %d query %d: %s model violates row %d",
							round, q, names[si], i)
					}
				}
				for _, a := range assumps {
					v, val := a, true
					if v < 0 {
						v, val = -v, false
					}
					if s.Value(v) != val {
						t.Fatalf("round %d query %d: %s model drops assumption %d",
							round, q, names[si], a)
					}
				}
			}
		}
	}
}

// FuzzXorSystem fuzzes random parity systems through the three solver
// configurations and the gf2 oracle. Each row is two bytes: a variable
// bitmask (low 13 bits) and the rhs in the top bit.
func FuzzXorSystem(f *testing.F) {
	f.Add([]byte{5, 0b00011, 0x80, 0b00110, 0x00})
	f.Add([]byte{8, 0xFF, 0x80, 0x0F, 0x00, 0xF0, 0x81})
	f.Add([]byte{3, 0b011, 0x80, 0b011, 0x00}) // contradiction
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 3 {
			return
		}
		n := int(data[0]%12) + 2
		body := data[1:]
		if len(body) > 32 {
			body = body[:32]
		}
		var masks []uint
		var rhs []bool
		for i := 0; i+1 < len(body); i += 2 {
			mask := (uint(body[i]) | uint(body[i+1]&0x1F)<<8) & (1<<uint(n) - 1)
			if mask == 0 {
				continue
			}
			masks = append(masks, mask)
			rhs = append(rhs, body[i+1]&0x80 != 0)
		}
		if len(masks) == 0 {
			return
		}
		m, y := buildGF2Reference(masks, rhs, n, nil)
		want := Unsat
		if _, ok := m.Solve(y); ok {
			want = Sat
		}
		for mode := 0; mode < 3; mode++ {
			s := New(n)
			switch mode {
			case 1:
				s.EnableGauss = true
			case 2:
				s.EnableGaussInSearch = true
			}
			for i, mask := range masks {
				var vars []int
				for v := 0; v < n; v++ {
					if mask&(1<<uint(v)) != 0 {
						vars = append(vars, v+1)
					}
				}
				if err := s.AddXorClause(vars, rhs[i]); err != nil {
					t.Fatal(err)
				}
			}
			if st := s.Solve(); st != want {
				t.Fatalf("mode %d: %v, gf2 %v (n=%d rows=%d)", mode, st, want, n, len(masks))
			}
			if want != Sat {
				continue
			}
			for i, mask := range masks {
				parity := false
				for v := 0; v < n; v++ {
					if mask&(1<<uint(v)) != 0 && s.Value(v+1) {
						parity = !parity
					}
				}
				if parity != rhs[i] {
					t.Fatalf("mode %d: model violates row %d", mode, i)
				}
			}
		}
	})
}

// checkGaussMasks recomputes the matrix's column masks from s.assigns
// and fails when either differs from the one the solver keeps.
func checkGaussMasks(t *testing.T, s *Solver, when string) {
	t.Helper()
	g := s.gmat
	if g == nil {
		t.Fatalf("%s: no in-search matrix", when)
	}
	unset := make([]uint64, g.words)
	vals := make([]uint64, g.words)
	for c, v := range g.cols {
		bit := uint64(1) << (uint(c) & 63)
		switch s.assigns[v] {
		case valUnassigned:
			unset[c>>6] |= bit
		case valTrue:
			vals[c>>6] |= bit
		}
	}
	if !slices.Equal(g.unset, unset) || !slices.Equal(g.vals, vals) {
		t.Fatalf("%s at level %d: masks unset %x vals %x, assigns give %x and %x",
			when, s.decisionLevel(), g.unset, g.vals, unset, vals)
	}
}

// TestGaussColumnMasksTrackTrail checks the in-search matrix's column
// masks against a recomputation from s.assigns on a forensic-shaped
// solver: after every propagation and every backjump of a search that
// steps through the solver's own propagate, analyze and cancelUntil,
// after a SolveAssuming retraction, after a restart rebuild, and on a
// Clone, before and after the clone solves.
func TestGaussColumnMasksTrackTrail(t *testing.T) {
	enc, err := encoding.Incremental(128, 16, 4)
	if err != nil {
		t.Fatal(err)
	}
	s, tpSel, ladder := forensicSession(t, enc, 16)
	s.EnableGaussInSearch = true
	r := rand.New(rand.NewSource(3))
	if st := s.SolveAssuming(forensicQuery(t, s, enc, r, 4, tpSel, ladder)); st != Sat {
		t.Fatalf("first query: %v, want Sat", st)
	}
	checkGaussMasks(t, s, "SolveAssuming retraction")

	var props, backjumps int
	for q := 0; q < 3; q++ {
		assumps := forensicQuery(t, s, enc, r, 5+q, tpSel, ladder)
		lits := make([]lit, len(assumps))
		for i, a := range assumps {
			lits[i] = extToLit(a)
		}
		// The restart rebuild, as solveWith runs it at every restart.
		if !s.gaussInSearchInit() {
			t.Fatal("rebuild refuted a satisfiable system")
		}
		checkGaussMasks(t, s, "restart rebuild")
		// One query by hand, step for step as search runs it, with the
		// assumptions planted as the first decisions.
		for {
			confl := s.propagate()
			props++
			checkGaussMasks(t, s, "propagation")
			if confl != nil {
				maxL := 0
				for _, l := range confl.lits {
					maxL = max(maxL, int(s.level[l.varIdx()]))
				}
				if maxL < s.decisionLevel() {
					s.cancelUntil(maxL)
					checkGaussMasks(t, s, "drop to the conflict level")
				}
				if s.decisionLevel() == 0 {
					t.Fatal("query refuted the formula")
				}
				learnt, bt := s.analyze(confl)
				s.cancelUntil(bt)
				backjumps++
				checkGaussMasks(t, s, "backjump")
				if len(learnt) == 1 {
					s.uncheckedEnqueue(learnt[0], reason{})
				} else {
					c := s.allocClause(learnt, true, s.computeLBD(learnt))
					s.learnts = append(s.learnts, c)
					s.attachClause(c)
					s.uncheckedEnqueue(learnt[0], reason{kind: reasonClause, ref: uint32(c)})
				}
				continue
			}
			if dl := s.decisionLevel(); dl < len(lits) {
				s.trailLim = append(s.trailLim, len(s.trail))
				switch s.valueLit(lits[dl]) {
				case valFalse:
					t.Fatalf("query %d: assumption %d refuted", q, dl)
				case valUnassigned:
					s.uncheckedEnqueue(lits[dl], reason{})
				}
				continue
			}
			next, ok := s.pickBranchLit()
			if !ok {
				break // a witness
			}
			s.trailLim = append(s.trailLim, len(s.trail))
			s.uncheckedEnqueue(next, reason{})
		}
		s.cancelUntil(0)
		checkGaussMasks(t, s, "retraction to level 0")
	}
	t.Logf("%d propagations, %d backjumps, %d in-search Gauss implications", props, backjumps, s.Stats.GaussInSearchProps)
	if backjumps < 10 {
		t.Fatalf("%d backjumps in %d propagations: the queries are too easy to exercise the masks", backjumps, props)
	}

	c := s.Clone()
	checkGaussMasks(t, c, "Clone")
	if st := c.SolveAssuming(forensicQuery(t, c, enc, r, 6, tpSel, ladder)); st != Sat {
		t.Fatalf("clone query: %v, want Sat", st)
	}
	checkGaussMasks(t, c, "clone's SolveAssuming retraction")
	checkGaussMasks(t, s, "original after Clone")
}
